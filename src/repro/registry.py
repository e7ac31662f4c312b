"""One name registry for the two pluggable policies.

Two policies are chosen by name: the sender's window algorithm
(:mod:`repro.tcp.congestion`) and the bottleneck's queue discipline
(:mod:`repro.net.disciplines`).  The names travel as data — on
:class:`~repro.scenarios.config.FlowSpec` and
:class:`~repro.scenarios.config.QueueSpec`, in config documents, cache
keys and manifests — and a :class:`Registry` resolves them back into
factories.  Each policy module holds one instance and registers its
built-ins on import, so a name resolves wherever that module is
importable, spawn workers included: they re-import modules rather than
inherit state.  The experiment table behind ``repro run`` is a third
instance (:mod:`repro.experiments.registry`).

This module sits beside :mod:`repro.errors` so that ``repro.net`` and
``repro.tcp`` can both use it without importing each other.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Mapping, TypeVar

from repro.errors import ConfigurationError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Lowercase names to factories of one product type.

    ``kind`` names the policy in every error (``"algorithm"``,
    ``"queue discipline"``); ``product`` is the type every factory must
    return.
    """

    __slots__ = ("kind", "product", "_factories")

    def __init__(self, kind: str, product: type[T]) -> None:
        self.kind = kind
        self.product = product
        self._factories: dict[str, Callable[..., T]] = {}

    def register(self, name: str, factory: Callable[..., T]) -> None:
        """Register ``factory`` under ``name``.

        ``name`` is what configs carry, so it must be a non-empty
        lowercase identifier (underscores allowed) and stay
        case-unambiguous.  A name registers once: two modules fighting
        over one would make runs depend on import order.
        """
        if not (isinstance(name, str) and name == name.lower()
                and name.replace("_", "").isalnum()):
            raise ConfigurationError(
                f"{self.kind} name must be a lowercase identifier, got {name!r}")
        if name in self._factories:
            raise ConfigurationError(f"{self.kind} {name!r} is already registered")
        self._factories[name] = factory

    def names(self) -> list[str]:
        """The registered names, sorted."""
        return sorted(self._factories)

    def factory(self, name: str) -> Callable[..., T]:
        """The factory registered under ``name``, not called."""
        try:
            return self._factories[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(self.names())}") from None

    def create(self, name: str, *args: object,
               params: Mapping[str, object] | Iterable[tuple[str, object]] = (),
               **kwargs: object) -> T:
        """Call the factory for ``name``.

        ``args`` and ``kwargs`` are what the calling layer supplies;
        ``params`` (a mapping or ``(key, value)`` pairs) are the keywords
        a config carries.  A factory refusing them — ``TypeError`` for an
        unknown key, ``ValueError`` for an out-of-range value — raises
        :class:`~repro.errors.ConfigurationError` naming the kind and the
        name, so a bad sweep point fails with context instead of a bare
        error from deep inside a worker process.
        """
        factory = self.factory(name)
        options = dict(params)
        try:
            product = factory(*args, **kwargs, **options)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{self.kind} {name!r} rejected params {options}: {exc}") from exc
        if not isinstance(product, self.product):
            raise ConfigurationError(
                f"{self.kind} {name!r} returned {type(product).__name__}, "
                f"not a {self.product.__name__}")
        return product
