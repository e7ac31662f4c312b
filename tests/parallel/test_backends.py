"""The runner's backend resolution."""

import pytest

from repro.errors import ConfigurationError
from repro.parallel.backends import (
    LocalBackend,
    SweepBackend,
    WorkerBackend,
    resolve_backend,
)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert type(resolve_backend("local")) is LocalBackend
        assert type(resolve_backend("worker")) is WorkerBackend

    def test_create_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="local, worker"):
            resolve_backend("cloud")


class TestResolve:
    def test_none_is_local(self):
        assert isinstance(resolve_backend(None), LocalBackend)

    def test_string_resolves_through_registry(self):
        assert isinstance(resolve_backend("worker"), WorkerBackend)

    def test_instance_passes_through(self):
        backend = WorkerBackend(workers=1)
        assert resolve_backend(backend) is backend

    def test_garbage_refused(self):
        with pytest.raises(ConfigurationError, match="backend must be"):
            resolve_backend(3.14)


class TestAbstractBase:
    def test_execute_is_abstract(self):
        with pytest.raises(NotImplementedError):
            SweepBackend().execute(None)
