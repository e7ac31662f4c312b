"""Wire protocol for distributed sweep execution.

One framing, two conversations.  The **worker-agent protocol** runs
between a sweep coordinator and a long-lived ``repro worker serve``
process: the coordinator grants *leases* (one sweep point each), the
agent heartbeats while simulating and reports a result or an error.
The **shared-cache protocol** runs between any sweep host and a
``repro cache serve`` store: ``get``/``put``/``quarantine`` verbs over
the same framing, so a fleet shares one content-addressed
:class:`~repro.parallel.cache.ResultCache`.

Framing is **line-delimited JSON**: every message is one canonical
(sorted-key, compact) JSON object on one ``\\n``-terminated line, with
a mandatory ``"t"`` type field.  Line framing keeps the transport
trivial — anything that can spawn a process and pipe its stdio (ssh, a
container runtime, a queue worker) can join a fleet, and a TCP socket
can reach the cache store — and keeps every exchange greppable in
flight recordings.

Messages never carry code.  Configs travel as their canonical dict form
(:func:`~repro.scenarios.serialize.config_to_dict`) and the measurement
extractor travels **by reference** — module plus qualified name,
resolved by re-import on the agent (:func:`extract_reference` /
:func:`resolve_extract`).  A lambda or closure therefore cannot cross
the protocol boundary at all; :func:`extract_reference` rejects it
eagerly at the coordinator with an actionable error instead of letting
a worker die on an import it can never satisfy.  This refusal is the
one check: no lint rule duplicates it.

Message vocabulary (``"t"`` values)::

    worker-agent protocol
      hello       agent -> coordinator   proto/host/pid handshake
      lease       coordinator -> agent   one sweep point: lease_id, index,
                                         attempt, config, extract ref,
                                         shipped fault clauses,
                                         heartbeat interval
      heartbeat   agent -> coordinator   lease_id keep-alive while running
      result      agent -> coordinator   lease_id, measurements, wall
                                         seconds, events
      error       agent -> coordinator   lease_id, detail (the attempt
                                         failed; the agent survives)
      shutdown    coordinator -> agent   drain and exit

    shared-cache protocol
      cache-get / cache-hit / cache-miss
      cache-put / cache-ok
      cache-quarantine / cache-ok
      cache-stats / cache-stats-reply
      cache-error                        server-side refusal, with reason
"""

from __future__ import annotations

import importlib
import json
import pickle
from typing import IO, Callable

from repro.errors import ConfigurationError, WireError

__all__ = [
    "PROTOCOL_VERSION",
    "decode_message",
    "encode_message",
    "extract_reference",
    "read_message",
    "resolve_extract",
    "write_message",
]

#: Bump when the message vocabulary or field layout changes; both ends
#: refuse to talk across versions (the hello handshake carries it).
PROTOCOL_VERSION = 1

#: Longest accepted wire line.  A sweep message is a config dict plus a
#: small measurement payload — far under this; anything bigger is a
#: framing bug or a hostile peer, not a legitimate message.
MAX_LINE_BYTES = 8 * 1024 * 1024


def encode_message(message: dict) -> str:
    """One canonical JSON line (sorted keys, compact, ``\\n``-terminated).

    Canonical form keeps wire traffic deterministic: the same message
    always serializes to the same bytes, so protocol recordings diff
    cleanly between runs.
    """
    if "t" not in message:
        raise WireError("protocol message needs a 't' type field")
    return json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"


def decode_message(line: str | bytes | bytearray) -> dict:
    """Parse one wire line — text, or raw bytes straight off a descriptor
    (undecodable bytes are damage too); raises
    :class:`~repro.errors.WireError` on damage."""
    if len(line) > MAX_LINE_BYTES:
        raise WireError(f"protocol line exceeds {MAX_LINE_BYTES} bytes")
    text = line.strip()
    if not text:
        raise WireError("blank protocol line")
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise WireError(f"protocol line is not JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise WireError(
            f"protocol message is a JSON {type(document).__name__}, "
            "not an object")
    kind = document.get("t")
    if not isinstance(kind, str) or not kind:
        raise WireError("protocol message missing string 't' type field")
    return document


def write_message(stream: IO[str], message: dict) -> None:
    """Encode and send one message, flushed (line == message boundary)."""
    stream.write(encode_message(message))
    stream.flush()


def read_message(stream: IO[str]) -> dict | None:
    """Read one message off a line stream; ``None`` on EOF.

    A damaged line raises :class:`~repro.errors.WireError` rather than
    being skipped — unlike the crash-safe journal, a live conversation
    has no torn-tail excuse, and silently resynchronising on a corrupt
    stream could mispair results with leases.
    """
    line = stream.readline()
    if not line:
        return None
    return decode_message(line)


# ----------------------------------------------------------------------
# Extract-by-reference
# ----------------------------------------------------------------------
def extract_reference(extract: Callable) -> dict[str, str]:
    """The importable identity of a measurement extractor.

    Agents re-import the extractor from this reference — nothing else
    crosses the wire — so only module-level callables qualify.  Lambdas,
    nested functions and bound closures are rejected here, at the
    coordinator and before any agent starts, with the same discipline
    the local worker path enforces via pickling; a serial sweep takes
    any callable.
    """
    module = getattr(extract, "__module__", None)
    qualname = getattr(extract, "__qualname__", None)
    if not module or not qualname:
        raise ConfigurationError(
            "extract must be a module-level function to cross the worker "
            f"protocol; {extract!r} has no importable identity")
    if qualname == "<lambda>" or "<locals>" in qualname:
        raise ConfigurationError(
            "extract must be a module-level function to cross the worker "
            f"protocol; {module}.{qualname} is a "
            + ("lambda" if qualname == "<lambda>" else "nested definition")
            + " that worker agents cannot import — move it to module level "
              "(see repro.scenarios.families)")
    if module == "__main__":
        raise ConfigurationError(
            "extract must live in an importable module to cross the worker "
            f"protocol; __main__.{qualname} cannot be resolved by a worker "
            "agent — move it into a real module")
    try:
        pickle.dumps(extract)
    except Exception as exc:
        raise ConfigurationError(
            "extract must be a module-level (picklable) callable to cross "
            f"the worker protocol: {exc}") from exc
    return {"module": module, "qualname": qualname}


def resolve_extract(reference: dict) -> Callable:
    """Re-import the extractor a :func:`extract_reference` names.

    Runs on the agent.  Anything that fails to import or resolve raises
    :class:`~repro.errors.WireError` — the agent reports it as an
    ``error`` message, the coordinator fails the attempt.
    """
    module_name = reference.get("module")
    qualname = reference.get("qualname")
    if not isinstance(module_name, str) or not isinstance(qualname, str):
        raise WireError(f"bad extract reference: {reference!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise WireError(
            f"cannot import extract module {module_name!r}: {exc}") from exc
    target: object = module
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            raise WireError(
                f"extract {module_name}.{qualname} does not resolve "
                f"(missing attribute {part!r})")
    if not callable(target):
        raise WireError(f"extract {module_name}.{qualname} is not callable")
    return target
