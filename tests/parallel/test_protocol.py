"""Wire framing and extract-by-reference for the worker protocols."""

import io

import pytest

from repro.errors import ConfigurationError, WireError
from repro.parallel.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    extract_reference,
    read_message,
    resolve_extract,
    write_message,
)
from repro.scenarios import families


class TestFraming:
    def test_round_trip_is_canonical(self):
        line = encode_message({"t": "hello", "b": 2, "a": 1})
        assert line == '{"a":1,"b":2,"t":"hello"}\n'
        assert decode_message(line) == {"t": "hello", "a": 1, "b": 2}

    def test_same_message_same_bytes(self):
        one = encode_message({"t": "result", "index": 3, "lease_id": "L1"})
        two = encode_message({"lease_id": "L1", "t": "result", "index": 3})
        assert one == two

    def test_encode_requires_type_field(self):
        with pytest.raises(WireError, match="'t' type field"):
            encode_message({"index": 1})

    @pytest.mark.parametrize("line", [
        "",                      # blank
        "   \n",                 # whitespace only
        "not json\n",            # unparseable
        "[1,2,3]\n",             # not an object
        '{"index":1}\n',         # no type field
        '{"t":""}\n',            # empty type
        '{"t":3}\n',             # non-string type
    ])
    def test_damaged_lines_raise_wire_error(self, line):
        with pytest.raises(WireError):
            decode_message(line)

    def test_oversized_line_rejected(self):
        line = '{"t":"x","pad":"' + "a" * MAX_LINE_BYTES + '"}\n'
        with pytest.raises(WireError, match="exceeds"):
            decode_message(line)

    def test_stream_read_write(self):
        stream = io.StringIO()
        write_message(stream, {"t": "heartbeat", "lease_id": "L1"})
        write_message(stream, {"t": "shutdown"})
        stream.seek(0)
        assert read_message(stream) == {"t": "heartbeat", "lease_id": "L1"}
        assert read_message(stream) == {"t": "shutdown"}
        assert read_message(stream) is None  # EOF

    def test_protocol_version_is_stamped(self):
        assert PROTOCOL_VERSION == 1


def make_probe():
    """An extractor factory as another module would export it: what it
    returns looks like a plain name at the call site but is a closure."""
    def probe(result):
        return {"events": float(result.events_processed)}
    return probe


class TestExtractReference:
    def test_module_level_function_round_trips(self):
        reference = extract_reference(families.utilization_extract)
        assert reference == {"module": "repro.scenarios.families",
                             "qualname": "utilization_extract"}
        assert resolve_extract(reference) is families.utilization_extract

    def test_lambda_rejected_at_coordinator(self):
        with pytest.raises(ConfigurationError, match="lambda"):
            extract_reference(lambda result: {})

    def test_nested_function_rejected(self):
        def nested(result):
            return {}
        with pytest.raises(ConfigurationError, match="nested"):
            extract_reference(nested)

    def test_closure_factory_result_rejected(self):
        with pytest.raises(ConfigurationError, match="make_probe.<locals>.probe"):
            extract_reference(make_probe())

    def test_main_module_rejected(self):
        def probe(result):
            return {}
        probe.__module__ = "__main__"
        probe.__qualname__ = "probe"
        with pytest.raises(ConfigurationError, match="__main__"):
            extract_reference(probe)

    def test_resolve_bad_reference_is_wire_error(self):
        with pytest.raises(WireError):
            resolve_extract({"module": 3, "qualname": "x"})
        with pytest.raises(WireError, match="cannot import"):
            resolve_extract({"module": "no.such.module", "qualname": "f"})
        with pytest.raises(WireError, match="does not resolve"):
            resolve_extract({"module": "repro.scenarios.families",
                             "qualname": "no_such_function"})
        with pytest.raises(WireError, match="not callable"):
            resolve_extract({"module": "repro.scenarios.families",
                             "qualname": "CONJECTURE_CASES"})
