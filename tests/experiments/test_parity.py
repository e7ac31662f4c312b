"""Parity golden smoke tests (tier-1 subset of the CI parity job).

The full 11-scenario sweep runs in CI; here we pin one scenario per
sender family (Tahoe, fixed-window, Reno) against the committed golden
hashes so a transport regression fails the ordinary test suite, not
just the dedicated job.
"""

import pytest

from repro.errors import AnalysisError
from repro.experiments import parity
from repro.scenarios import paper, run


class TestHelpers:
    def test_case_listing_and_selection(self):
        names = [case.name for case in parity.parity_cases()]
        assert len(names) == len(set(names))
        for smoke in parity.SMOKE_CASE_NAMES:
            assert smoke in names
        selected = parity.parity_cases(list(parity.SMOKE_CASE_NAMES))
        assert [case.name for case in selected] == list(parity.SMOKE_CASE_NAMES)

    def test_unknown_case_rejected(self):
        with pytest.raises(AnalysisError, match="unknown parity case"):
            parity.parity_cases(["figure99"])

    def test_fingerprint_is_deterministic(self):
        config = paper.figure4(duration=40.0, warmup=10.0)
        assert (parity.fingerprint_hash(run(config))
                == parity.fingerprint_hash(run(config)))

    def test_golden_schema_guard(self):
        with pytest.raises(AnalysisError, match="schema"):
            parity.check({"schema": -1})


class TestGoldenSmoke:
    @pytest.fixture(scope="class")
    def golden(self):
        return parity.load_golden()

    def test_golden_file_covers_every_case(self, golden):
        recorded = set(golden["scenarios"])
        expected = {case.name for case in parity.parity_cases()}
        assert recorded == expected

    @pytest.mark.parametrize("name", parity.SMOKE_CASE_NAMES)
    def test_smoke_case_bit_identical(self, golden, name):
        diffs = parity.check(golden, parity.parity_cases([name]))
        assert diffs == [], "\n".join(d.describe() for d in diffs)

    def test_fingerprint_hash_is_the_golden_hash(self, golden):
        # One digest of a run: a bare run's fingerprint_hash is the
        # golden file's hash, which check() compares on a metered run.
        [case] = parity.parity_cases(["figure2"])
        assert (parity.fingerprint_hash(run(case.build()))
                == golden["scenarios"]["figure2"]["hash"])
