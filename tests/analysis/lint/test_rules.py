"""Fixture-driven tests for the AST rules.

Each rule has a positive fixture (must fire, with the expected count and
no other codes) and a negative fixture (must stay silent).  Fixtures
claim their logical module with a ``# repro-lint-module:`` directive so
path-scoped rules behave as they would inside ``src/``.
"""

import pathlib

import pytest

from repro.analysis.lint import lint_file, lint_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# (code, positive fixture, expected violation count, negative fixture)
CASES = [
    ("RPR001", "rpr001_bad.py", 3, "rpr001_good.py"),
    ("RPR004", "rpr004_bad.py", 2, "rpr004_good.py"),
    ("RPR004", "rpr004_obs_bad.py", 2, "rpr004_obs_good.py"),
    ("RPR004", "rpr004_post_bad.py", 2, "rpr004_post_good.py"),
    ("RPR005", "rpr005_bad.py", 4, "rpr005_good.py"),
    ("RPR007", "rpr007_bad.py", 2, "rpr007_good.py"),
    ("RPR008", "rpr008_bad.py", 4, "rpr008_good.py"),
]


@pytest.mark.parametrize("code,bad,count,good", CASES,
                         ids=[case[1] for case in CASES])
def test_positive_fixture_fires(code, bad, count, good):
    violations = lint_file(FIXTURES / bad)
    assert [v.code for v in violations] == [code] * count
    for violation in violations:
        assert violation.line > 0
        assert code in violation.format()


@pytest.mark.parametrize("code,bad,count,good", CASES,
                         ids=[case[1] for case in CASES])
def test_negative_fixture_clean(code, bad, count, good):
    assert lint_file(FIXTURES / good) == []


class TestScoping:
    def test_rng_module_exempt_from_rpr001(self):
        source = "import random\nx = random.random()\n"
        assert lint_source(source, module="repro.engine.rng") == []
        assert [v.code for v in
                lint_source(source, module="repro.engine.other")] == ["RPR001"]

    def test_rpr001_ignores_code_outside_repro(self):
        source = "import time\nx = time.time()\n"
        assert lint_source(source, module="some.other.pkg") == []

    def test_rpr001_exemption_follows_the_file_path(self):
        source = "import random\nx = random.random()\n"
        assert lint_source(source, path="src/repro/engine/rng.py") == []
        assert [v.code for v in lint_source(
            source, path="src/repro/engine/simulator.py")] == ["RPR001"]

    def test_rpr004_scoped_to_engine_net_and_obs(self):
        source = "for x in set(items):\n    x.poke()\n"
        assert lint_source(source, module="repro.viz.gallery") == []
        assert [v.code for v in
                lint_source(source, module="repro.net.switch")] == ["RPR004"]
        assert [v.code for v in
                lint_source(source, module="repro.obs.tracer")] == ["RPR004"]

    def test_rpr007_scoped_to_repro_modules(self):
        source = "try:\n    x()\nexcept ValueError:\n    pass\n"
        assert lint_source(source, module="some.other.pkg") == []
        assert [v.code for v in
                lint_source(source, module="repro.resilience.demo")] == ["RPR007"]

    def test_rpr007_allows_typed_handlers_with_real_bodies(self):
        source = ("try:\n    x()\nexcept ValueError:\n    count += 1\n"
                  "except BaseException:\n    cleanup()\n    raise\n")
        assert lint_source(source, module="repro.parallel.demo") == []

    def test_rpr007_flags_catch_all_without_reraise(self):
        source = "try:\n    x()\nexcept BaseException:\n    cleanup()\n"
        assert [v.code for v in
                lint_source(source, module="repro.parallel.demo")] == ["RPR007"]

    def test_rpr008_scoped_to_hot_packages(self):
        source = ("class K:\n"
                  "    def run(self, heap):\n"
                  "        while heap:\n"
                  "            if self._strict:\n"
                  "                heap.pop()\n")
        assert lint_source(source, module="repro.metrics.demo") == []
        assert [v.code for v in
                lint_source(source, module="repro.engine.demo")] == ["RPR008"]

    def test_rpr008_ignores_reads_outside_loops(self):
        source = ("class K:\n"
                  "    def once(self):\n"
                  "        if self._strict:\n"
                  "            self.check()\n")
        assert lint_source(source, module="repro.engine.demo") == []

    def test_rpr008_flags_fan_call_in_loop(self):
        source = ("class K:\n"
                  "    def emit(self, now, packets):\n"
                  "        for packet in packets:\n"
                  "            self._send_fan((now, packet))\n")
        assert [v.code for v in
                lint_source(source, module="repro.tcp.demo")] == ["RPR008"]

    def test_rpr008_ignores_stores_and_other_attrs(self):
        source = ("class K:\n"
                  "    def run(self, items):\n"
                  "        for item in items:\n"
                  "            self._count += 1\n"
                  "            self.handle(item)\n")
        assert lint_source(source, module="repro.net.demo") == []
