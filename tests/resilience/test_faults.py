"""Fault-injection spec parsing and deterministic scheduling."""

import pytest

from repro.errors import ConfigurationError, FaultInjectionError
from repro.resilience import (
    FAULTS_ENV,
    FaultClause,
    FaultPlan,
    active_plan,
    apply_worker_faults,
    corrupt_entry_file,
    parse_faults,
)


class TestParsing:
    def test_full_grammar(self):
        plan = parse_faults("kill@2;hang@7:600;slow@0:0.25*3")
        kill, hang, slow = plan.clauses
        assert (kill.kind, kill.point, kill.count) == ("kill", 2, 1)
        assert (hang.kind, hang.point, hang.value) == ("hang", 7, 600.0)
        assert (slow.kind, slow.value, slow.count) == ("slow", 0.25, 3)

    def test_default_values_per_kind(self):
        plan = parse_faults("hang@0;slow@1;kill@2")
        assert plan.clauses[0].value == 3600.0
        assert plan.clauses[1].value == 1.0
        assert plan.clauses[2].value == 0.0

    def test_empty_clauses_and_whitespace_tolerated(self):
        plan = parse_faults(" kill@1 ; ; raise@2 ")
        assert [clause.kind for clause in plan.clauses] == ["kill", "raise"]

    @pytest.mark.parametrize("spec", [
        "explode@1",         # unknown kind
        "kill",              # no point
        "kill@",             # no point
        "kill@x",            # non-numeric point
        "kill@1*0",          # count < 1
        "kill@1:abc",        # non-numeric value
        "seed=x",            # no seed clause in the grammar
        "seed=7",
        "kill@?",            # every point is named explicitly
    ])
    def test_bad_specs_are_configuration_errors(self, spec):
        with pytest.raises(ConfigurationError):
            parse_faults(spec)

    def test_error_message_names_the_clause(self):
        with pytest.raises(ConfigurationError, match="explode@1"):
            parse_faults("explode@1")
        with pytest.raises(ConfigurationError,
                           match=r"bad REPRO_FAULTS clause 'kill@\?'"):
            parse_faults("kill@2;kill@?")


class TestScheduling:
    def test_matches_fires_on_attempts_up_to_count(self):
        clause = FaultClause(kind="raise", point=3, count=2)
        assert clause.matches(3, 1) and clause.matches(3, 2)
        assert not clause.matches(3, 3)
        assert not clause.matches(4, 1)

    def test_worker_faults_excludes_corrupt(self):
        plan = parse_faults("kill@1;corrupt@1")
        kinds = [c.kind for c in plan.agent_faults(1, 1)]
        assert kinds == ["kill"]
        assert plan.corrupts(1)
        assert not plan.corrupts(2)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert parse_faults("kill@1")


class TestRemoteKinds:
    def test_hyphenated_kinds_parse(self):
        plan = parse_faults("worker-kill@2;lease-expire@5*2;cache-unreachable@1")
        kinds = [clause.kind for clause in plan.clauses]
        assert kinds == ["worker-kill", "lease-expire", "cache-unreachable"]

    def test_agent_faults_ship_worker_kill_with_in_worker_kinds(self):
        plan = parse_faults("kill@1;worker-kill@1;lease-expire@1;corrupt@1")
        kinds = [clause.kind for clause in plan.agent_faults(1, 1)]
        # lease-expire runs at the coordinator and corrupt in the parent;
        # neither crosses the wire.
        assert kinds == ["kill", "worker-kill"]

    def test_lease_expires_is_occurrence_counted(self):
        plan = parse_faults("lease-expire@3*2")
        assert plan.lease_expires(3, 1)
        assert plan.lease_expires(3, 2)
        assert not plan.lease_expires(3, 3)   # budget spent: no infinite loop
        assert not plan.lease_expires(4, 1)

    def test_cache_unreachable_targets_one_point(self):
        plan = parse_faults("cache-unreachable@2")
        assert plan.cache_unreachable(2)
        assert not plan.cache_unreachable(0)

    def test_clause_dict_round_trip(self):
        clause = parse_faults("worker-kill@7*3").clauses[0]
        assert FaultClause.from_dict(clause.to_dict()) == clause

    @pytest.mark.parametrize("raw", [
        {"kind": "explode", "point": 1},
        {"kind": "kill", "point": "one"},
        {"kind": "kill", "point": 1, "count": 0},
        {"kind": "kill", "point": 1, "value": "fast"},
        {"kind": "kill", "point": None},
    ])
    def test_damaged_shipped_clause_rejected(self, raw):
        with pytest.raises(ValueError):
            FaultClause.from_dict(raw)


class TestActivePlan:
    def test_unset_env_is_empty_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert not active_plan()

    def test_env_spec_parsed_per_call(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@5")
        plan = active_plan()
        assert plan.clauses[0] == FaultClause(kind="raise", point=5)
        monkeypatch.setenv(FAULTS_ENV, "")
        assert not active_plan()

    def test_bad_env_spec_raises(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "nope")
        with pytest.raises(ConfigurationError):
            active_plan()


class TestApplication:
    def test_raise_fault_raises(self):
        faults = parse_faults("raise@4").agent_faults(4, 1)
        with pytest.raises(FaultInjectionError, match="point 4"):
            apply_worker_faults(faults, 4, 1)

    def test_slow_fault_returns_after_sleeping(self):
        faults = parse_faults("slow@0:0.0").agent_faults(0, 1)
        apply_worker_faults(faults, 0, 1)  # value 0.0 -> returns at once

    def test_no_faults_is_a_no_op(self):
        apply_worker_faults((), 0, 1)

    def test_corrupt_entry_file_truncates_to_half(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_bytes(b"0123456789")
        corrupt_entry_file(target)
        assert target.read_bytes() == b"01234"
