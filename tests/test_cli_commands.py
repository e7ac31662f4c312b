"""CLI command tests that exercise real (but small) runs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.scenarios import paper, save_config

#: The two counterfactual flag pairs: every flow onto AIMD, and the
#: bottleneck onto RED.
AIMD_FLAGS = ["--algorithm", "aimd", "--param", "a=1", "--param", "b=0.5"]
RED_FLAGS = ["--queue", "red", "--queue-param", "max_p=0.05"]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestRunConfigCommand:
    @pytest.fixture
    def config_file(self, tmp_path):
        config = paper.two_way(0.01, duration=30.0, warmup=10.0)
        return str(save_config(config, tmp_path / "scenario.json"))

    def test_runs_and_prints_summary(self, config_file, capsys):
        assert main(["run-config", config_file]) == 0
        out = capsys.readouterr().out
        assert "two-way" in out
        assert "sw1->sw2" in out

    @pytest.mark.parametrize("content", [
        pytest.param(json.dumps({"name": "x", "flows": [], "bogus": 1}),
                     id="unknown-field"),
        pytest.param(None, id="missing-path"),
        pytest.param("directory", id="directory"),
        pytest.param("not json {", id="not-json"),
        pytest.param(json.dumps([1, 2]), id="top-level-list"),
        pytest.param(json.dumps({"name": "x", "flows": 7}), id="flows-not-list"),
        pytest.param(json.dumps({"name": "x", "flows": [7]}), id="flow-not-object"),
        pytest.param(json.dumps({"name": "x", "flows": [{"dst": 1}]}),
                     id="flow-without-src"),
        pytest.param(json.dumps({"name": "x", "flows": [{"src": 0}]}),
                     id="flow-without-dst"),
        pytest.param(json.dumps({"name": "x", "flows": [], "tcp": 3}),
                     id="tcp-not-object"),
    ])
    def test_invalid_document_is_clean_error(self, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        if content == "directory":
            bad.mkdir()
        elif content is not None:
            bad.write_text(content)
        assert main(["run-config", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")


class TestFiguresCommand:
    def test_renders_to_directory(self, tmp_path, capsys, monkeypatch):
        # Swap the gallery for one fast figure.
        from repro.viz import gallery

        fast = {
            "figure8": (lambda: paper.figure8(duration=100.0, warmup=60.0),
                        gallery.FIGURES["figure8"][1]),
        }
        monkeypatch.setattr(gallery, "FIGURES", fast)
        out_dir = tmp_path / "figs"
        assert main(["figures", "-o", str(out_dir)]) == 0
        assert (out_dir / "figure8.txt").exists()
        assert "wrote" in capsys.readouterr().out


class TestRunCommandFast:
    def test_fast_experiment_passes(self, capsys):
        assert main(["run", "fig8", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "queue 1 maximum" in out


class TestSweepCommand:
    def test_conjecture_cold_then_warm(self, tmp_path, capsys):
        from repro.scenarios import families

        n = len(families.CONJECTURE_CASES)
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "conjecture", "--fast",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert f"{n} points" in out
        assert f"0 hits, {n} misses" in out
        assert f"[{n}/{n}]" in out

        # Second run resolves every point from the cache.
        assert main(["sweep", "conjecture", "--fast",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert f"{n} hits, 0 misses" in out

    def test_no_cache_flag_disables_caching(self, tmp_path, capsys):
        assert main(["sweep", "conjecture", "--fast", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache: off" in out

    def test_parallel_jobs_accepted(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "conjecture", "--fast", "--jobs", "2",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out


class TestSweepExitCodes:
    """Exit-code hygiene documented in ``repro sweep --help``.

    The grid is monkeypatched down to three points, and faults are
    injected in-process (jobs=1), so these run in seconds.
    """

    @pytest.fixture(autouse=True)
    def small_grid(self, monkeypatch):
        from repro.scenarios import families

        monkeypatch.setattr(families, "CONJECTURE_CASES",
                            families.CONJECTURE_CASES[:3])
        monkeypatch.delenv("REPRO_FAULTS", raising=False)

    def test_partial_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "raise@1*9")
        code = main(["sweep", "conjecture", "--fast", "--no-cache",
                     "--retries", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "point 1" in err
        assert "1/3 points failed" in err

    def test_allow_partial_exits_0(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "raise@1*9")
        assert main(["sweep", "conjecture", "--fast", "--no-cache",
                     "--retries", "0", "--allow-partial"]) == 0
        assert "failed" in capsys.readouterr().err

    def test_total_failure_exits_4(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "raise@0*9;raise@1*9;raise@2*9")
        code = main(["sweep", "conjecture", "--fast", "--no-cache",
                     "--retries", "0"])
        assert code == 4
        assert "every sweep point failed" in capsys.readouterr().err

    def test_bad_fault_spec_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "explode@1")
        assert main(["sweep", "conjecture", "--fast", "--no-cache"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_retry_recovers_and_exits_0(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "raise@1")
        assert main(["sweep", "conjecture", "--fast", "--no-cache",
                     "--retries", "2"]) == 0
        assert "1 retried attempts" in capsys.readouterr().out

    def test_resume_report_and_export(self, tmp_path, monkeypatch, capsys):
        journal = str(tmp_path / "journal.jsonl")
        report = str(tmp_path / "report.json")
        export_a = str(tmp_path / "a.json")
        export_b = str(tmp_path / "b.json")

        assert main(["sweep", "conjecture", "--fast", "--no-cache",
                     "--resume", journal, "--export", export_a]) == 0
        assert "journal: 0 restored" in capsys.readouterr().out

        assert main(["sweep", "conjecture", "--fast", "--no-cache",
                     "--resume", journal, "--export", export_b,
                     "--report", report]) == 0
        assert "journal: 3 restored" in capsys.readouterr().out

        import pathlib
        assert (pathlib.Path(export_a).read_text()
                == pathlib.Path(export_b).read_text())
        document = json.loads(pathlib.Path(report).read_text())
        assert document["journal_skips"] == 3
        assert document["live"] == 0

    @pytest.mark.parametrize("argv, parent", [
        pytest.param(["sweep", "conjecture", "--fast", "--no-cache",
                      "--report"], "missing", id="--report"),
        pytest.param(["sweep", "conjecture", "--fast", "--no-cache",
                      "--export"], "missing", id="--export"),
        pytest.param(["sweep", "conjecture", "--fast", "--no-cache",
                      "--manifest-dir"], "file", id="sweep --manifest-dir"),
        pytest.param(["trace", "fig2", "--out"], "missing", id="trace"),
        pytest.param(["trace", "fig2", "--manifest-dir"], "file",
                     id="trace --manifest-dir"),
        pytest.param(["metrics", "fig2", "--prom"], "file", id="metrics"),
        pytest.param(["report", "--fast", "-o"], "file", id="report"),
        pytest.param(["parity", "--case", "figure2", "--diff-out"], "file",
                     id="parity"),
        pytest.param(["figures", "-o"], "file", id="figures"),
        pytest.param(["lint", "--output"], "missing", id="lint"),
        pytest.param(["sweep", "conjecture", "--fast", "--no-cache",
                      "--report"], "dir", id="--report is a directory"),
        pytest.param(["sweep", "buffer", "--fast", "--no-cache",
                      "--resume"], "file", id="--resume"),
        pytest.param(["sweep", "buffer", "--fast", "--no-cache",
                      "--resume"], "dir", id="--resume is a directory"),
        pytest.param(["journal", "compact"], "file", id="journal compact"),
        pytest.param(["journal", "compact"], "dir",
                     id="journal compact is a directory"),
    ])
    def test_output_in_a_missing_directory_exits_2_before_any_point(
            self, argv, parent, tmp_path, capsys):
        """Every verb that writes a file refuses a path it could not
        write before its first event: under a directory that does not
        exist, under a regular file, or a file path that is a directory.
        A sweep journal creates its missing parents, so only the last
        two apply to it."""
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "out").mkdir(parents=True)
        target = tmp_path / parent / "out"
        assert main([*argv, str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # nothing ran: every verb prints as it goes
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [err.strip()]
        assert str(target.parent) in err
        assert sorted(tmp_path.rglob("*")) == [  # none made
            tmp_path / "dir", tmp_path / "dir" / "out", tmp_path / "file"]

    def test_worker_backend_off_posix_exits_2(self, capsys, monkeypatch):
        """The coordinator waits on raw descriptors: elsewhere that is a
        configuration error up front, not a traceback from the wait."""
        import types

        from repro.parallel.backends import worker

        monkeypatch.setattr(worker, "os", types.SimpleNamespace(name="nt"))
        assert main(["sweep", "conjecture", "--fast", "--no-cache",
                     "--backend", "worker"]) == 2
        captured = capsys.readouterr()
        assert "needs a POSIX host" in captured.err
        assert "point" not in captured.out  # nothing ran

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fleet_of_no_workers_exits_2(self, capsys, workers):
        assert main(["sweep", "conjecture", "--fast", "--no-cache",
                     "--backend", "worker", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert (f"error: workers must be at least 1, got {workers}"
                in captured.err)
        assert "point" not in captured.out  # nothing ran

    @pytest.mark.parametrize("flag", [["--workers", "2"],
                                      ["--lease-ttl", "5"]],
                             ids=["workers", "lease-ttl"])
    def test_fleet_flag_without_worker_backend_exits_2(self, capsys, flag):
        assert main(["sweep", "conjecture", "--fast", "--no-cache",
                     *flag]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --workers/--lease-ttl need "
                                "--backend worker\n")
        assert "point" not in captured.out  # nothing ran

    @pytest.mark.parametrize("ttl", ["0", "-1"])
    def test_non_positive_lease_ttl_exits_2(self, ttl):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "conjecture", "--fast",
             "--no-cache", "--backend", "worker", "--lease-ttl", ttl],
            capture_output=True, text=True, timeout=120,
            env={**os.environ,
                 "PYTHONPATH": str(Path(repro.__file__).parents[1])})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"error: lease_ttl must be positive, "
                               f"got {float(ttl)}\n")

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "--allow-partial" in out


class TestCounterfactualFlags:
    """``--algorithm/--param`` and ``--queue/--queue-param`` on ``run``,
    ``run-config`` and ``sweep``.

    Every digest and hash here but ``fig2-aimd``'s was recorded before the
    three verbs shared one wiring of the four flags: a substituted run
    keeps its scenario name, its config hash and its numbers.  Each verb hands the flags to
    :func:`~repro.scenarios.substitute` at its own call site, so each
    call site has its own check below.
    """

    @pytest.fixture
    def config_file(self, tmp_path):
        config = paper.two_way(0.01, duration=30.0, warmup=10.0)
        return str(save_config(config, tmp_path / "scenario.json"))

    @pytest.fixture
    def conjecture_cases(self, monkeypatch):
        from repro.scenarios import families

        def take(n):
            monkeypatch.setattr(families, "CONJECTURE_CASES",
                                families.CONJECTURE_CASES[:n])
        return take

    @pytest.mark.parametrize("exp_id,flags,code,digest", [
        ("fig2", ["--algorithm", "aimd", "--param", "a=1", "--param", "b=0.75"],
         1, "00ab54d76847c11be08a0642436653e4af4fed81158f4afdfaabb0b9e22b7067"),
        ("fig4_5", RED_FLAGS, 1,
         "1a39d404bed65064ddc9dae79e50ba8724a1da85afd28bb14b9e6daf880f8008"),
    ], ids=["fig2-aimd", "fig4_5-red"])
    def test_run_stdout(self, exp_id, flags, code, digest, capsys):
        """``repro run`` applies each flag: one that drops ``--param``
        (AIMD at its default decrease) fails ``fig2-aimd`` alone, one that
        drops ``--queue`` fails ``fig4_5-red`` alone.  Figure 2's Tahoe
        flows lose packets, so AIMD's decrease shows in its stdout; the
        fixed windows of figure 8 never do, and its stdout under AIMD is
        its stdout under ``fixed``."""
        assert main(["run", exp_id, "--fast", *flags]) == code
        assert _sha256(capsys.readouterr().out) == digest

    @pytest.mark.parametrize("flags,digest", [
        (AIMD_FLAGS,
         "134091a5fa6266aca0493b9cc5d1aa73345b9e4c2fa289ec01a01cfc4cfdbeba"),
        (RED_FLAGS,
         "f8cd9e28cbedfc7937797c50fafdc1313ac508e6de4e455ffde7ca46496c8454"),
    ], ids=["aimd", "red"])
    def test_run_config_stdout(self, config_file, flags, digest, capsys):
        """``repro run-config`` that ignores ``--algorithm`` or ``--queue``
        fails its case here alone."""
        assert main(["run-config", config_file, *flags]) == 0
        assert _sha256(capsys.readouterr().out) == digest

    @pytest.mark.parametrize("family,flags,digest", [
        ("buffer", RED_FLAGS,
         "1bdc86e6f667965071bf609f7930c77adf125893cedc859dbfa31192be126eac"),
    ], ids=["buffer-red"])
    def test_sweep_export(self, family, flags, digest, monkeypatch, tmp_path,
                          capsys):
        """The one check on the bytes ``sweep --export`` writes: a changed
        JSON layout fails here alone.  That ``sweep`` applies the flags is
        ``test_substituted_scenario_and_hash``'s check."""
        from repro.scenarios import families

        monkeypatch.setattr(families, "BUFFER_SIZES", families.BUFFER_SIZES[:1])
        export = tmp_path / "export.json"
        assert main(["sweep", family, "--fast", "--no-cache", *flags,
                     "--export", str(export)]) == 0
        assert _sha256(export.read_text()) == digest

    @pytest.mark.parametrize("flags,scenario,config_hash", [
        (AIMD_FLAGS, "zero-ack-30-25-tau0.01+aimd",
         "68937afd43a1b97dd8ffa7e3a0e09b12f8a2adf46793f901f405d5f0c83339b6"),
        (RED_FLAGS, "zero-ack-30-25-tau0.01+red",
         "a8e8fd4bc74dbc56b797ecdfd92c14648607af45818e6e1d749bf2caaf675c6d"),
        (AIMD_FLAGS + RED_FLAGS, "zero-ack-30-25-tau0.01+aimd+red",
         "c9a2567c1f11fbd72bdd7d5478fc7b8a4f6a971633a10c99a4ca076619b44b5e"),
    ], ids=["algorithm", "queue", "both"])
    def test_substituted_scenario_and_hash(self, flags, scenario, config_hash,
                                     conjecture_cases, tmp_path, capsys):
        """``repro sweep`` that ignores a flag or drops its parameters
        fails here (the name or the hash moves); so does a change to how
        a :class:`~repro.scenarios.QueueSpec`'s parameters serialise."""
        conjecture_cases(1)
        manifests = tmp_path / "manifests"
        assert main(["sweep", "conjecture", "--fast", "--no-cache", *flags,
                     "--manifest-dir", str(manifests)]) == 0
        [path] = manifests.glob("*.manifest.json")
        manifest = json.loads(path.read_text())
        assert (manifest["scenario"], manifest["config_hash"]) == (
            scenario, config_hash)

    def test_aimd_conjecture_is_the_conjecture_under_aimd(self, capsys):
        import re

        def measured(argv):
            assert main(argv) == 0
            return re.findall(r"utils \(\d+%, \d+%\)", capsys.readouterr().out)

        substituted = measured(["run", "conjecture", "--fast",
                                 "--algorithm", "aimd",
                                 "--param", "a=1.0", "--param", "b=0.5"])
        assert len(substituted) == 6
        assert measured(["run", "aimd_conjecture", "--fast"]) == substituted

    @pytest.mark.parametrize("argv,message", [
        (["run", "fig8", "--fast", "--param", "a=1"],
         "--param requires --algorithm"),
        (["run", "fig8", "--fast", "--queue-param", "max_p=0.5"],
         "--queue-param requires --queue"),
        (["sweep", "conjecture", "--fast", "--no-cache", "--param", "a=1"],
         "--param requires --algorithm"),
        (["sweep", "conjecture", "--fast", "--no-cache",
          "--queue-param", "max_p=0.5"],
         "--queue-param requires --queue"),
    ], ids=["run-param", "run-queue-param", "sweep-param", "sweep-queue-param"])
    def test_stray_param_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "point" not in captured.out  # nothing ran

    @pytest.mark.parametrize("flags,message", [
        (["--param", "a=1"], "--param requires --algorithm"),
        (["--param", "a=1", "--queue-param", "max_p=0.5"],
         "--param requires --algorithm"),
        (["--queue", "red", "--queue-param", "max_p=0.05",
          "--param", "a=1"], "--param requires --algorithm"),
        (["--queue-param", "max_p=0.5"], "--queue-param requires --queue"),
    ], ids=["param", "both-stray", "param-beside-queue", "queue-param"])
    def test_run_config_stray_param_exits_2(self, config_file, flags, message,
                                            capsys):
        """``run-config`` once ran the unmodified scenario here, exit 0."""
        assert main(["run-config", config_file, *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""  # nothing ran
