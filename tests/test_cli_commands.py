"""CLI command tests that exercise real (but small) runs."""

import json

import pytest

from repro.cli import main
from repro.scenarios import paper, save_config


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

    def test_save_traces_option(self, config_file, tmp_path, capsys):
        traces = tmp_path / "traces.json"
        assert main(["run-config", config_file, "--save-traces", str(traces)]) == 0
        document = json.loads(traces.read_text())
        assert document["format_version"] == 1
        assert "sw1->sw2" in document["queues"]

    def test_invalid_document_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "flows": [], "bogus": 1}))
        assert main(["run-config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_malformed_worker_endpoint_exits_2(self, capsys):
        """A typo in --worker-connect is a configuration error, not a
        fleet that "could not be reached" and a silent local run."""
        assert main(["sweep", "conjecture", "--fast", "--no-cache",
                     "--backend", "worker",
                     "--worker-connect", "localhost:port"]) == 2
        captured = capsys.readouterr()
        assert "bad endpoint 'localhost:port'" in captured.err
        assert "point" not in captured.out  # nothing ran

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

    def test_unreachable_worker_endpoint_degrades_to_local(self, capsys):
        import socket

        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            endpoint = "127.0.0.1:%d" % probe.getsockname()[1]
        with pytest.warns(RuntimeWarning, match="degrading"), \
                pytest.warns(RuntimeWarning, match="could not connect"):
            assert main(["sweep", "conjecture", "--fast", "--no-cache",
                         "--backend", "worker",
                         "--worker-connect", endpoint]) == 0
        assert "3 points" in capsys.readouterr().out

    def test_malformed_listen_endpoint_exits_2(self, capsys):
        assert main(["worker", "serve", "--listen", "0.0.0.0:http"]) == 2
        assert "bad endpoint '0.0.0.0:http'" in capsys.readouterr().err

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "--allow-partial" in out
