"""Ctrl-C on a supervised sweep must terminate and reap every worker.

The regression this guards: a KeyboardInterrupt arriving while the
coordinator holds workers — busy mid-attempt *or* idle between points,
spawned processes *or* fleet agents — must not leave orphans behind:
the coordinator's teardown runs on *any* exit from its loop, interrupt
included.  The drill runs a real sweep in a fresh session (so its
workers are identifiable by session id), lets two points finish and
hangs the third — one worker busy, the other idle — interrupts the
coordinator only, and asserts the whole session empties out.  It runs
once per transport.
"""

import os
import queue
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro

SCRIPT = textwrap.dedent("""\
    from repro.parallel import ParallelSweepRunner
    from repro.resilience import ResilienceConfig
    from repro.scenarios import families


    def report(progress):
        print(progress.phase.upper(), flush=True)


    if __name__ == "__main__":
        configs = [families.conjecture_config(case, duration=5.0, warmup=2.0)
                   for case in families.CONJECTURE_CASES[:3]]
        runner = ParallelSweepRunner(jobs=2, backend=BACKEND,
                                     resilience=ResilienceConfig(retries=0))
        runner.run_configs(configs, families.utilization_extract,
                           on_progress=report)
        print("DONE", flush=True)
""")


def _session_members(sid: int) -> list[int]:
    """Live PIDs whose session id is ``sid`` (orphans keep it)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # raced with exit
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


posix = pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")


@posix
def test_keyboard_interrupt_reaps_all_attempt_processes(tmp_path):
    _interrupt_mid_sweep(tmp_path, backend=None)


@posix
def test_keyboard_interrupt_reaps_the_whole_fleet(tmp_path):
    _interrupt_mid_sweep(tmp_path, backend="worker")


def _interrupt_mid_sweep(tmp_path, backend):
    script = tmp_path / "hung_sweep.py"
    script.write_text(SCRIPT.replace("BACKEND", repr(backend)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    # The last point hangs far past the test's patience; whichever
    # worker did not get it sits idle on an empty queue.
    env["REPRO_FAULTS"] = "hang@2:600*9"

    child = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, text=True,
        env=env, start_new_session=True)
    lines: queue.Queue = queue.Queue()
    threading.Thread(target=lambda: [lines.put(line) for line in child.stdout],
                     daemon=True).start()
    try:
        # Wait until one worker holds the hung attempt and the other
        # has nothing left to do.
        seen = {"START": 0, "FINISH": 0}
        deadline = time.monotonic() + 60.0
        while ((seen["START"], seen["FINISH"]) != (3, 2)
               and time.monotonic() < deadline):
            try:
                line = lines.get(timeout=1.0).strip()
            except queue.Empty:
                continue
            seen[line] = seen.get(line, 0) + 1
        assert (seen["START"], seen["FINISH"]) == (3, 2), (
            f"sweep never reached one busy and one idle worker: {seen}")
        assert len(_session_members(child.pid)) >= 3

        # Interrupt the coordinator only — the workers must be cleaned
        # up by its teardown, not by the signal reaching them.
        os.kill(child.pid, signal.SIGINT)
        assert child.wait(timeout=30.0) != 0

        # The coordinator is gone; nothing from its session may survive.
        deadline = time.monotonic() + 10.0
        while _session_members(child.pid) and time.monotonic() < deadline:
            time.sleep(0.2)
        leftovers = _session_members(child.pid)
        assert leftovers == [], f"orphaned worker processes: {leftovers}"
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass
        child.stdout.close()
        child.wait()
