"""Timing, hygiene and bookkeeping shared by the suite's modules.

Nothing here imports ``repro``: the fresh-interpreter set-up probe must
be able to time that import itself.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Callable, Sequence

from benchmarks.suite.refkernel import NOMINAL_PASS_S, reference_pass

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
#: Results, traces and every temp dir live here (git-ignored), so a run
#: reads and writes only inside its checkout.
OUT_DIR = SUITE_DIR / "out"

WORKLOADS = ("paper_figures", "population", "phase_sweep_cache",
             "sweep_backends")

#: Switches that move the program off its default pure-Python path or
#: change sweep sizing.  Numbers taken with any of them set are not
#: comparable with the recorded ones, so the suite refuses to run.
FORBIDDEN_ENV = ("REPRO_COMPILED", "REPRO_SANITIZE", "REPRO_FAULTS",
                 "REPRO_JOBS", "REPRO_NO_CACHE")


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def timed(body: Callable[[], object]) -> tuple[float, object]:
    """``(seconds, result)`` of ``body()`` with the collector paused.

    Every timed region allocates one object per simulated event;
    collection pauses landing at random inside it would swamp the
    differences being measured (same reasoning as
    ``perf_harness._gc_paused``).
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        result = body()
        return perf_counter() - started, result
    finally:
        if was_enabled:
            gc.enable()


def _reference_seconds() -> float:
    """One reference pass, collector paused (no collection first: the
    pass is too short to be worth one, and brackets are frequent)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        reference_pass()
        return perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Machine:
    """Expresses timed units in reference seconds (see ``refkernel``).

    Each unit is bracketed by passes of the frozen reference kernel —
    the median of three, so one pass hit by a straggling child process
    or an interrupt does not skew the unit.  A bracket that ended a
    moment ago is reused as the next unit's opening bracket, so
    back-to-back units cost one bracket each.
    """

    #: A bracket older than this no longer describes the machine.
    FRESH_S = 0.1
    BRACKET_PASSES = 3

    def __init__(self) -> None:
        # The first passes in a process run cold (bytecode not yet
        # specialised, arenas not yet grown) and would read slow.
        for _ in range(3):
            reference_pass()
        self.passes: list[float] = []
        self._last_end = float("-inf")
        self._last_wall = 0.0

    def _bracket(self) -> float:
        if perf_counter() - self._last_end > self.FRESH_S:
            self._last_wall = median(_reference_seconds()
                                     for _ in range(self.BRACKET_PASSES))
            self.passes.append(self._last_wall)
            self._last_end = perf_counter()
        return self._last_wall

    def timed(self, body: Callable[[], object]) -> tuple[float, float, object]:
        """``(reference seconds, wall seconds, result)`` of ``body()``."""
        before = self._bracket()
        wall, result = timed(body)
        self._last_end = float("-inf")
        after = self._bracket()
        return wall * NOMINAL_PASS_S * 2.0 / (before + after), wall, result

    def reference_pass_ms(self) -> float:
        """Median wall of this run's reference passes: the machine's speed."""
        return median(self.passes) * 1e3 if self.passes else 0.0


def repeat_for(seconds: float, body: Callable[[int], object],
               min_samples: int = 1) -> list[object]:
    """Call ``body(i)`` back to back until ``seconds`` have passed.

    Closed loop: each pass starts when the previous one returns.  Every
    pass is the same size; only their number follows the time budget.
    """
    results = []
    deadline = perf_counter() + seconds
    while len(results) < min_samples or perf_counter() < deadline:
        results.append(body(len(results)))
    return results


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one timing series."""
    if len(values) >= 2:
        q1, _, q3 = quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def paired_pct(base: Callable[[], float], other: Callable[[], float],
               reps: int = 8, warmup: int = 1) -> float:
    """Percent by which ``other`` takes longer than ``base``.

    Both return seconds for the same work.  Pairs run back to back in
    alternating order so machine drift cancels; the first ``warmup``
    pairs are dropped and the median of the per-pair ratios is reported
    (the estimator ``perf_harness.paired_overhead_pct`` settled on).
    """
    ratios = []
    for rep in range(reps):
        if rep % 2:
            slow, fast = other(), base()
        else:
            fast, slow = base(), other()
        ratios.append(slow / fast)
    return (median(ratios[warmup:]) - 1.0) * 100.0


def per_call_us(body: Callable[[], object], calls: int,
                repeats: int = 5) -> float:
    """Median microseconds per call of ``body`` over ``repeats`` batches."""
    batches = []
    for _ in range(repeats):
        seconds, _ = timed(lambda: [body() for _ in range(calls)])
        batches.append(seconds / calls * 1e6)
    return median(batches)


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------
def refuse_tainted_env() -> None:
    """Exit with a clear message when a forbidden switch is set."""
    tainted = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if tainted:
        raise SystemExit(
            "benchmarks/suite refuses to run with " + ", ".join(tainted)
            + " set: recorded numbers are the default pure-Python path at "
              "fixed sizes. Unset and re-run.")


def child_env(cache_guard: Path) -> dict[str, str]:
    """Environment entries every child process of the suite needs.

    ``PYTHONPATH`` lets spawned pool workers and fleet agents import
    both ``repro`` and this package's module-level wrappers.
    ``REPRO_CACHE_DIR`` points the program's *default* cache at a
    guard path inside the run's temp dir; the suite always passes
    explicit caches, so the guard must still not exist afterwards.
    """
    return {
        "PYTHONPATH": os.pathsep.join((str(REPO_ROOT / "src"),
                                       str(REPO_ROOT))),
        "REPRO_CACHE_DIR": str(cache_guard),
    }


def environment_record() -> dict[str, object]:
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        load = os.getloadavg()
    except OSError:
        load = (0.0, 0.0, 0.0)
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": [round(value, 2) for value in load],
    }


def peak_rss_mb() -> float:
    """Peak resident set, the larger of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


class Scratch:
    """The run's temp root; every cache, journal and manifest goes here."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
        self.cache_guard = self.root / "default-cache-must-stay-unused"

    def mkdtemp(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.root))

    def close(self) -> list[str]:
        """Remove the temp root; returns what went wrong, if anything."""
        problems = []
        if self.cache_guard.exists():
            problems.append("the program's default cache dir was written "
                            f"({self.cache_guard})")
        shutil.rmtree(self.root, ignore_errors=True)
        if self.root.exists():
            problems.append(f"temp dir {self.root} outlived the run")
        return problems


def adopt_orphans() -> None:
    """Become the reaper of every descendant (Linux child subreaper).

    A worker whose own parent died would otherwise be handed to init and
    escape both the leak check and :func:`stop_children`.
    """
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still covered


def _resource_tracker():
    """``multiprocessing``'s resource tracker: started by the first
    spawn, and by design it runs until its parent's end of a pipe
    closes — that is, until a moment *after* this process has exited."""
    from multiprocessing import resource_tracker

    return resource_tracker._resource_tracker


def _live_children() -> list[tuple[int, str]]:
    """``(pid, description)`` of running (non-zombie) processes whose
    parent is this one, the resource tracker excepted."""
    tracker = getattr(_resource_tracker(), "_pid", None)
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == tracker:
            continue
        try:
            # "pid (comm) state ppid ..."; comm may contain spaces.
            fields = (entry / "stat").read_text().rpartition(")")[2].split()
            if int(fields[1]) != me or fields[0] == "Z":
                continue
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we looked
        found.append((int(entry.name),
                      f"child process {entry.name}: "
                      f"{command.decode(errors='replace').strip()[:120]}"))
    return found


def leaked_workers() -> list[str]:
    """Child processes and non-daemon threads still alive."""
    leaks = [description for _, description in _live_children()]
    leaks += [f"non-daemon thread {thread.name}"
              for thread in threading.enumerate()
              if thread is not threading.main_thread()
              and not thread.daemon and thread.is_alive()]
    return leaks


def stop_children() -> list[str]:
    """Stop every process this one started and wait until each has ended.

    The resource tracker is shut down the way ``multiprocessing`` itself
    does it (close the pipe, wait for the pid).  Anything else still
    running is a leak: it is killed, waited for, and returned by
    description so the run can report it.  Afterwards this process has
    no child left, running or zombie.
    """
    tracker = _resource_tracker()
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None
    leaks = []
    while True:
        # Killing a child hands its own children to us (see
        # ``adopt_orphans``), so look again until nobody is left.
        live = _live_children()
        if not live:
            break
        for pid, description in live:
            leaks.append(description)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid, _ in live:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
    return leaks


def ensure_program_present() -> None:
    """Fail fast (non-zero, nothing printed on stdout) without ``src/``."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"benchmarks/suite: no program to measure at {REPO_ROOT / 'src'}; "
            "run from a full checkout\n")
        raise SystemExit(2)
