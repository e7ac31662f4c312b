"""The stdout of ``repro run <id> --fast`` for each registered
experiment, pinned as a SHA-256 recorded before the experiments moved
onto the sweep runner.

``repro run`` prints ``report.format()`` and a newline, so the digests
are taken over one sweep of every experiment on two workers (cold
cache), and the same sweep is then replayed from the cache alone.  CI
diffs ``EXPERIMENTS.md`` (full durations) byte for byte and ``repro
parity --check`` pins eleven full-length runs; neither sees a fast
config, so a change confined to one fails only ``test_fast_stdout``.
``test_run_flags_reach_the_sweep`` is the one ``repro run`` here, for
the verb's wiring and its print.  That a serial sweep measures what a
pooled one does is ``tests/parallel/test_start_method.py``'s check,
so no experiment runs serially in this module.
"""

import hashlib

import pytest

from repro.cli import main
from repro.experiments.registry import run_all
from repro.parallel import ResultCache

#: SHA-256 of ``repro run <id> --fast`` stdout, in paper order.
FAST_STDOUT = {
    "fig2": "50d9a0353a4c98861aae9e7216f4d2de07c385df10724dd8638dc9c835b2c226",
    "fig2_small_pipe": "b4dc8277fa1a5c5dc24e99404420550c39518f2198b07dccee099836b358c37a",
    "fig3": "042040e9a73af8a205fc2d9584fe5b049e8c0498703dedf6a9e1003cb3e35074",
    "fig3_buf60": "f9510decb07520df82bef214710c9ea6359fd7311e61016c7874b3f79dc3c228",
    "fig4_5": "9a2ee89b1bcd46907e3a958bb4108c4a96a41a9e38ad6e6462a57fb0ad556f25",
    "fig6_7": "319c305cefdebb9538204c981af63fda6a6d3cfcbfe9542ebbfcc72548c43dae",
    "fig8": "21c81cad5adf7634db39bd90a97f3bf0f0182f3f6bcc165f731230cdeeeeb729",
    "fig9": "badea2e623b12f4cf7a58cfede0d475978b0ede59256d88edd15a29602c980ba",
    "ack_compression": "ee9b1b01e09a41cfe75c070d1a146dfa20e499f7c6e73815bbe3a44970457308",
    "conjecture": "74472d123626c84270c050c7ec9b5332f7d5cfba924feb27ccb27b89e72788c9",
    "buffer_sweep": "b3898eb99eddee473f18df39507387b302b256fc83467f55bac0f0d5acceac41",
    "delayed_ack": "a2137d165bc078a139cf3bed3f7cae7192b7f7062d5e233fb8719ddf390d4282",
    "four_switch": "3cbbb144828907b1aa15e46433b603bae59dbe005f283121f870a2b1213000c2",
    "clustering": "d0f8d561a71f260bb75f4d18160ed0d58052483bc5cfebcb1b00e664443c1742",
    "effective_pipe": "e9bbe91af0d9fb1437268fab463fa3d8871ecfadbdcf1a82e70941dc612b3c62",
    "pacing": "713c40eb90fabdd401eeca7703d55ebac3b34d4ec7e14440f3a196f737e2c4ce",
    "unequal_rtt": "3f723c1d2f1622024464c94ba4d3eef9f2b05fa8ad39877f2bbbed0d705525e1",
    "four_switch_fifty": "0278b7cc9e9e184daf03410033fdc24a8ca0a1b8b4d09fa60d95417efc31ebec",
    "aimd_conjecture": "2c0d42e3d98d20cfa0c367e46e54193c9be6634418540abbe49798dacb02af89",
    "idle_scaling": "7bf924b77ab3a19c7397ba1262a6bb888c7057367ac5911e568634bb6c01092d",
    "capacity": "ba0ba90efc1a471fb177f72b61a58696be0d6fce4e2f09d04b5952b237fb9a96",
    "droptail_sync": "f9be3b72387fe080fdcf8ab00eaca137bf71b403da54c262d3c84de3fb6f0841",
    "red_meanfield": "97a1642b322699a21ddda9a654ed8b73c6392ac64bbc4b812acf04153a3792de",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def pooled_and_cached(tmp_path_factory):
    """Every experiment's ``repro run`` stdout digest from one sweep over
    two workers (cold cache), then from the cache alone (warm), with the
    warm pass's new misses."""
    cache = ResultCache(tmp_path_factory.mktemp("cache"))

    def digests(reports):
        return {report.exp_id: _digest(report.format() + "\n")
                for report in reports}

    cold = digests(run_all(fast=True, jobs=2, cache=cache))
    misses = cache.misses
    warm = digests(run_all(fast=True, cache=cache))
    return cold, warm, cache.misses - misses


@pytest.mark.parametrize("exp_id", FAST_STDOUT)
def test_fast_stdout(exp_id, pooled_and_cached):
    """The one check on an experiment's fast configs: ``fig9``'s fast
    duration moved from 300 s to 310 s fails ``[fig9]`` alone."""
    cold, _, _ = pooled_and_cached
    assert cold[exp_id] == FAST_STDOUT[exp_id]


@pytest.mark.parametrize("exp_id", FAST_STDOUT)
def test_fast_stdout_across_workers_and_cache(exp_id, pooled_and_cached):
    """The cache alone prints what the two workers printed: a
    measurement the cache's JSON does not give back as it was (a dict
    with int keys comes back with str keys) fails here alone."""
    cold, warm, warm_misses = pooled_and_cached
    assert warm[exp_id] == cold[exp_id]
    assert warm_misses == 0


def test_run_flags_reach_the_sweep(tmp_path, capsys):
    """``repro run --jobs --cache-dir`` wires into the same sweep and
    prints the report: a ``repro run`` that ignores ``--cache-dir`` fails
    here alone."""
    cache = ["--cache-dir", str(tmp_path)]
    assert main(["run", "fig2", "--fast", "--jobs", "2", *cache]) == 0
    assert _digest(capsys.readouterr().out) == FAST_STDOUT["fig2"]
    assert main(["run", "fig2", "--fast", *cache]) == 0
    captured = capsys.readouterr()
    assert _digest(captured.out) == FAST_STDOUT["fig2"]
    assert captured.err.endswith(" 0 misses\n")


def test_every_experiment_is_pinned(capsys):
    """``repro list`` names every experiment, in paper order, and each
    has a digest: a ``repro list`` that sorts its ids fails here alone."""
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(FAST_STDOUT)
