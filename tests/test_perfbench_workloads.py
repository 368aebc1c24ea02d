"""Each benchmark workload in ``perfbench/workloads.py`` runs one pass at
seed 4242 through the package API it calls, passes its own checks and
gives its pinned output digest: an API change that would break the
benchmark, or move one of its outputs, fails here. Traced passes, as a
``--trace 1`` run makes them, must do the same with equal counts, so a
change to a name or return value that ``perfbench/tracing.py`` reads fails
here too."""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

SEED = 4242
DIGESTS = {
    "stream_short": "82f0e5a52b903755970ab58cb7f0709bdd8a45e9dca9fcaef373f0c0e81a7c9f",
    "stream_long": "d0ac6126d9d2c2f4ee1635e6437400d34a59c6a28aaf39c921154f3e3e06507a",
    "train_mdm": "d7e7711936abf540184d5c0b06aebb07ff5ec7651c0e7620d8a5be339905f564",
    "train_distill": "68be7664ea176b9304a519b33b76a0e09dd777275478460c2c8686b64efe89f7",
    "eval_sweep": "e00297c92f4a25b363234a865ca48c86f402e8f9181b8bfa30c057523503973e",
}


def set_up(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    assert sorted(workloads.WORKLOADS) == sorted(DIGESTS)
    wl = workloads.WORKLOADS[name]()
    wl.setup(SEED, str(tmp_path))
    return workloads, wl


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_one_pass_passes_its_checks_with_the_pinned_digest(name, monkeypatch, tmp_path):
    workloads, wl = set_up(name, monkeypatch, tmp_path)
    rec = workloads.Record()
    rec.begin_pass()
    digest = wl.run_pass(rec)
    oracle_mismatches, _ = wl.final_checks()
    assert rec.failed == 0, rec.problems
    assert oracle_mismatches == []
    assert digest == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_traced_passes_give_the_pinned_digest_and_equal_counts(name, monkeypatch, tmp_path):
    workloads, wl = set_up(name, monkeypatch, tmp_path)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    rec = workloads.Record()
    digests, snapshots = [], []
    with tracing.installed(tracer):
        for _ in range(2):
            tracer.reset_counts()
            rec.begin_pass()
            digests.append(wl.run_pass(rec, tracer))
            snapshots.append(tracer.snapshot_counts())
    oracle_mismatches, _ = wl.final_checks()
    assert rec.failed == 0, rec.problems
    assert oracle_mismatches == []
    assert digests == [DIGESTS[name]] * 2
    assert snapshots[0] == snapshots[1] and snapshots[0]["talker.forward_calls"] > 0
