"""The verdicts ``tools/ab_pairs.py`` gives a metric, on synthetic paired runs."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRIC = {"name": "op_ms_mean", "unit": "ms", "better": "lower", "bound": 0.25}
QUIET = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]  # quartiles 99.5-100.5
NOISY = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]  # quartiles 82.5-117.5


def summarize(base, change, better="lower"):
    runs = [{"base": {"metrics": {"op_ms_mean": b}}, "change": {"metrics": {"op_ms_mean": c}}}
            for b, c in zip(base, change)]
    return ab_pairs.summarize(runs, [{**METRIC, "better": better}])["op_ms_mean"]


@pytest.mark.parametrize("base, change, better, want", [
    (QUIET, [v * 0.9 for v in QUIET], "lower", "gain"),  # 10 of 10 won by 10 ms > 1 ms quartile distance
    (QUIET, [v * 1.1 for v in QUIET], "higher", "gain"),
    (QUIET, [v * 1.3 for v in QUIET], "lower", "regression"),
    (QUIET, [v * 0.7 for v in QUIET], "higher", "regression"),
    (NOISY, [v * 1.02 for v in NOISY], "lower", "unresolved"),  # quartile distance 35 > 0.25 * 100
    (NOISY, [v * 1.2 for v in NOISY], "lower", "unresolved"),
    (QUIET, [v * 1.02 for v in QUIET], "lower", "within_bound"),
    (QUIET, QUIET, "lower", "within_bound"),  # ties count for neither side
], ids=["gain", "gain-higher", "regression", "regression-higher", "unresolved", "unresolved-slower",
        "within", "ties"])
def test_verdicts(base, change, better, want):
    assert summarize(base, change, better)["verdict"] == want


def test_gain_needs_nine_tenths_of_the_pairs():
    change = [v * 0.9 for v in QUIET[:8]] + [v * 1.1 for v in QUIET[8:]]  # 8 of 10 won
    got = summarize(QUIET, change)
    assert got["change_wins"] == 8 and got["verdict"] == "within_bound"


def test_gain_needs_more_than_the_base_quartile_distance():
    change = [v - 0.5 for v in QUIET]  # every pair won, by half the 1 ms quartile distance
    got = summarize(QUIET, change)
    assert got["change_wins"] == 10 and got["verdict"] == "within_bound"


def test_noisy_base_within_bound_when_every_change_run_beats_every_base_run():
    base = [80.0, 200.0, 90.0, 190.0, 100.0, 180.0, 110.0, 170.0, 120.0, 160.0]  # median 140, quartiles 102.5-177.5
    got = summarize(base, [79.0] * 10)  # below every base run, but better by 61 < 75 ms: no gain
    assert got["change_wins"] == 10 and got["verdict"] == "within_bound"
    assert summarize(base, [81.0] * 10)["verdict"] == "unresolved"  # the base's 80 ms run beats it
