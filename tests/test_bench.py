import json
import math
from collections import Counter

import numpy as np
import pytest
from plain_ops import param_digest

from blockmdm import bench, cli, decode, nd, talker
from blockmdm.errors import ParameterError
from blockmdm.synthtask import TaskSpec, gen_dataset, write_corpus
from blockmdm.talker import TalkerConfig, init_params, save_checkpoint

CFG = TalkerConfig(data_tokens=12, src_vocab=6, d=16, d_ff=32, n_layers=2, n_heads=2,
                   B=4, Q=2, T_max=64)


@pytest.fixture(scope="module")
def model():
    return init_params(CFG, nd.make_rng(0))


SPEC = TaskSpec(source_vocab=CFG.src_vocab, data_tokens=CFG.data_tokens, upsample=2, grammar_seed=3)


@pytest.fixture(scope="module")
def pairs():
    return gen_dataset(SPEC, 12, (2, 5), nd.make_rng(1), eos_id=CFG.vocab.eos_id)


@pytest.fixture(scope="module")
def eval_path(pairs, tmp_path_factory):
    """The ``pairs`` fixture as an eval corpus file, the one input of a sweep."""
    path = tmp_path_factory.mktemp("eval") / "eval.corpus"
    write_corpus(path, SPEC, pairs)
    return str(path)


class TestDecodeEval:
    def test_metrics_accounting(self, model, pairs):
        m = bench.decode_eval(model, CFG, pairs, K=2, max_blocks=4)
        assert m.tokens > 0 and m.wall_time > 0
        assert m.tps == pytest.approx(m.tokens / m.wall_time)
        assert m.rtf_analog == pytest.approx(m.wall_time / (m.tokens * 0.04))
        assert m.forwards_per_block == 2.0
        assert len(m.mean_confidence_per_step) == 2
        assert len(m.mean_entropy_per_step) == 2
        assert all(0.0 < h <= math.log(CFG.V) for h in m.mean_entropy_per_step)

    def test_error_rate_zero_for_echo_model(self, model, pairs):
        # a model is not needed: feed references as hypotheses through the
        # metric directly to pin the zero point of err_rate aggregation
        from blockmdm.synthtask import strip_eos, token_error_rate
        errs = [token_error_rate(strip_eos(p.target, CFG.vocab.eos_id),
                                 strip_eos(p.target, CFG.vocab.eos_id)).rate for p in pairs]
        assert float(np.mean(errs)) == 0.0


class TestUncertaintyProfile:
    def test_uniform_logit_model_analytic(self, model, pairs):
        uniform = model.copy()
        uniform["head"].data[:] = 0.0
        m = bench.decode_eval(uniform, CFG, pairs, K=2, max_blocks=4)
        assert m.mean_confidence_per_step[0] == pytest.approx(1.0 / CFG.V, abs=1e-12)
        assert m.mean_entropy_per_step[0] == pytest.approx(math.log(CFG.V), abs=1e-12)

    def test_saturated_model_confident(self, model, pairs):
        # zero the whole network so the pre-head features are exactly ones
        # (fusion bias), then point one head column at token 5
        sat = model.copy()
        for p in sat.values():
            p.data[:] = 0.0
        sat["fusion.b2"].data[:] = 1.0
        sat["head"].data[:, 5] = 5.0  # logit 80 for token 5, 0 elsewhere
        m = bench.decode_eval(sat, CFG, pairs, K=2, max_blocks=4)
        assert m.mean_confidence_per_step[0] > 0.9999
        assert m.mean_entropy_per_step[0] < 1e-6

    def test_k_validation(self, model, pairs):
        with pytest.raises(ParameterError):
            bench.decode_eval(model, CFG, pairs, K=0)


def evals_at(model, pairs, Ks, max_blocks=4):
    """decode_eval results over ``pairs``, one per K."""
    return [bench.decode_eval(model, CFG, pairs, K, max_blocks=max_blocks) for K in Ks]


class TestFirstChunkBreakdown:
    def test_stage_fields_and_forward_count(self, model, pairs):
        reps = bench.first_chunk_breakdown(CFG, [p.source for p in pairs],
                                           evals_at(model, pairs, [3]), max_blocks=4)
        assert list(reps) == [3]
        rep = reps[3]
        for stage in ("semantics", "talker", "post"):
            assert rep[f"{stage}_mean"] >= 0.0
            assert rep[f"{stage}_median"] >= 0.0
            assert f"{stage}_median" in bench.TIMING_FIELDS
        assert rep["forwards_first_block"] == 3.0
        assert rep["total_mean"] == pytest.approx(
            rep["semantics_mean"] + rep["talker_mean"] + rep["post_mean"])

    def test_talker_stage_is_the_eval_first_blocks(self, model, pairs):
        # the talker figures are those of the eval decodes' first blocks,
        # pooled over every result of a K, exactly
        evals = evals_at(model, pairs, [2, 1, 2])
        reps = bench.first_chunk_breakdown(CFG, [p.source for p in pairs], evals, max_blocks=4)
        for K in (1, 2):
            times = [btrace.wall_time for m in evals if m.K == K for _, btrace in m.first_blocks]
            assert len(times) == len(pairs) * (2 if K == 2 else 1)
            assert reps[K]["talker_median"] == float(np.median(times))
            assert reps[K]["talker_mean"] == float(np.mean(times))

    def test_runs_no_forward_and_checks_source_count(self, model, pairs, monkeypatch):
        evals = evals_at(model, pairs, [2])

        def no_forward(*args, **kwargs):
            raise AssertionError("first_chunk_breakdown ran a model forward")

        monkeypatch.setattr(talker, "forward", no_forward)
        bench.first_chunk_breakdown(CFG, [p.source for p in pairs], evals, max_blocks=4)
        with pytest.raises(ParameterError):
            bench.first_chunk_breakdown(CFG, [p.source for p in pairs[:-1]], evals, max_blocks=4)

    def test_talker_stage_scales_with_k(self, model, pairs):
        pairs = pairs * 3
        reps = bench.first_chunk_breakdown(CFG, [p.source for p in pairs],
                                           evals_at(model, pairs, [1, 8]), max_blocks=4)
        lo, hi = reps[1], reps[8]
        assert hi["talker_mean"] > 3.0 * lo["talker_mean"]

    def test_non_talker_stages_stable_across_k(self, model, pairs):
        # conditioning build and post-processing do not depend on K; their
        # medians (over enough repetitions to tame microsecond jitter) agree
        # within 10% between K=1 and K=8
        pairs = pairs * 25  # 300 measurements
        reps = bench.first_chunk_breakdown(CFG, [p.source for p in pairs],
                                           evals_at(model, pairs, [1, 8]), max_blocks=4)
        lo, hi = reps[1], reps[8]
        for stage in ("semantics", "post"):
            a, b = lo[f"{stage}_median"], hi[f"{stage}_median"]
            assert abs(a - b) / max(a, b) < 0.10, (stage, a, b)


class TestSweep:
    def test_sweep_rows_and_compatibility(self, model, eval_path, tmp_path):
        path_a = tmp_path / "a.ckpt"
        save_checkpoint(path_a, CFG, model)
        ecfg = bench.ExperimentConfig(checkpoints={"base": str(path_a)}, steps=[2, 1],
                                      eval_path=eval_path, repetitions=1, max_blocks=4)
        report = bench.bench_sweep(ecfg)
        assert [r["K"] for r in report["rows"]] == [2, 1]
        for row in report["rows"]:
            assert row["forwards_per_block"] == row["K"]
            assert set(bench.CSV_COLUMNS) <= set(row) | {"checkpoint", "K"}

    def test_one_decode_pass_per_cell(self, model, pairs, eval_path, tmp_path, monkeypatch):
        # each (checkpoint, K) cell decodes the eval set once per repetition
        # after its warm-up, and its uncertainty columns are what
        # uncertainty_profile reads from fresh decodes of the same sources
        other = init_params(CFG, nd.make_rng(5))
        models = {"a": model, "b": other}
        paths = {label: tmp_path / f"{label}.ckpt" for label in models}
        for label, params in models.items():
            save_checkpoint(paths[label], CFG, params)
        label_of = {param_digest(params): label for label, params in models.items()}
        calls = Counter()
        forwards = Counter()
        real_decode_source, real_forward = decode.decode_source, talker.forward

        def counting_decode(source, params, tcfg, dcfg):
            calls[label_of[param_digest(params)], dcfg.K] += 1
            result = real_decode_source(source, params, tcfg, dcfg)
            forwards["decodes"] += result.trace.total_forwards
            return result

        def counting_forward(*args, **kwargs):
            forwards["all"] += 1
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(decode, "decode_source", counting_decode)
        monkeypatch.setattr(talker, "forward", counting_forward)
        ecfg = bench.ExperimentConfig(checkpoints={k: str(v) for k, v in paths.items()},
                                      steps=[2, 1], eval_path=eval_path, repetitions=2, max_blocks=4)
        report = bench.bench_sweep(ecfg)
        per_cell = ecfg.repetitions * (len(pairs) + bench.WARMUP)
        assert calls == {(label, K): per_cell for label in models for K in ecfg.steps}
        # the first-chunk timing reads its talker stage from those decodes:
        # the sweep runs no model forward besides them
        assert forwards["decodes"] > 0
        assert forwards["all"] == forwards["decodes"]
        monkeypatch.undo()
        for row in report["rows"]:
            dcfg = decode.DecodeConfig(B=CFG.B, K=row["K"], max_blocks=4, eos_id=CFG.vocab.eos_id)
            traces = [decode.decode_source(p.source, models[row["checkpoint"]], CFG, dcfg).trace
                      for p in pairs]
            conf, entropy = bench.uncertainty_profile(traces, row["K"])
            assert row["mean_confidence_per_step"] == conf
            assert row["mean_entropy_per_step"] == entropy

    def test_incompatible_checkpoints_rejected(self, model, eval_path, tmp_path):
        other_cfg = TalkerConfig(data_tokens=12, src_vocab=6, d=32, d_ff=32, n_layers=2,
                                 n_heads=2, B=4, Q=2, T_max=64)
        path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(path_a, CFG, model)
        save_checkpoint(path_b, other_cfg, init_params(other_cfg, nd.make_rng(1)))
        ecfg = bench.ExperimentConfig(checkpoints={"a": str(path_a), "b": str(path_b)},
                                      steps=[1], eval_path=eval_path, max_blocks=4)
        from blockmdm.errors import CheckpointError
        with pytest.raises(CheckpointError, match="d: expected 16, got 32"):
            bench.bench_sweep(ecfg)

    def test_step_list_validation(self):
        with pytest.raises(ParameterError):
            bench.ExperimentConfig(checkpoints={}, steps=[])
        with pytest.raises(ParameterError):
            bench.ExperimentConfig(checkpoints={}, steps=[4, 0])
        with pytest.raises(ParameterError, match="step count 4 is given twice"):
            bench.ExperimentConfig(checkpoints={"base": "a.ckpt"}, steps=[4, 1, 4])
        with pytest.raises(ParameterError, match="at least one checkpoint"):
            bench.ExperimentConfig(checkpoints={}, steps=[4])
        with pytest.raises(ParameterError, match=r"a sweep needs an eval corpus \(--eval\)"):
            bench.ExperimentConfig(checkpoints={"base": "a.ckpt"}, steps=[4])

    def test_repetition_means_consistent(self, model, eval_path, tmp_path):
        # throughput means from 1 repetition and 5 repetitions agree within a
        # generous wall-clock tolerance; deterministic fields are identical
        path_a = tmp_path / "a.ckpt"
        save_checkpoint(path_a, CFG, model)
        base = dict(checkpoints={"base": str(path_a)}, steps=[2], eval_path=eval_path, max_blocks=4)
        r1 = bench.bench_sweep(bench.ExperimentConfig(repetitions=1, **base))
        r5 = bench.bench_sweep(bench.ExperimentConfig(repetitions=5, **base))
        row1, row5 = r1["rows"][0], r5["rows"][0]
        assert row1["err_rate"] == row5["err_rate"]
        spread = max(4.0 * row5["tps_std"], 0.5 * row5["tps"])
        assert abs(row1["tps"] - row5["tps"]) <= spread


class TestReportSerialization:
    def test_timing_fields_marked_nondeterministic(self):
        report = {"rows": [{"tps": 12.5, "err_rate": 0.25}], "seed": 0}
        data = json.loads(bench.report_to_json(report))
        assert data["rows"][0]["tps"] == {"value": 12.5, "nondeterministic": True}
        assert data["rows"][0]["err_rate"] == 0.25

    def test_strip_timing_removes_only_wall_clock(self):
        report = {"rows": [{"tps": 12.5, "err_rate": 0.25, "latency_stage_talker": 0.1}]}
        stripped = bench.strip_timing(report)
        assert stripped == {"rows": [{"err_rate": 0.25}]}

    def test_deterministic_fields_reproducible(self, model, eval_path, tmp_path):
        path_a = tmp_path / "a.ckpt"
        save_checkpoint(path_a, CFG, model)
        ecfg = bench.ExperimentConfig(checkpoints={"base": str(path_a)}, steps=[2],
                                      eval_path=eval_path, repetitions=1, max_blocks=4)
        r1 = bench.strip_timing(bench.bench_sweep(ecfg))
        r2 = bench.strip_timing(bench.bench_sweep(ecfg))
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_csv_schema(self, model, eval_path, tmp_path):
        path_a = tmp_path / "a.ckpt"
        save_checkpoint(path_a, CFG, model)
        out = tmp_path / "sweep.csv"
        assert cli.main(["bench", "--checkpoint", f"base={path_a}", "--eval", eval_path, "--steps", "1",
                         "--max-blocks", "4", "--out-csv", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(bench.CSV_COLUMNS)
