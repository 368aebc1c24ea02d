"""Acceptance suite: one test per criterion, with a PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines. The training-based criteria share module-scoped fixtures
(one stage-one run plus three distillation variants) and together take
about 15-25 CPU-minutes; everything else is fast.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from plain_ops import greedy_ar_oracle, param_digest

from blockmdm import bench, decode, masking, nd, talker
from blockmdm.decode import DecodeConfig, schedule_step
from blockmdm.masking import MaskingConfig, partition
from blockmdm.synthtask import TaskSpec, gen_dataset, strip_eos, token_error_rate
from blockmdm.training import DistillConfig, OptimizerConfig, train_distill, train_mdm

pytestmark = pytest.mark.acceptance

# ---------------------------------------------------------------------------
# shared desk-scale recipe (criteria 6-11)
# ---------------------------------------------------------------------------

MODEL_CFG = talker.TalkerConfig(data_tokens=64, src_vocab=256, d=64, d_ff=256,
                                n_layers=4, n_heads=4, B=16, Q=4, T_max=256)
TASK = TaskSpec(source_vocab=256, data_tokens=64, upsample=4, grammar_seed=0, noise_rho=0.0)
TRAIN_COUNT, EVAL_COUNT = 3000, 500
N_RANGE = (4, 12)
DATA_SEED = 42
# stage one stops mid-descent (~1.5% token error) so the distillation
# comparisons in criteria 7-10 operate above the error floor; stage two is
# short and at a lower rate (fresh Adam moments at 1e-3 destabilize a
# converged checkpoint)
STAGE2_STEPS, STAGE2_SEED = 3000, 0
STAGE3_STEPS, STAGE3_SEED = 300, 1
STAGE2_OPT = OptimizerConfig(lr=1e-3, batch_size=8)
STAGE3_OPT = OptimizerConfig(lr=3e-4, batch_size=8)
GLOBAL_MASKING = MaskingConfig(mode="global_bernoulli", gamma_g=(0.3, 0.8))
HIER_MASKING = MaskingConfig(mode="hierarchical", gamma_c=(0.5, 1.0), gamma_t=(0.3, 1.0))
# the benchmark's stage-one checkpoint, trained by perfbench/make_fixture.py
# with the stage-one recipe above
BENCH_FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "fixture", "stage1.ckpt")


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def datasets():
    rng = nd.make_rng(DATA_SEED)
    train = gen_dataset(TASK, TRAIN_COUNT, N_RANGE, rng, eos_id=MODEL_CFG.vocab.eos_id)
    eval_ = gen_dataset(TASK, EVAL_COUNT, N_RANGE, rng, eos_id=MODEL_CFG.vocab.eos_id)
    return train, eval_


@pytest.fixture(scope="module")
def stage2(datasets):
    train, _ = datasets
    t0 = time.process_time()
    result = train_mdm(MODEL_CFG, train, GLOBAL_MASKING, STAGE2_OPT,
                       steps=STAGE2_STEPS, seed=STAGE2_SEED)
    return result.params, time.process_time() - t0


@pytest.fixture(scope="module")
def distilled_hier_rev(stage2, datasets):
    train, _ = datasets
    return train_distill(MODEL_CFG, stage2[0], train,
                         DistillConfig(K=4, tau=2.0, alpha=0.7, kl_direction="reverse"),
                         HIER_MASKING, STAGE3_OPT, steps=STAGE3_STEPS, seed=STAGE3_SEED).params


@pytest.fixture(scope="module")
def distilled_glob_rev(stage2, datasets):
    train, _ = datasets
    return train_distill(MODEL_CFG, stage2[0], train,
                         DistillConfig(K=4, tau=2.0, alpha=0.7, kl_direction="reverse"),
                         GLOBAL_MASKING, STAGE3_OPT, steps=STAGE3_STEPS, seed=STAGE3_SEED).params


@pytest.fixture(scope="module")
def distilled_hier_fwd(stage2, datasets):
    train, _ = datasets
    return train_distill(MODEL_CFG, stage2[0], train,
                         DistillConfig(K=4, tau=2.0, alpha=0.7, kl_direction="forward"),
                         HIER_MASKING, STAGE3_OPT, steps=STAGE3_STEPS, seed=STAGE3_SEED).params


@pytest.fixture(scope="module")
def hier_rev_step1_error(distilled_hier_rev, datasets):
    """Step-1 (K=1) eval token error of the hierarchical reverse-KL model,
    which criteria 7, 8 and 9 each compare: decoded once, not three times."""
    _, eval_ = datasets
    return decode_error(distilled_hier_rev, eval_, K=1)[0]


def decode_error(params, pairs, K, max_blocks=4):
    dcfg = DecodeConfig(B=MODEL_CFG.B, K=K, max_blocks=max_blocks,
                        eos_id=MODEL_CFG.vocab.eos_id)
    errs = []
    outputs = []
    for p in pairs:
        r = decode.decode_source(p.source, params, MODEL_CFG, dcfg)
        outputs.append(r.tokens.copy())
        errs.append(token_error_rate(strip_eos(r.tokens, MODEL_CFG.vocab.eos_id),
                                     strip_eos(p.target, MODEL_CFG.vocab.eos_id)).rate)
    return float(np.mean(errs)), outputs


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity on the full talker
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_integrity():
    cfg = talker.TalkerConfig(data_tokens=16, src_vocab=8, d=16, d_ff=32, n_layers=2,
                              n_heads=2, B=8, Q=2, T_max=64)
    rng = nd.make_rng(0)
    params = talker.init_params(cfg, rng)
    T = 32
    tokens = rng.integers(0, cfg.V, T)
    source = rng.integers(0, cfg.src_vocab, 6)
    targets = rng.integers(0, cfg.vocab.data_tokens, T)
    mask = np.sort(rng.choice(T, 10, replace=False))

    aligned = talker.align_for_canvas(params, cfg, source, T)

    def loss_fn():
        rows = nd.take_rows(talker.forward(params, cfg, tokens, aligned), mask)
        return nd.scale(nd.cross_entropy_rows(rows, targets[mask]), 1.0 / len(mask))

    t0 = time.perf_counter()
    rep = nd.grad_check(loss_fn, params, epsilon=1e-6,
                        max_coords_per_param=10, rng=nd.make_rng(1))
    elapsed = time.perf_counter() - t0
    report(1, rep.max_rel_err < 1e-5 and elapsed < 60.0,
           f"max rel err {rep.max_rel_err:.2e} (< 1e-5) over {rep.n_checked} coords "
           f"in {elapsed:.1f}s (< 60s), {rep.n_skipped_nonsmooth} kink skips")


# ---------------------------------------------------------------------------
# criterion 2: scheduler oracle, exhaustive
# ---------------------------------------------------------------------------

def test_criterion_2_scheduler_exhaustive():
    t0 = time.perf_counter()
    failures = 0
    for K in range(1, 33):
        for R in range(0, 1025):
            remaining = R
            revealed = 0
            for j in range(1, K + 1):
                n = schedule_step(remaining, j, K)
                if (n == 0) != (remaining == 0):
                    failures += 1
                revealed += n
                remaining -= n
            if revealed != R or remaining != 0:
                failures += 1
    elapsed = time.perf_counter() - t0
    report(2, failures == 0 and elapsed < 10.0,
           f"0 failures over R in [0,1024] x K in [1,32]; {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 3: masking statistics vs the Monte Carlo oracle
# ---------------------------------------------------------------------------

def test_criterion_3_masking_statistics():
    part = partition(256, 16)
    cfg = MaskingConfig(mode="hierarchical", gamma_c=(0.5, 1.0), gamma_t=(0.3, 1.0))
    stats = masking.mask_stats(part, cfg, nd.make_rng(5), samples=10_000)

    # independent oracle: Monte Carlo of the sampling algorithm's counting
    # arithmetic (block count and per-block count with their floors)
    orng = nd.make_rng(1234)
    gc = orng.uniform(0.5, 1.0, 50_000)
    gt = orng.uniform(0.3, 1.0, 50_000)
    oracle = float((np.floor(gc * 16) * np.maximum(1, np.floor(gt * 16)) / 256.0).mean())
    # frozen from the oracle (exact closed form 0.44441); the floor-free
    # product approximation 0.4875 is reported alongside for reference
    assert abs(oracle - 0.4444) < 0.005

    emp = stats["empirical_mean_fraction"]
    ok_mean = abs(emp - oracle) < 0.02
    ok_bound = stats["quantization_bound_violations"] == 0

    gstats = masking.mask_stats(part, MaskingConfig(mode="global_bernoulli", gamma_g=(0.5, 0.5)),
                                nd.make_rng(6), samples=10_000, hoeffding_delta=0.2)
    bound = 2 * 16 * math.exp(-2 * 16 * 0.04)
    ok_hoeffding = gstats["hoeffding_tail_frequency"] <= bound

    report(3, ok_mean and ok_bound and ok_hoeffding,
           f"mean fraction {emp:.4f} vs oracle {oracle:.4f} (+-0.02; floor-free formula "
           f"{stats['analytic_fraction_no_floor']:.4f} reported for reference); "
           f"quantization violations {stats['quantization_bound_violations']}; "
           f"Hoeffding tail {gstats['hoeffding_tail_frequency']:.4f} <= bound {bound:.2f}")


# ---------------------------------------------------------------------------
# criterion 4: block-causality, 1000 randomized perturbations
# ---------------------------------------------------------------------------

def test_criterion_4_block_causality():
    cfg = talker.TalkerConfig(data_tokens=16, src_vocab=8, d=32, d_ff=64, n_layers=2,
                              n_heads=4, B=8, Q=2, T_max=64)
    failures = 0
    rng = nd.make_rng(7)
    for trial in range(1000):
        if trial % 100 == 0:
            params = talker.init_params(cfg, nd.make_rng(1000 + trial))
            T = int(rng.integers(2, 9)) * cfg.B
            source = rng.integers(0, cfg.src_vocab, 8)
            with nd.no_grad():
                aligned = talker.align_for_canvas(params, cfg, source, T)
            tokens = rng.integers(0, cfg.V, T)
            base = talker.forward_array(params, cfg, tokens, aligned)
        k = int(rng.integers(0, T // cfg.B - 1))  # keep blocks <= k
        lo = (k + 1) * cfg.B
        perturbed = tokens.copy()
        n_changes = int(rng.integers(1, T - lo + 1))
        where = lo + rng.choice(T - lo, size=n_changes, replace=False)
        perturbed[where] = rng.integers(0, cfg.V, n_changes)
        out = talker.forward_array(params, cfg, perturbed, aligned)
        if not np.array_equal(out[:lo], base[:lo]):
            failures += 1
    report(4, failures == 0, f"0/1000 perturbation tests broke bit-identical prefix logits")


# ---------------------------------------------------------------------------
# criterion 5: AR reduction (B=1, K=1 equals greedy AR decoding)
# ---------------------------------------------------------------------------

def run_ar_reduction():
    cfg = talker.TalkerConfig(data_tokens=16, src_vocab=8, d=16, d_ff=32, n_layers=2,
                              n_heads=2, B=1, Q=1, T_max=64)
    sequences = []
    matches = 0
    for seed in range(100):
        rng = nd.make_rng(seed)
        params = talker.init_params(cfg, rng)
        source = rng.integers(0, cfg.src_vocab, 4)
        with nd.no_grad():
            aligned = talker.align_for_canvas(params, cfg, source, 24)
        dcfg = DecodeConfig(B=1, K=1, max_blocks=24, eos_id=cfg.vocab.eos_id)
        blockwise = decode.decode(aligned, params, cfg, dcfg)
        ar = greedy_ar_oracle(params, cfg, aligned, 24, cfg.vocab.eos_id)
        sequences.append(blockwise.tokens.copy())
        if np.array_equal(blockwise.tokens, ar):
            matches += 1
    return matches, sequences


def test_criterion_5_ar_reduction():
    matches, _ = run_ar_reduction()
    report(5, matches == 100, f"{matches}/100 seeded inputs identical to greedy AR oracle")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end learnability of the clean task
# ---------------------------------------------------------------------------

def test_criterion_6_learnability(stage2, datasets):
    params, cpu_seconds = stage2
    _, eval_ = datasets
    err, _ = decode_error(params, eval_, K=16)
    report(6, err < 0.05 and cpu_seconds < 1800.0,
           f"stage-one token error {err:.4f} (< 0.05) at K=16; "
           f"training took {cpu_seconds / 60:.1f} CPU-minutes (< 30)")


# ---------------------------------------------------------------------------
# criterion 7: distillation effect at step 1
# ---------------------------------------------------------------------------

def test_criterion_7_distillation_effect(stage2, distilled_hier_rev, hier_rev_step1_error, datasets):
    _, eval_ = datasets
    base_err, _ = decode_error(stage2[0], eval_, K=1)
    dist_err1 = hier_rev_step1_error
    dist_err4, _ = decode_error(distilled_hier_rev, eval_, K=4)
    rel_drop = (base_err - dist_err1) / max(base_err, 1e-12)
    ratio = dist_err1 / max(dist_err4, 1e-12) if dist_err4 > 0 else (1.0 if dist_err1 == 0 else math.inf)
    report(7, rel_drop >= 0.30 and ratio <= 1.5,
           f"step-1 error {base_err:.4f} -> {dist_err1:.4f} ({rel_drop:.1%} relative drop, "
           f">= 30%); step-1/step-4 ratio {ratio:.2f} (<= 1.5, step-4 {dist_err4:.4f})")


# ---------------------------------------------------------------------------
# criterion 8: masking-strategy ablation direction
# ---------------------------------------------------------------------------

def test_criterion_8_masking_ablation(hier_rev_step1_error, distilled_glob_rev, datasets):
    _, eval_ = datasets
    hier_err = hier_rev_step1_error
    glob_err, _ = decode_error(distilled_glob_rev, eval_, K=1)
    report(8, hier_err < glob_err,
           f"step-1 error hierarchical {hier_err:.4f} < global {glob_err:.4f} "
           f"(same seed {STAGE3_SEED}, same {STAGE3_STEPS} steps)")


# ---------------------------------------------------------------------------
# criterion 9: KL-direction ablation
# ---------------------------------------------------------------------------

def test_criterion_9_kl_direction(hier_rev_step1_error, distilled_hier_fwd, datasets):
    _, eval_ = datasets
    rev_err = hier_rev_step1_error
    fwd_err, _ = decode_error(distilled_hier_fwd, eval_, K=1)
    configs = {
        "reverse": {"K": 4, "tau": 2.0, "alpha": 0.7, "kl_direction": "reverse",
                    "seed": STAGE3_SEED, "steps": STAGE3_STEPS, "err_step1": rev_err},
        "forward": {"K": 4, "tau": 2.0, "alpha": 0.7, "kl_direction": "forward",
                    "seed": STAGE3_SEED, "steps": STAGE3_STEPS, "err_step1": fwd_err},
    }
    print("[criterion 9 report] " + json.dumps(configs, sort_keys=True), flush=True)
    report(9, rev_err <= fwd_err,
           f"step-1 error reverse {rev_err:.4f} <= forward {fwd_err:.4f} at seed {STAGE3_SEED}")


# ---------------------------------------------------------------------------
# criterion 10: uncertainty reduction at step 1
# ---------------------------------------------------------------------------

def test_criterion_10_uncertainty(stage2, distilled_hier_rev, datasets):
    _, eval_ = datasets
    pairs = eval_[:200]  # >= 200 eval samples
    base = bench.decode_eval(stage2[0], MODEL_CFG, pairs, K=4, max_blocks=4)
    dist = bench.decode_eval(distilled_hier_rev, MODEL_CFG, pairs, K=4, max_blocks=4)
    conf_up = dist.mean_confidence_per_step[0] > base.mean_confidence_per_step[0]
    ent_down = dist.mean_entropy_per_step[0] < base.mean_entropy_per_step[0]
    report(10, conf_up and ent_down,
           f"step-1 confidence {base.mean_confidence_per_step[0]:.4f} -> "
           f"{dist.mean_confidence_per_step[0]:.4f} (up); entropy "
           f"{base.mean_entropy_per_step[0]:.4f} -> {dist.mean_entropy_per_step[0]:.4f} "
           f"(down) over {len(pairs)} samples")


# ---------------------------------------------------------------------------
# criterion 11: efficiency trend across step counts
# ---------------------------------------------------------------------------

def test_criterion_11_efficiency_trend(stage2, datasets):
    params, _ = stage2
    _, eval_ = datasets
    pairs = eval_[:60]
    sources = [p.source for p in pairs]
    evals = {K: bench.decode_eval(params, MODEL_CFG, pairs, K=K, max_blocks=4)
             for K in (16, 8, 4, 2, 1)}
    tps = {K: m.tps for K, m in evals.items()}
    forwards_ok = all(m.forwards_per_block == K for K, m in evals.items())
    increasing = all(tps[a] < tps[b] for a, b in ((16, 8), (8, 4), (4, 2), (2, 1)))
    stages = bench.first_chunk_breakdown(MODEL_CFG, sources, [evals[1], evals[16]], max_blocks=4)
    lo, hi = stages[1], stages[16]
    talker_ratio = hi["talker_mean"] / lo["talker_mean"]
    report(11, increasing and forwards_ok and talker_ratio >= 4.0,
           f"TPS strictly increases 16->1: {[round(tps[k]) for k in (16, 8, 4, 2, 1)]}; "
           f"forwards/block == K at every K; talker first-chunk latency ratio "
           f"K16/K1 = {talker_ratio:.1f}x (>= 4x)")


# ---------------------------------------------------------------------------
# criterion 12: determinism of criteria 5-10 pipelines
# ---------------------------------------------------------------------------

def test_criterion_12_determinism(stage2, distilled_hier_rev, datasets):
    train, eval_ = datasets
    checks = []

    # criterion 5 rerun: identical token outputs
    m1, seqs1 = run_ar_reduction()
    m2, seqs2 = run_ar_reduction()
    checks.append(all(np.array_equal(a, b) for a, b in zip(seqs1, seqs2)))

    # training reruns at the acceptance seeds (reduced step count): identical
    # parameters and loss curves
    a = train_mdm(MODEL_CFG, train, GLOBAL_MASKING, STAGE2_OPT, steps=40, seed=STAGE2_SEED)
    b = train_mdm(MODEL_CFG, train, GLOBAL_MASKING, STAGE2_OPT, steps=40, seed=STAGE2_SEED)
    checks.append(param_digest(a.params) == param_digest(b.params))
    checks.append([r["loss"] for r in a.curve] == [r["loss"] for r in b.curve])
    da = train_distill(MODEL_CFG, stage2[0], train, DistillConfig(), HIER_MASKING,
                       STAGE3_OPT, steps=15, seed=STAGE3_SEED)
    db = train_distill(MODEL_CFG, stage2[0], train, DistillConfig(), HIER_MASKING,
                       STAGE3_OPT, steps=15, seed=STAGE3_SEED)
    checks.append(param_digest(da.params) == param_digest(db.params))

    # evaluation decodes and uncertainty profiles: identical outputs and
    # identical non-timing report fields
    e1, out1 = decode_error(distilled_hier_rev, eval_[:50], K=1)
    e2, out2 = decode_error(distilled_hier_rev, eval_[:50], K=1)
    checks.append(e1 == e2 and all(np.array_equal(x, y) for x, y in zip(out1, out2)))
    m1 = bench.decode_eval(distilled_hier_rev, MODEL_CFG, eval_[:50], K=4, max_blocks=4)
    m2 = bench.decode_eval(distilled_hier_rev, MODEL_CFG, eval_[:50], K=4, max_blocks=4)
    checks.append(json.dumps([m1.mean_confidence_per_step, m1.mean_entropy_per_step])
                  == json.dumps([m2.mean_confidence_per_step, m2.mean_entropy_per_step]))

    report(12, all(checks),
           f"identical outputs across reruns: AR decodes, train/distill digests and curves, "
           f"eval decodes, uncertainty profiles ({sum(checks)}/{len(checks)} checks)")


# ---------------------------------------------------------------------------
# the benchmark fixture is this stage one
# ---------------------------------------------------------------------------

def test_stage_one_reproduces_benchmark_fixture(stage2):
    # the benchmark never retrains its checkpoint; retraining it here ties
    # it to the code: drift in the nd, training or masking arithmetic fails
    _, fixture = talker.load_checkpoint(BENCH_FIXTURE)
    assert param_digest(stage2[0]) == param_digest(fixture)
