"""Throughput, latency and uncertainty measurements for the decoder.

Reports are split into deterministic fields (reproducible byte for byte
given seed and config) and timing fields, which are wall-clock
measurements and carry an explicit nondeterminism marker in the JSON
output. Throughput is tokens per second of decode wall time; the
real-time-factor analog divides wall time by a nominal output duration
(``tokens * seconds_per_token``), a labeling convention for comparing
trends, not a measured audio property.

Confidence and entropy per reveal step, and the talker stage of the
first-chunk latency, come from the traces of the eval decodes themselves:
the decoder records confidence and entropy for every revealed position as
:func:`decode.reveal_step` picks it, and the wall time and forward passes
of every block. :func:`uncertainty_profile` aggregates those traces, and
:func:`first_chunk_breakdown` reads their first blocks, so the bench runs
no decode, and no model forward, outside its eval decodes.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import decode as decode_mod
from . import synthtask, talker
from .decode import DecodeConfig
from .errors import InputError, ParameterError
from .talker import TalkerConfig, TalkerParams

NOMINAL_SECONDS_PER_TOKEN = 0.04
WARMUP = 2  # sources run untimed before each measurement

CSV_COLUMNS = ["checkpoint", "K", "tps", "rtf_analog", "err_rate",
               "conf_step1", "entropy_step1",
               "latency_stage_semantics", "latency_stage_talker", "latency_stage_post"]


@dataclass
class Metrics:
    """Aggregate decode metrics for one (checkpoint, K) cell."""

    K: int
    tokens: int
    wall_time: float
    tps: float
    rtf_analog: float
    err_rate: float
    mean_confidence_per_step: list
    mean_entropy_per_step: list
    forwards_per_block: float
    # per eval source: its first emitted chunk and the trace of its first block
    first_blocks: list = field(default_factory=list, repr=False)


@dataclass
class ExperimentConfig:
    """A step sweep over one or more checkpoints."""

    checkpoints: dict  # label -> path
    steps: list = field(default_factory=lambda: [16, 8, 4, 2, 1])
    eval_path: str = None
    seed: int = 0
    repetitions: int = 1
    max_blocks: int = 8

    def __post_init__(self):
        if not self.steps or any(k < 1 for k in self.steps):
            raise ParameterError(f"step list must be nonempty and positive, got {self.steps}")
        repeated = [k for i, k in enumerate(self.steps) if k in self.steps[:i]]
        if repeated:
            raise ParameterError(f"step count {repeated[0]} is given twice in {self.steps}")
        if not self.checkpoints:
            raise ParameterError("a sweep needs at least one checkpoint")
        if self.eval_path is None:
            raise ParameterError("a sweep needs an eval corpus (--eval)")
        if self.repetitions < 1:
            raise ParameterError(f"repetitions must be >= 1, got {self.repetitions}")


def _timed(fn, inputs):
    """``fn`` over ``inputs`` in order; per input, the wall time of the
    fastest of 3 back-to-back calls."""
    def once(x):
        t0 = time.perf_counter()
        fn(x)
        return time.perf_counter() - t0

    return [min(once(x) for _ in range(3)) for x in inputs]


def first_chunk_breakdown(tcfg: TalkerConfig, sources, evals, max_blocks: int = 8) -> dict:
    """Mean, median and standard deviation of per-stage first-chunk
    latency, as ``{K: report}`` for each step count among ``evals``: the
    :func:`decode_eval` results over ``sources`` (in order, same
    ``max_blocks``; any number per K).

    Stages: building the conditioning stream's index, the talker's
    diffusion steps for the first block (whose forwards gather the stream's
    rows), and post-processing (EOS scan and emission). The talker stage is
    read from the eval decodes' traces of each source's first block, pooled
    over the results of a K; no model forward runs here. The other two are
    timed here, post on the first chunk each K's first eval decode emitted.
    After an untimed warm-up over the first ``WARMUP`` sources, each stage
    runs in one back-to-back loop over every source once per K, with the
    garbage collector paused; the K values alternate from job to job,
    their order flipping from one source to the next, and a job's time is
    the fastest of its 3 back-to-back calls. So a stage is never timed
    right after a K-dependent decode or across a collection, every K sees
    the same drift in processor speed, and a preempted call rarely counts;
    the sweep reports the median over sources, the figure to compare.
    """
    by_K = {}
    for m in evals:
        if len(m.first_blocks) != len(sources):
            raise ParameterError(f"K={m.K} eval decoded {len(m.first_blocks)} sources, "
                                 f"expected {len(sources)}")
        by_K.setdefault(m.K, []).append(m)
    Ks = list(by_K)
    chunks = {K: [chunk for chunk, _ in ms[0].first_blocks] for K, ms in by_K.items()}
    canvas_T = decode_mod.canvas_length(tcfg, DecodeConfig(B=tcfg.B, max_blocks=max_blocks))

    def semantics(source):
        return talker.align_for_canvas(None, tcfg, source, canvas_T)

    def post(block):
        hits = np.nonzero(block == tcfg.vocab.eos_id)[0]
        return (block[:int(hits[0]) + 1] if hits.size else block).tolist()

    first = {K: [btrace for m in ms for _, btrace in m.first_blocks] for K, ms in by_K.items()}
    stages = {K: {"semantics": [], "talker": [btrace.wall_time for btrace in first[K]], "post": []}
              for K in Ks}
    warm = [(K, i) for i in range(len(sources))[:WARMUP] for K in Ks]
    _timed(semantics, [sources[i] for _, i in warm])
    _timed(post, [chunks[K][i] for K, i in warm])
    jobs = [(K, i) for i in range(len(sources)) for K in (Ks if i % 2 == 0 else Ks[::-1])]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t_sem = _timed(semantics, [sources[i] for _, i in jobs])
        t_post = _timed(post, [chunks[K][i] for K, i in jobs])
    finally:
        if gc_was_enabled:
            gc.enable()
    for (K, _), sem, pst in zip(jobs, t_sem, t_post):
        stages[K]["semantics"].append(sem)
        stages[K]["post"].append(pst)
    reports = {}
    for K, by_stage in stages.items():
        report = {"K": K, "n_inputs": len(sources),
                  "forwards_first_block": float(np.mean([btrace.forward_passes for btrace in first[K]]))}
        for name, values in by_stage.items():
            report[f"{name}_mean"] = float(np.mean(values))
            report[f"{name}_median"] = float(np.median(values))
            report[f"{name}_std"] = float(np.std(values))
        report["total_mean"] = sum(report[f"{name}_mean"] for name in by_stage)
        reports[K] = report
    return reports


def uncertainty_profile(traces, K: int) -> list:
    """Mean confidence and mean entropy, as ``[confidences, entropies]``, of
    the positions revealed at each of the ``K`` steps over every block of
    ``traces``, each scored with the logits row it was revealed from (step 1
    reflects the fully masked block state)."""
    conf_by_step = [[] for _ in range(K)]
    ent_by_step = [[] for _ in range(K)]
    for trace in traces:
        for btrace in trace.blocks:
            for strace in btrace.steps:
                conf_by_step[strace.step - 1].extend(strace.confidences)
                ent_by_step[strace.step - 1].extend(strace.entropies)
    return [[float(np.mean(v)) if v else float("nan") for v in by_step]
            for by_step in (conf_by_step, ent_by_step)]


def decode_eval(params: TalkerParams, tcfg: TalkerConfig, pairs, K: int,
                max_blocks: int = 8) -> Metrics:
    """Decode an eval set at ``K`` steps per block and aggregate metrics."""
    vocab = tcfg.vocab
    dcfg = DecodeConfig(B=tcfg.B, K=K, max_blocks=max_blocks, eos_id=vocab.eos_id)
    for p in pairs[:WARMUP]:
        decode_mod.decode_source(p.source, params, tcfg, dcfg)

    tokens, errs, traces, first_blocks = 0, [], [], []
    for p in pairs:
        result = decode_mod.decode_source(p.source, params, tcfg, dcfg)
        first_blocks.append((result.tokens[:dcfg.B], result.trace.blocks[0]))
        tokens += len(result.tokens)
        hyp = synthtask.strip_eos(result.tokens, vocab.eos_id)
        ref = synthtask.strip_eos(p.target, vocab.eos_id)
        errs.append(synthtask.token_error_rate(hyp, ref).rate)
        traces.append(result.trace)
    wall = sum(trace.wall_time for trace in traces)
    mean_conf, mean_ent = uncertainty_profile(traces, K)
    forwards = [btrace.forward_passes for trace in traces for btrace in trace.blocks]
    return Metrics(
        K=K,
        tokens=tokens,
        wall_time=wall,
        tps=tokens / wall if wall > 0 else float("inf"),
        rtf_analog=wall / (tokens * NOMINAL_SECONDS_PER_TOKEN) if tokens else float("inf"),
        err_rate=float(np.mean(errs)),
        mean_confidence_per_step=mean_conf,
        mean_entropy_per_step=mean_ent,
        forwards_per_block=float(np.mean(forwards)) if forwards else 0.0,
        first_blocks=first_blocks,
    )


def bench_sweep(cfg: ExperimentConfig) -> dict:
    """Run the full (checkpoint, K) grid over the eval corpus at
    ``cfg.eval_path`` and aggregate over repetitions.

    Each cell decodes the eval set once per repetition (after warm-up);
    its confidence and entropy columns and its talker stage come from those
    decodes' traces, so the sweep runs no other decode or model forward.
    """
    loaded = {}
    ref_cfg = None
    for label, path in cfg.checkpoints.items():
        tcfg, params = talker.load_checkpoint(path)
        if ref_cfg is None:
            ref_cfg = tcfg
        else:
            talker.check_compatible(ref_cfg, tcfg, path=path)
        loaded[label] = (tcfg, params)
    _, pairs = synthtask.read_corpus(cfg.eval_path, ref_cfg.src_vocab, ref_cfg.V)
    if not pairs:
        raise InputError(f"{cfg.eval_path}: eval corpus has no pairs")

    sources = [p.source for p in pairs]
    rows = []
    for label, (tcfg, params) in loaded.items():
        evals = {K: [decode_eval(params, tcfg, pairs, K, max_blocks=cfg.max_blocks)
                     for _ in range(cfg.repetitions)]
                 for K in cfg.steps}
        breakdown = first_chunk_breakdown(tcfg, sources, [m for ms in evals.values() for m in ms],
                                          max_blocks=cfg.max_blocks)
        for K in cfg.steps:
            reps = evals[K]
            rows.append({
                "checkpoint": label,
                "K": K,
                "tps": float(np.mean([m.tps for m in reps])),
                "tps_std": float(np.std([m.tps for m in reps])),
                "rtf_analog": float(np.mean([m.rtf_analog for m in reps])),
                "err_rate": reps[0].err_rate,  # decoding is deterministic across reps
                "tokens": reps[0].tokens,
                "forwards_per_block": reps[0].forwards_per_block,
                "conf_step1": reps[0].mean_confidence_per_step[0],
                "entropy_step1": reps[0].mean_entropy_per_step[0],
                "mean_confidence_per_step": reps[0].mean_confidence_per_step,
                "mean_entropy_per_step": reps[0].mean_entropy_per_step,
                "latency_stage_semantics": breakdown[K]["semantics_median"],
                "latency_stage_talker": breakdown[K]["talker_median"],
                "latency_stage_post": breakdown[K]["post_median"],
            })
    return {
        "seconds_per_token": NOMINAL_SECONDS_PER_TOKEN,
        "repetitions": cfg.repetitions,
        "seed": cfg.seed,
        "rows": rows,
    }


TIMING_FIELDS = ("tps", "tps_std", "rtf_analog", "wall_time",
                 "latency_stage_semantics", "latency_stage_talker", "latency_stage_post",
                 "semantics_mean", "semantics_median", "semantics_std",
                 "talker_mean", "talker_median", "talker_std",
                 "post_mean", "post_median", "post_std", "total_mean")


def report_to_json(report: dict) -> str:
    """Serialize a report, tagging wall-clock fields as nondeterministic.

    Timing values are wrapped as ``{"value": x, "nondeterministic": true}``
    so byte-level comparisons of reports can exclude them mechanically.
    """
    def wrap(obj):
        if isinstance(obj, dict):
            return {k: ({"value": wrap(v), "nondeterministic": True} if k in TIMING_FIELDS else wrap(v))
                    for k, v in obj.items()}
        if isinstance(obj, list):
            return [wrap(v) for v in obj]
        if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
            return None
        return obj

    return json.dumps(wrap(report), indent=2, sort_keys=True)


def strip_timing(report: dict) -> dict:
    """The deterministic part of a report (for reproducibility checks)."""
    def walk(obj):
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items() if k not in TIMING_FIELDS}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        return obj

    return walk(report)
