"""The benchmark's workloads: inputs made from a seed, passes of
operations, and the checks on their outputs.

A pass is a fixed list of operations made from the workload seed: the
same seed gives the same pass, and every repetition of a pass must give
bit-identical outputs. The timed phase repeats whole passes, so each run
measures the same mix of inputs and the per-pass counts repeat exactly.

Every workload uses the acceptance model config and task, and the decode,
distill and sweep workloads use the committed stage-one fixture (see
``make_fixture.py``); a random-init model would hit EOS by chance in the
first block and leave nothing to measure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from blockmdm import bench, cli, decode, masking, nd, synthtask, talker, training
from blockmdm.errors import BlockMDMError
from blockmdm.synthtask import SamplePair, TaskSpec

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_PATH = os.path.join(HERE, "fixture", "stage1.ckpt")
FIXTURE_SHA256 = "c855f43f5396c4191149d7dab11d670f97917c309b4683d83449fa964b104bab"

MODEL_CFG = talker.TalkerConfig(data_tokens=64, src_vocab=256, d=64, d_ff=256,
                                n_layers=4, n_heads=4, B=16, Q=4, T_max=256)
TASK = TaskSpec(source_vocab=256, data_tokens=64, upsample=4, grammar_seed=0, noise_rho=0.0)
TRAIN_N_RANGE = (4, 12)
WARMUP_OPS = 2

_clock = time.perf_counter


class SetupError(Exception):
    """The benchmark cannot run here (missing or altered fixture)."""


@dataclass
class Record:
    """Timings and outcomes of the passes run in one phase.

    Latencies are kept per pass and keyed by the kind of operation: the
    block position of a chunk, the index of a training step. Every sample
    under one key does the same work whatever the seed, so per-key medians
    compare across seeds even where the mix of keys does not.
    """

    passes: list = field(default_factory=list)  # {"first": {key: [s]}, "op": {key: [s]}, "work": n, "wall_s": s}
    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def begin_pass(self):
        self.passes.append({"first": defaultdict(list), "op": defaultdict(list), "work": 0, "wall_s": 0.0})

    def time_op(self, key, first_s=None, op_s=None, work=0):
        """``first_s``: request or call start to its first result; ``op_s``:
        one operation's latency; ``work``: tokens or sequences produced."""
        current = self.passes[-1]
        if first_s is not None:
            current["first"][key].append(first_s)
        if op_s is not None:
            current["op"][key].append(op_s)
        current["work"] += work

    def fail(self, n, why):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


def load_fixture():
    """Verify the committed checkpoint's hash, then load it."""
    try:
        with open(FIXTURE_PATH, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    except OSError as e:
        raise SetupError(f"fixture checkpoint unreadable: {e}") from e
    if digest != FIXTURE_SHA256:
        raise SetupError(f"fixture checkpoint sha256 {digest} != expected {FIXTURE_SHA256}; "
                         "the benchmark never retrains it")
    cfg, params = talker.load_checkpoint(FIXTURE_PATH)
    talker.check_compatible(MODEL_CFG, cfg, path=FIXTURE_PATH)
    return params


def make_pairs(seed, n_range, count, stream):
    """Task pairs whose source lengths cover ``n_range`` evenly (in a
    seeded order), so every seed has nearly the same mix of lengths."""
    rng = nd.make_rng(seed, stream)
    lo, hi = n_range
    lengths = rng.permutation(lo + np.arange(count) * (hi - lo + 1) // count)
    grammar = synthtask.gen_grammar(TASK)
    eos = MODEL_CFG.vocab.eos_id
    pairs = []
    for n in lengths:
        source = rng.integers(0, TASK.source_vocab, size=int(n)).astype(np.intp)
        pairs.append(SamplePair(source=source,
                                target=np.append(grammar[source].reshape(-1), eos).astype(np.intp)))
    return pairs


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class StreamWorkload:
    """Closed-loop streaming decode: one request at a time, timed from
    before conditioning alignment to each chunk ``decode.stream_blocks``
    yields. An operation is one chunk, keyed by its block position, and
    its latency runs from the previous chunk (or the request start). Work
    is output tokens."""

    K, MAX_BLOCKS = 4, 16
    ORACLE_EVERY = 4

    def __init__(self, n_range, pass_size):
        self.n_range, self.pass_size = n_range, pass_size
        self.dcfg = decode.DecodeConfig(B=MODEL_CFG.B, K=self.K, max_blocks=self.MAX_BLOCKS,
                                        eos_id=MODEL_CFG.vocab.eos_id)
        self.canvas_T = min(self.MAX_BLOCKS * MODEL_CFG.B, (MODEL_CFG.T_max // MODEL_CFG.B) * MODEL_CFG.B)

    def setup(self, seed, work_dir):
        self.params = load_fixture()
        self.pairs = make_pairs(seed, self.n_range, self.pass_size, stream=1)
        self.reference = None
        # two blocks per warm-up request keeps set-up work the same for every seed
        warmup = decode.DecodeConfig(B=MODEL_CFG.B, K=self.K, max_blocks=2, eos_id=MODEL_CFG.vocab.eos_id)
        for p in self.pairs[:WARMUP_OPS]:
            self._request(p.source, warmup)

    def _request(self, source, dcfg=None):
        t0 = _clock()
        with nd.no_grad():
            aligned = talker.align_for_canvas(self.params, MODEL_CFG, source, self.canvas_T)
        trace = decode.DecodeTrace()
        chunks, times = [], []
        for chunk, _ in decode.stream_blocks(aligned, self.params, MODEL_CFG, dcfg or self.dcfg, trace):
            times.append(_clock())
            chunks.append(chunk)
        tokens = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
        return tokens, trace, t0, times

    def _invariant_problem(self, tokens, trace):
        vocab = MODEL_CFG.vocab
        if len(tokens) == 0 or len(tokens) > self.MAX_BLOCKS * MODEL_CFG.B:
            return f"output length {len(tokens)} outside [1, {self.MAX_BLOCKS * MODEL_CFG.B}]"
        if ((tokens == vocab.mask_id) | (tokens == vocab.pad_id)).any():
            return "output contains MASK or PAD ids"
        if tokens.min() < 0 or tokens.max() >= vocab.size:
            return "output id outside the vocabulary"
        eos_at = np.nonzero(tokens == vocab.eos_id)[0]
        ends_in_eos = eos_at.size == 1 and eos_at[0] == len(tokens) - 1
        if eos_at.size > (1 if ends_in_eos else 0) or ends_in_eos != trace.stopped_on_eos:
            return f"EOS placement {eos_at.tolist()} disagrees with stopped_on_eos={trace.stopped_on_eos}"
        if trace.tokens_emitted != len(tokens):
            return f"trace counts {trace.tokens_emitted} tokens, stream gave {len(tokens)}"
        return None

    def run_pass(self, rec, tracer=None):
        outputs = []
        for i, p in enumerate(self.pairs):
            if tracer is not None:
                tracer.operation = i
            rec.ops += 1
            try:
                tokens, trace, t0, times = self._request(p.source)
            except BlockMDMError as e:
                rec.fail(1, f"request {i}: {e}")
                outputs.append(None)
                continue
            rec.time_op("request", first_s=times[0] - t0, work=len(tokens))
            for block, dt in enumerate(np.diff([t0] + times), start=1):
                rec.time_op(block, op_s=dt)
            outputs.append((tokens, trace.stopped_on_eos))
            problem = self._invariant_problem(tokens, trace)
            if problem is None and self.reference is not None and not _same_output(outputs[-1], self.reference[i]):
                problem = "output differs from the first pass"
            if problem:
                rec.fail(1, f"request {i}: {problem}")
        if self.reference is None:
            self.reference = outputs
        return _sha256(t.astype("<i8").tobytes() + bytes([eos]) for t, eos in filter(None, outputs))

    def final_checks(self):
        """Compare sampled streamed outputs with the one-shot decode (the
        oracle); returns ``(failing operation indices, info)``."""
        bad = []
        for i in range(0, len(self.pairs), self.ORACLE_EVERY):
            got = self.reference[i]
            want = decode.decode_source(self.pairs[i].source, self.params, MODEL_CFG, self.dcfg)
            if got is None or not _same_output(got, (want.tokens, want.stopped_on_eos)):
                bad.append(i)
        eos = MODEL_CFG.vocab.eos_id
        errs = [synthtask.token_error_rate(synthtask.strip_eos(out[0], eos),
                                           synthtask.strip_eos(p.target, eos)).rate
                for out, p in zip(self.reference, self.pairs) if out is not None]
        return bad, {"token_err_rate": float(np.mean(errs)) if errs else 1.0,
                     "oracle_checked": len(range(0, len(self.pairs), self.ORACLE_EVERY))}


def _same_output(a, b):
    return a is not None and b is not None and a[1] == b[1] and np.array_equal(a[0], b[0])


class TrainWorkload:
    """A pass is one training call of ``steps`` optimizer steps at batch 8,
    started afresh each pass; an operation is one step. Work is training
    sequences (batch rows)."""

    BATCH = 8
    DATASET_SIZE = 512

    def __init__(self, distill, steps):
        self.distill, self.steps = distill, steps
        if distill:
            self.masking = masking.MaskingConfig(mode="hierarchical", gamma_c=(0.5, 1.0), gamma_t=(0.3, 1.0))
            self.opt = training.OptimizerConfig(lr=3e-4, batch_size=self.BATCH)
            self.distill_cfg = training.DistillConfig(K=4, tau=2.0, alpha=0.7, kl_direction="reverse")
        else:
            self.masking = masking.MaskingConfig(mode="global_bernoulli", gamma_g=(0.3, 0.8))
            self.opt = training.OptimizerConfig(lr=1e-3, batch_size=self.BATCH)

    def setup(self, seed, work_dir):
        self.seed = seed
        self.dataset = make_pairs(seed, TRAIN_N_RANGE, self.DATASET_SIZE, stream=2)
        if self.distill:
            self.start = load_fixture()
        else:
            self.start = talker.init_params(MODEL_CFG, nd.make_rng(seed, 3))
        self.reference = None
        self._train(WARMUP_OPS, None)

    def _train(self, steps, log_cb):
        if self.distill:
            return training.train_distill(MODEL_CFG, self.start, self.dataset, self.distill_cfg,
                                          self.masking, self.opt, steps=steps, seed=self.seed,
                                          log_cb=log_cb)
        params = self.start.copy()
        return training.train_mdm(MODEL_CFG, self.dataset, self.masking, self.opt, steps=steps,
                                  seed=self.seed, params=params, log_cb=log_cb)

    def run_pass(self, rec, tracer=None):
        times, curve = [], []

        def on_step(row):
            times.append(_clock())
            curve.append(row)
            if tracer is not None:
                tracer.operation = row["step"] + 1

        if tracer is not None:
            tracer.operation = 1
        rec.ops += self.steps
        t0 = _clock()
        try:
            self._train(self.steps, on_step)
        except BlockMDMError as e:
            rec.fail(self.steps - len(curve), f"training stopped after {len(curve)} steps: {e}")
        if times:
            rec.time_op("call", first_s=times[0] - t0)
            for step, dt in enumerate(np.diff([t0] + times), start=1):
                rec.time_op(step, op_s=dt, work=self.BATCH)
        losses = [row["loss"] for row in curve]
        values = [row[k] for row in curve for k in ("loss", "kd_loss", "mdm_loss")]
        if not all(np.isfinite(values)):
            rec.fail(len(curve), "non-finite loss")
        elif not self.distill and len(losses) == self.steps:
            head, tail = np.mean(losses[:4]), np.mean(losses[-4:])
            if not tail < head:
                rec.fail(len(curve), f"mdm loss did not fall: first steps {head:.4f}, last steps {tail:.4f}")
        digest = _sha256(float(v).hex().encode() for v in values)
        if self.reference is None:
            self.reference = (digest, losses)
        elif digest != self.reference[0]:
            rec.fail(len(curve), "losses differ from the first pass")
        return digest

    def final_checks(self):
        losses = self.reference[1]
        return [], {"first_loss": losses[0] if losses else None,
                    "last_loss": losses[-1] if losses else None}


class SweepWorkload:
    """The ``bench`` subcommand run in-process through ``cli.main`` over an
    eval corpus written during set-up; an operation is one invocation.
    Work is the tokens the sweep decoded, as its report counts them."""

    EVAL_PAIRS = 32

    def setup(self, seed, work_dir):
        params = load_fixture()
        pairs = make_pairs(seed, TRAIN_N_RANGE, self.EVAL_PAIRS, stream=4)
        stem = os.path.join(work_dir, f"sweep-{seed}")
        self.json_path, self.csv_path = stem + ".json", stem + ".csv"
        synthtask.write_corpus(stem + ".corpus", TASK, pairs)
        self.argv = ["bench", "--checkpoint", f"fixture={FIXTURE_PATH}", "--eval", stem + ".corpus",
                     "--steps", "4,1", "--max-blocks", "8", "--seed", str(seed),
                     "--out-json", self.json_path, "--out-csv", self.csv_path]
        # warm the decode path the sweep uses, without running a sweep
        dcfg = decode.DecodeConfig(B=MODEL_CFG.B, K=4, max_blocks=8, eos_id=MODEL_CFG.vocab.eos_id)
        for p in pairs[:WARMUP_OPS]:
            decode.decode_source(p.source, params, MODEL_CFG, dcfg)
        self.reference = None
        self.report = None

    def run_pass(self, rec, tracer=None):
        if tracer is not None:
            tracer.operation = 0
        rec.ops += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = _clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        elapsed = _clock() - t0
        if code != 0:
            rec.fail(1, f"bench exited {code}: {err.getvalue().strip()}")
            return None
        with open(self.csv_path, newline="", encoding="utf-8") as f:
            header = f.readline().strip().split(",")
        with open(self.json_path, encoding="utf-8") as f:
            report = json.load(f)
        rec.time_op("sweep", first_s=elapsed, op_s=elapsed,
                    work=sum(row["tokens"] for row in report["rows"]))
        stripped = json.dumps(bench.strip_timing(report), sort_keys=True)
        digest = _sha256([stripped.encode()])
        if header != bench.CSV_COLUMNS:
            rec.fail(1, f"CSV columns {header} != {bench.CSV_COLUMNS}")
        elif self.reference is None:
            self.reference, self.report = digest, report
        elif digest != self.reference:
            rec.fail(1, "deterministic report fields differ from the first sweep")
        return digest

    def final_checks(self):
        rows = self.report["rows"] if self.report else []
        return [], {"token_err_rate": float(np.mean([r["err_rate"] for r in rows])) if rows else 1.0,
                    "forwards_per_block": {str(r["K"]): r["forwards_per_block"] for r in rows}}


WORKLOADS = {
    "stream_short": lambda: StreamWorkload((4, 12), pass_size=36),
    "stream_long": lambda: StreamWorkload((40, 63), pass_size=32),
    "train_mdm": lambda: TrainWorkload(distill=False, steps=24),
    "train_distill": lambda: TrainWorkload(distill=True, steps=8),
    "eval_sweep": SweepWorkload,
}
