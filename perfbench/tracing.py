"""Span tracer that wraps the package's public functions from outside.

Nothing inside ``src/`` is instrumented: :func:`installed` swaps module
attributes for timing wrappers and restores them on exit. A span records
its name, start, end, parent span and the operation (request or step) it
belongs to. Spans stay in memory until :meth:`Tracer.write` dumps them.
Counters are kept beside the spans, at the same call boundaries, so the
ratios the benchmark reports are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

from blockmdm import bench, cli, decode, nd, synthtask, talker, training

_clock = time.perf_counter

FORWARD_ROW_BUCKETS = (16, 64, 128, 256)
BENCH_SPANS = {"decode_eval": "bench.decode_eval", "first_chunk_breakdown": "bench.first_chunk",
               "uncertainty_profile": "bench.uncertainty"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, operation]
        self._open = []
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.forward_s_by_rows = {rows: [] for rows in FORWARD_ROW_BUCKETS}
        self.operation = None

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result, args, span)`` updates counters."""
        spans, open_, active = self.spans, self._open, self.active

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _clock(), 0.0, open_[-1] if open_ else -1, self.operation])
            open_.append(idx)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                open_.pop()
                spans[idx][2] = _clock()
            if after is not None:
                after(result, args, spans[idx])
            return result

        return traced

    def reset_counts(self):
        self.counts = defaultdict(int)

    def snapshot_counts(self) -> dict:
        return dict(sorted(self.counts.items()))

    # -- aggregation ---------------------------------------------------------

    def durations(self, skip_operation=None):
        """Per span name: total duration and total self time, in seconds.

        Self time is a span's duration minus the time its child spans
        cover; spans of ``skip_operation`` (set-up work) are left out.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_time = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op == skip_operation:
                continue
            total[name] += end - start
            self_time[name] += end - start - child[i]
        return total, self_time

    def span_durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the package's public entry points through ``tracer``."""
    undo = []

    def patch(obj, attr, new):
        undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def count(key, n=1):
        tracer.counts[key] += n  # looked up per call: reset_counts swaps the dict

    try:
        # nd: matmul is counted, not spanned (thousands of calls per step)
        orig_matmul = nd.matmul

        def matmul(a, b):
            out = orig_matmul(a, b)
            count("nd.matmul_calls")
            count("nd.matmul_flops", 2 * a.data.shape[0] * a.data.shape[1] * b.data.shape[1])
            return out

        patch(nd, "matmul", matmul)

        def after_attention(_, args, span):
            count("nd.attention_calls")
            count("nd.attention_score_elems", args[0].data.shape[0] * args[1].data.shape[0])

        patch(nd, "masked_attention", tracer.wrap("nd.attention", nd.masked_attention, after_attention))
        patch(nd.Tensor, "backward",
              tracer.wrap("nd.backward", nd.Tensor.backward, lambda *_: count("nd.backward_calls")))
        patch(nd, "adamw_step", tracer.wrap("nd.adamw", nd.adamw_step))

        # semantics, as the model calls it
        patch(talker, "align_for_canvas", tracer.wrap("semantics.align", talker.align_for_canvas))
        patch(talker, "fuse", tracer.wrap("semantics.fuse", talker.fuse))

        # talker
        def after_forward(_, args, span):
            tokens = np.asarray(args[2])
            rows = len(tokens)
            count("talker.forward_calls")
            count("talker.forward_rows", rows)
            if rows in tracer.forward_s_by_rows:
                tracer.forward_s_by_rows[rows].append(span[2] - span[1])
            if tracer.active["decode.block"]:
                count("decode.block_forwards")
                count("decode.forward_rows", rows)
                count("decode.forward_masked_rows", int((tokens == args[1].vocab.mask_id).sum()))
            if any(tracer.active[name] for name in BENCH_SPANS.values()):
                count("bench.forward_calls")

        patch(talker, "forward", tracer.wrap("talker.forward", talker.forward, after_forward))
        patch(talker, "load_checkpoint", tracer.wrap("talker.ckpt_load", talker.load_checkpoint))

        # schedule, as called from decode
        patch(decode, "schedule_step", tracer.wrap("schedule.reveal", decode.schedule_step))
        patch(decode, "pick_reveal", tracer.wrap("schedule.reveal", decode.pick_reveal))

        # decode
        patch(decode, "decode_block",
              tracer.wrap("decode.block", decode.decode_block, lambda *_: count("decode.blocks")))
        orig_stream = decode.stream_blocks

        def stream_blocks(*args, **kwargs):
            count("decode.streams")
            for item in orig_stream(*args, **kwargs):
                count("decode.stream_chunks")
                yield item

        patch(decode, "stream_blocks", stream_blocks)

        # masking, as training calls it
        def after_mask(mask_positions, args, span):
            count("masking.masked_positions", len(mask_positions))
            count("masking.target_positions", args[0].T)

        patch(training, "sample_mask", tracer.wrap("masking.sample", training.sample_mask, after_mask))

        # training
        patch(training, "teacher_rollout",
              tracer.wrap("training.rollout", training.teacher_rollout,
                          lambda result, *_: count("training.rollout_forwards", result[2])))

        # bench: every forward under one of these spans counts as a bench forward
        for attr, name in BENCH_SPANS.items():
            patch(bench, attr, tracer.wrap(name, getattr(bench, attr)))
        patch(bench, "bench_sweep", tracer.wrap("bench.sweep", bench.bench_sweep))

        # synthtask and cli
        patch(synthtask, "token_error_rate", tracer.wrap("synthtask.ter", synthtask.token_error_rate))
        patch(cli, "main", tracer.wrap("cli.main", cli.main))
        yield tracer
    finally:
        for obj, attr, old in reversed(undo):
            setattr(obj, attr, old)
