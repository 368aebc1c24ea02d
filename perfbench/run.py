"""blockmdm benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream_short --seed 1 --seconds 10 --trace 0

The load is a closed loop: one caller, operations back to back, no
threads, BLAS pinned to one thread. Set-up (fixture hash check and load,
input generation from ``--seed``, warm-up operations) runs several times
and reports its median. The timed phase then repeats whole passes of the
workload until ``--seconds`` have elapsed (so it may run over by up to one
pass) and checks every output.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate
run that prints the per-layer metrics: it times half its passes
untraced and half through ``tracing``, requires both halves to give
bit-identical outputs and identical counts, and reports the difference
as the tracing overhead. Spans are written to ``perfbench/.work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the environment and details such as sample counts and output
digests. ``perfbench/METRICS.md`` defines every metric per workload.
"""

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_record():
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # numpy wheels bundle OpenBLAS with prefixed symbols; ask the loaded copy
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    return {"blas": info.get("name"), "blas_version": info.get("version"),
            "blas_threads_requested": BLAS_THREADS, "blas_threads_reported": threads}


def percentile(values, q):
    return float(np.quantile(values, q)) if values else 0.0


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def timed_passes(wl, rec, seconds, tracer=None):
    """Run whole passes until ``seconds`` have elapsed, so every run times
    the same mix of operations. Returns the per-pass output digests and,
    when traced, the per-pass count snapshots."""
    digests, snapshots = [], []
    gc.collect()
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset_counts()
        rec.begin_pass()
        t_pass = time.perf_counter()
        digests.append(wl.run_pass(rec, tracer))
        rec.passes[-1]["wall_s"] = time.perf_counter() - t_pass
        if tracer is not None:
            snapshots.append(tracer.snapshot_counts())
        if time.perf_counter() - t0 >= seconds:
            break
    return digests, snapshots


def op_latencies(rec, kind="op"):
    """Median latency in ms per operation key, over all passes."""
    samples = defaultdict(list)
    for p in rec.passes:
        for key, values in p[kind].items():
            samples[key].extend(values)
    return {key: 1e3 * statistics.median(values) for key, values in samples.items()}


def end_to_end(rec, setup_times):
    per_key = list(op_latencies(rec).values())
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "first_ms_p50": (percentile(list(op_latencies(rec, "first").values()), 0.5), "ms"),
        "op_ms_mean": (mean(per_key), "ms"),
        "op_ms_p90": (percentile(per_key, 0.9), "ms"),
    }


def per_layer(tracer, counts, traced, untraced, info):
    """Layer metrics: ``*_ms`` are milliseconds per operation of the traced
    passes unless named per call; counts are per pass and exact."""
    total, self_time = tracer.durations(skip_operation="setup")
    per_op = 1e3 / max(traced.ops, 1)

    def ms(name):
        return per_op * total.get(name, 0.0)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    loads = tracer.span_durations("talker.ckpt_load")
    m = {
        "nd.backward_ms": (ms("nd.backward"), "ms"),
        "nd.backward_calls": (counts.get("nd.backward_calls", 0), "count"),
        "nd.adamw_ms": (ms("nd.adamw"), "ms"),
        "nd.attention_ms": (ms("nd.attention"), "ms"),
        "nd.attention_calls": (counts.get("nd.attention_calls", 0), "count"),
        "nd.attention_score_elems": (counts.get("nd.attention_score_elems", 0), "count"),
        "nd.matmul_calls": (counts.get("nd.matmul_calls", 0), "count"),
        "nd.matmul_flops": (counts.get("nd.matmul_flops", 0), "count"),
        "semantics.align_ms": (ms("semantics.align"), "ms"),
        "semantics.fuse_ms": (ms("semantics.fuse"), "ms"),
        "masking.sample_ms": (ms("masking.sample"), "ms"),
        "masking.masked_frac": (ratio("masking.masked_positions", "masking.target_positions"), "ratio"),
        "talker.forward_calls": (counts.get("talker.forward_calls", 0), "count"),
        "talker.forward_rows": (counts.get("talker.forward_rows", 0), "count"),
        "talker.forward_self_ms": (per_op * self_time.get("talker.forward", 0.0), "ms"),
    }
    for rows, samples in tracer.forward_s_by_rows.items():
        m[f"talker.forward_ms.r{rows}"] = (1e3 * statistics.median(samples) if samples else 0.0, "ms")
    m.update({
        "talker.useful_row_frac": (ratio("decode.forward_masked_rows", "decode.forward_rows"), "ratio"),
        "talker.ckpt_load_ms": (1e3 * statistics.median(loads) if loads else 0.0, "ms"),
        "schedule.reveal_ms": (ms("schedule.reveal"), "ms"),
        "decode.block_self_ms": (per_op * self_time.get("decode.block", 0.0), "ms"),
        "decode.forwards_per_block": (ratio("decode.block_forwards", "decode.blocks"), "count"),
        "decode.blocks_per_request": (ratio("decode.stream_chunks", "decode.streams"), "count"),
        "training.rollout_ms": (ms("training.rollout"), "ms"),
        "training.rollout_forwards": (counts.get("training.rollout_forwards", 0), "count"),
        "bench.decode_eval_ms": (ms("bench.decode_eval"), "ms"),
        "bench.first_chunk_ms": (ms("bench.first_chunk"), "ms"),
        "bench.uncertainty_ms": (ms("bench.uncertainty"), "ms"),
        "bench.forward_calls": (counts.get("bench.forward_calls", 0), "count"),
        "synthtask.ter_ms": (ms("synthtask.ter"), "ms"),
        "synthtask.token_err_rate": (info.get("token_err_rate", 0.0), "ratio"),
        "cli.self_ms": (per_op * self_time.get("cli.main", 0.0), "ms"),
        "trace.overhead_ms": (mean(op_latencies(traced).values()) - mean(op_latencies(untraced).values()), "ms"),
    })
    return m


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blockmdm", "__init__.py")):
        print(f"error: package source not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, ".work")
    os.makedirs(work_dir, exist_ok=True)

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
           "load": "closed loop, 1 caller, no threads", **blas_record()}
    print("env " + json.dumps(env), flush=True)

    wl = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    setup_times = []
    try:
        for i in range(SETUP_REPEATS):
            # a traced run traces its last set-up too, for the checkpoint-load span
            traced_setup = tracer is not None and i == SETUP_REPEATS - 1
            with tracing.installed(tracer) if traced_setup else contextlib.nullcontext():
                if traced_setup:
                    tracer.operation = "setup"
                t0 = time.perf_counter()
                wl.setup(args.seed, work_dir)
                setup_times.append(time.perf_counter() - t0)
    except workloads.SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    untraced = workloads.Record()
    consistent = True
    if tracer is None:
        digests, _ = timed_passes(wl, untraced, args.seconds)
        recs = [untraced]
    else:
        digests, _ = timed_passes(wl, untraced, args.seconds / 2)
        traced = workloads.Record()
        with tracing.installed(tracer):
            traced_digests, snapshots = timed_passes(wl, traced, args.seconds / 2, tracer)
        tracer.write(os.path.join(work_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        digests += traced_digests
        recs = [untraced, traced]
        if any(s != snapshots[0] for s in snapshots):
            consistent = False
            traced.fail(0, "traced passes gave different counts")
    if len(set(digests)) != 1:
        consistent = False

    bad_ops, info = wl.final_checks()
    passes = len(digests)
    attempted = sum(r.ops for r in recs)
    failed = sum(r.failed for r in recs) + len(bad_ops) * passes
    problems = [p for r in recs for p in r.problems] + [f"operation {i} differs from its oracle" for i in bad_ops]

    if tracer is None:
        metrics = end_to_end(untraced, setup_times)
    else:
        metrics = per_layer(tracer, snapshots[0], traced, untraced, info)
    detail = {"passes": passes, "attempted_per_pass": attempted // passes, "output_digest": digests[0],
              "setup_s_all": setup_times, "pass_s": [p["wall_s"] for p in untraced.passes],
              "op_ms_by_key": op_latencies(untraced),
              "work_per_s": sum(p["work"] for p in untraced.passes) / sum(p["wall_s"] for p in untraced.passes),
              "consistent_across_passes": consistent,
              "problems": problems, **info}
    print("detail " + json.dumps(detail), flush=True)
    result = {"correct": consistent and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
