"""Alternating A/B pairs of the benchmark between two revisions.

Usage, from the repository root::

    python3 tools/ab_pairs.py --out ab.json --pairs 5
    python3 tools/ab_pairs.py --base 061ddc8 --change 5865602 --workloads stream_long --pairs 10
    python3 tools/ab_pairs.py --out ab.json --pairs 5 --tier1 2

Each named revision's committed files are extracted with ``git archive``
into a temporary directory and run their own ``perfbench/run.py``,
because workloads call APIs that change between revisions. ``--change``
defaults to the working tree itself, uncommitted edits included;
``--base`` defaults to ``HEAD``. Pair ``i`` runs both sides on seed
``--seed + i``, one after the other, and the side that goes first
alternates from pair to pair. Each run is
``python3 perfbench/run.py --workload W --seed S --seconds X --trace 0``.
``--tier1 N`` also runs the Tier-1 suite (:data:`TIER1`) N times per side,
each side from its own tree, again alternating which side goes first.

The output file holds the environment (numpy and BLAS versions, the
OpenBLAS kernel name, processor count and BLAS threads), every run's
end-to-end metrics, failure count and output digest, and per workload and
metric: each side's median and quartiles, the change/base ratio of every
pair with their median and range, the pairs the change won, and a
``verdict`` (``gain``, ``regression``, ``unresolved`` or ``within_bound``;
see :func:`verdict`). Under
``tier1`` it holds every Tier-1 run's wall seconds and passed, failed and
error counts, and each side's wall-time median and quartiles. Extracted
trees are removed on exit, and each run finishes before the next starts.
Only the standard library is used, so the script runs under any
interpreter that can start the benchmark.
"""

import argparse
import ctypes
import glob
import importlib.util
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the Tier-1 suite, run from a tree's root with that tree's src/ first on PYTHONPATH
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="revision of the base side (default HEAD)")
    p.add_argument("--change", default=None, help="revision of the change side (default: the working tree)")
    p.add_argument("--workloads", default=None, help="comma-separated (default: every workload in BENCHMARK.json)")
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--tier1", type=int, default=0, metavar="N", help="Tier-1 runs per side (default 0)")
    p.add_argument("--seed", type=int, default=2301, help="seed of the first pair; pair i uses seed + i")
    p.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--out", required=True, help="JSON file to write")
    return p.parse_args(argv)


def git(*args, text=True):
    out = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=text).stdout
    return out.strip() if text else out


def openblas_corename():
    """The kernel the bundled OpenBLAS picked for this CPU, read from the
    library numpy loads, without importing numpy."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return None
    site = os.path.dirname(os.path.dirname(spec.origin))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def run_once(tree, workload, seed, seconds):
    """One benchmark run in ``tree``: its env line, its result and its output digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    result = json.loads(lines[-1])
    return {"env": json.loads(tagged.get("env", "{}")),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"], "correct": result["correct"],
            "output_digest": json.loads(tagged.get("detail", "{}")).get("output_digest")}


def run_tier1(tree):
    """One Tier-1 run in ``tree``: its wall seconds and its passed, failed and error counts."""
    path = os.pathsep.join(p for p in (os.path.join(tree, "src"), os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {kind.rstrip("s"): int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?)\b", summary)}
    return {"wall_s": wall, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "returncode": proc.returncode}


def spread(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(base, change, wins, lower, bound):
    """One metric's reading from its paired runs (``base[i]`` against
    ``change[i]``, ``wins`` of them won by the change, ties counting for
    neither):

    - ``gain``: the change won at least nine tenths of the pairs, and its
      median is better than the base's by more than the base's quartile
      distance;
    - ``regression``: the change's median is worse than the base's by more
      than ``bound`` times the base's median;
    - ``unresolved``: the base's quartile distance is wider than ``bound``
      times its median, and not every change run beats every base run;
    - ``within_bound`` otherwise.
    """
    b, c = spread(base), spread(change)
    better_by = (b["median"] - c["median"]) if lower else (c["median"] - b["median"])
    if wins >= 0.9 * len(base) and better_by > b["q3"] - b["q1"]:
        return "gain"
    if -better_by > bound * b["median"]:
        return "regression"
    all_beat = max(change) < min(base) if lower else min(change) > max(base)
    if b["q3"] - b["q1"] > bound * b["median"] and not all_beat:
        return "unresolved"
    return "within_bound"


def summarize(runs, metrics):
    """Per end-to-end metric: both sides' quartiles, the per-pair
    change/base ratios, the pairs the change won and its :func:`verdict`."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        ratios = [c / b for b, c in zip(base, change)]  # end-to-end metrics are never 0
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "base": spread(base), "change": spread(change), "ratios": ratios,
                     "ratio_median": statistics.median(ratios), "ratio_min": min(ratios),
                     "ratio_max": max(ratios), "change_wins": wins, "pairs": len(runs),
                     "verdict": verdict(base, change, wins, lower, m["bound"])}
    return out


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    if args.pairs < 1 or args.tier1 < 0:
        raise SystemExit("error: --pairs must be >= 1 and --tier1 >= 0")
    tmp = tempfile.mkdtemp(prefix="ab_pairs-")
    try:
        trees = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            if rev is None:
                trees[side] = {"rev": "working tree", "commit": git("rev-parse", "HEAD"),
                               "dirty": bool(git("status", "--porcelain")), "path": ROOT}
                continue
            path = os.path.join(tmp, side)
            with tarfile.open(fileobj=io.BytesIO(git("archive", rev, text=False))) as tar:
                tar.extractall(path)
            trees[side] = {"rev": rev, "commit": git("rev-parse", rev), "path": path}
        report = {"base": {k: v for k, v in trees["base"].items() if k != "path"},
                  "change": {k: v for k, v in trees["change"].items() if k != "path"},
                  "seconds": seconds, "pairs": args.pairs, "first_seed": args.seed,
                  "env": {"openblas_corename": openblas_corename(), "nproc": os.cpu_count(),
                          "cpus_usable": len(os.sched_getaffinity(0))},
                  "workloads": {}}
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side]["path"], workload, seed, seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
                env = pair["base"].pop("env")
                pair["change"].pop("env")
                runs.append(pair)
            report["env"].update({k: env.get(k) for k in ("python", "numpy", "blas", "blas_version",
                                                           "blas_threads_requested", "blas_threads_reported")})
            report["workloads"][workload] = {
                "digests_equal": all(r["base"]["output_digest"] == r["change"]["output_digest"] for r in runs),
                "failed": {side: sum(r[side]["failed"] for r in runs) for side in ("base", "change")},
                "metrics": summarize(runs, bench["end_to_end"]), "runs": runs}
        if args.tier1:
            runs = []
            for i in range(args.tier1):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                run = {"run": i, "first": order[0]}
                for side in order:
                    run[side] = run_tier1(trees[side]["path"])
                    print(f"tier1 run {i} {side}: {json.dumps(run[side])}", file=sys.stderr, flush=True)
                runs.append(run)
            report["tier1"] = {"command": " ".join(["PYTHONPATH=src", "python", *TIER1[1:]]),
                               "wall_s": {side: spread([r[side]["wall_s"] for r in runs])
                                          for side in ("base", "change")},
                               "runs": runs}
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
