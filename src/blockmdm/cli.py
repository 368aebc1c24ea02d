"""Command-line interface.

Subcommands: ``gen-data``, ``train``, ``distill``, ``decode``, ``bench``,
``maskstats``, ``gradcheck``, each declared once in :data:`OPTIONS`. Every
subcommand accepts ``--config FILE`` pointing at a JSON document whose keys
are the long option names with underscores; explicit command-line flags
override config values, which override built-in defaults. Value ranges are
checked by the domain types the values go into. Exit codes: 0 on success,
1 on any domain error (bad parameter, malformed file, diverged run), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict

import numpy as np

from . import bench, decode as decode_mod, masking, nd, synthtask, talker, training
from .errors import BlockMDMError, InputError, ParameterError, TrainingDivergedError

REQUIRED = object()  # the default of a flag that must be given on the command line

_TRAINING_IO = [("data", str, REQUIRED), ("out", str, REQUIRED), ("curve", str, None),
                ("log-jsonl", str, None, "write one JSON object per training step to this file")]
_OPTIMIZER = [("lr", float, 1e-3), ("batch-size", int, 8), ("weight-decay", float, 0.01)]
_GAMMA_G = [("gamma-g-min", float, 0.3), ("gamma-g-max", float, 0.8)]
_MODEL = [("data-tokens", int, 64), ("source-vocab", int, 256), ("d", int, 64), ("d-ff", int, 256),
          ("layers", int, 4), ("heads", int, 4), ("block-size", int, 16), ("anchors", int, 4),
          ("t-max", int, 256)]
_MASKING_MODES = ("hierarchical", "global_bernoulli")

# Per subcommand: its help line and its options as (flag, type, default[, help]).
# The config key is the flag with "-" turned into "_". A type is int, float,
# str, a tuple of choices, or list (bench's repeatable --checkpoint LABEL=PATH).
OPTIONS = {
    "gen-data": ("generate a synthetic corpus file", [
        ("out", str, REQUIRED), ("count", int, 2000), ("n-min", int, 4), ("n-max", int, 12),
        ("seed", int, 0), ("source-vocab", int, 256), ("data-tokens", int, 64), ("upsample", int, 4),
        ("grammar-seed", int, 0), ("noise", float, 0.0)]),
    "train": ("masked-prediction training (stage one)", [
        *_TRAINING_IO, ("steps", int, 3000), ("seed", int, 0), *_OPTIMIZER, *_GAMMA_G, *_MODEL]),
    "distill": ("self-distillation fine-tuning (stage two)", [
        ("checkpoint", str, REQUIRED), *_TRAINING_IO, ("steps", int, 1500), ("seed", int, 0), *_OPTIMIZER,
        ("alpha", float, 0.7), ("tau", float, 2.0), ("teacher-steps", int, 4),
        ("kl", ("reverse", "forward"), "reverse"), ("masking", _MASKING_MODES, "hierarchical"),
        ("gamma-c-min", float, 0.5), ("gamma-c-max", float, 1.0),
        ("gamma-t-min", float, 0.3), ("gamma-t-max", float, 1.0), *_GAMMA_G]),
    "decode": ("stream blocks for each conditioning input", [
        ("checkpoint", str, REQUIRED),
        ("input", str, REQUIRED, "conditioning file: corpus file or one source sequence per line"),
        ("output", str, None), ("trace", str, None),
        ("log-jsonl", str, None, "write one JSON object per decoded block to this file"),
        ("steps", int, 4), ("block-size", int, None), ("max-blocks", int, 8), ("seed", int, 0)]),
    "bench": ("step-sweep benchmark over checkpoints", [
        ("checkpoint", list, None), ("eval", str, None),
        ("steps", str, "16,8,4,2,1", "comma-separated step counts, e.g. 16,8,4,2,1"),
        ("repetitions", int, 1), ("seed", int, 0), ("max-blocks", int, 8),
        ("out-json", str, None), ("out-csv", str, None)]),
    "maskstats": ("masking sampler statistics report", [
        ("mode", _MASKING_MODES, "hierarchical"), ("T", int, 256), ("block-size", int, 16),
        ("samples", int, 10000), ("seed", int, 0), ("delta", float, 0.2),
        ("gamma-g", str, "0.3,0.8", "min,max"), ("gamma-c", str, "0.5,1.0", "min,max"),
        ("gamma-t", str, "0.3,1.0", "min,max"), ("out-json", str, None), ("out-csv", str, None)]),
    "gradcheck": ("finite-difference gradient verification", [
        ("seed", int, 0), ("d", int, 16), ("layers", int, 2), ("T", int, 32), ("epsilon", float, 1e-6),
        ("coords", int, 12), ("tolerance", float, 1e-5)]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockmdm",
                                     description="Masked diffusion training and block-wise decoding")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, rows) in OPTIONS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config")
        for flag, kind, default, *help_text in rows:
            if isinstance(kind, tuple):
                kw = {"choices": kind}
            elif kind is list:
                kw = {"action": "append", "metavar": "LABEL=PATH"}
            else:
                kw = {"type": kind}
            p.add_argument("--" + flag, required=default is REQUIRED,
                           help=help_text[0] if help_text else None, **kw)
    return parser


def _merge(args) -> argparse.Namespace:
    """Resolve option values: explicit flag > config file > default."""
    table = {flag.replace("-", "_"): (kind, default) for flag, kind, default, *_ in OPTIONS[args.command][1]}
    cfg = {}
    if args.config:
        with open(args.config, "rb") as f:
            try:
                cfg = json.loads(f.read().decode("utf-8"))
            except ValueError as e:  # bad UTF-8 or bad JSON
                raise ParameterError(f"{args.config}: malformed config JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ParameterError(f"{args.config}: config must be a JSON object")
        unknown = set(cfg) - set(table)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for key, value in cfg.items():
            kind = table[key][0]
            # an int also serves for a float; bench's checkpoints may be one
            # LABEL=PATH string, a list of them or a {label: path} object
            want = {float: (int, float), list: (str, list, dict)}.get(
                kind, str if isinstance(kind, tuple) else kind)
            if isinstance(value, bool) or not isinstance(value, want):
                raise ParameterError(f"{args.config}: config key {key!r} has the wrong type: {value!r}")
            if isinstance(kind, tuple) and value not in kind:
                raise ParameterError(f"{args.config}: config key {key!r} must be one of "
                                     f"{list(kind)}, got {value!r}")
    out = {}
    for key, (_, default) in table.items():
        cli_val = getattr(args, key)
        out[key] = cli_val if cli_val is not None else cfg.get(key, default)
    return argparse.Namespace(**out)


def _model_config(ns) -> talker.TalkerConfig:
    return talker.TalkerConfig(
        data_tokens=ns.data_tokens, src_vocab=ns.source_vocab, d=ns.d, d_ff=ns.d_ff,
        n_layers=ns.layers, n_heads=ns.heads, B=ns.block_size, Q=ns.anchors, T_max=ns.t_max)


def _pair(text):
    try:
        lo, hi = (float(x) for x in str(text).split(","))
    except ValueError:
        raise ParameterError(f"expected a range min,max, got {text!r}") from None
    return (lo, hi)


def cmd_gen_data(ns) -> int:
    spec = synthtask.TaskSpec(source_vocab=ns.source_vocab, data_tokens=ns.data_tokens,
                              upsample=ns.upsample, grammar_seed=ns.grammar_seed, noise_rho=ns.noise)
    eos_id = talker.Vocabulary.with_specials(ns.data_tokens).eos_id
    pairs = synthtask.gen_dataset(spec, ns.count, (ns.n_min, ns.n_max), nd.make_rng(ns.seed), eos_id=eos_id)
    synthtask.write_corpus(ns.out, spec, pairs)
    print(f"wrote {len(pairs)} samples to {ns.out}")
    return 0


@contextlib.contextmanager
def _step_log(path, progress: bool):
    """A training ``log_cb``: the progress line on a terminal (when
    ``progress``) and one JSON object per step in ``path`` (when given);
    None when neither applies."""
    progress = progress and sys.stdout.isatty()
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext() as events:
        def log(event):
            if progress:
                print(f"step {event['step']}: loss {event['loss']:.4f}", flush=True)
            if events:
                events.write(json.dumps(event) + "\n")
                events.flush()

        yield log if progress or events else None


def _read_training_corpus(path, cfg: talker.TalkerConfig) -> list:
    """The corpus's pairs, each of whose targets fits the model's ``T_max``."""
    _, pairs = synthtask.read_corpus(path)
    longest = max((len(p.target) for p in pairs), default=0)
    if longest > cfg.T_max:
        raise InputError(f"{path}: longest target has {longest} tokens, more than the model's T_max={cfg.T_max}")
    return pairs


def _run_training(ns, cfg, verb: str, progress: bool, train) -> int:
    """Run ``train(log_cb)`` and save its checkpoint, curve and summary line;
    on divergence, save the last good parameters and report the error."""
    try:
        with _step_log(ns.log_jsonl, progress) as log:
            result = train(log)
    except TrainingDivergedError as e:
        talker.save_checkpoint(ns.out, cfg, e.params)
        print(f"error: {e}; last good parameters saved to {ns.out}", file=sys.stderr)
        return 1
    talker.save_checkpoint(ns.out, cfg, result.params)
    if ns.curve:
        training.write_curve_csv(ns.curve, result.curve)
    print(f"{verb} {ns.steps} steps, final loss {result.final_loss:.4f}, checkpoint {ns.out}")
    return 0


def cmd_train(ns) -> int:
    cfg = _model_config(ns)
    pairs = _read_training_corpus(ns.data, cfg)
    mcfg = masking.MaskingConfig(mode="global_bernoulli", gamma_g=(ns.gamma_g_min, ns.gamma_g_max))
    opt = training.OptimizerConfig(lr=ns.lr, batch_size=ns.batch_size, weight_decay=ns.weight_decay)
    return _run_training(ns, cfg, "trained", True, lambda log: training.train_mdm(
        cfg, pairs, mcfg, opt, steps=ns.steps, seed=ns.seed, log_cb=log))


def cmd_distill(ns) -> int:
    cfg, start = talker.load_checkpoint(ns.checkpoint)
    pairs = _read_training_corpus(ns.data, cfg)
    mcfg = masking.MaskingConfig(mode=ns.masking, gamma_g=(ns.gamma_g_min, ns.gamma_g_max),
                                 gamma_c=(ns.gamma_c_min, ns.gamma_c_max),
                                 gamma_t=(ns.gamma_t_min, ns.gamma_t_max))
    dcfg = training.DistillConfig(K=ns.teacher_steps, tau=ns.tau, alpha=ns.alpha, kl_direction=ns.kl)
    opt = training.OptimizerConfig(lr=ns.lr, batch_size=ns.batch_size, weight_decay=ns.weight_decay)
    return _run_training(ns, cfg, "distilled", False, lambda log: training.train_distill(
        cfg, start, pairs, dcfg, mcfg, opt, steps=ns.steps, seed=ns.seed, log_cb=log))


def _read_conditioning(path):
    """Source sequences from a corpus file or a plain one-per-line file."""
    lines = synthtask.read_text_lines(path)
    if lines and lines[0].startswith(synthtask.CORPUS_MAGIC):
        _, pairs = synthtask.read_corpus(path)
        return [p.source for p in pairs]
    sources = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            sources.append(synthtask.parse_tokens(line, path, lineno))
    return sources


def _block_events(traces, B: int):
    """One event per decoded block of ``B`` positions, read from the decode traces."""
    for i, trace in enumerate(traces):
        for btrace in trace.blocks:
            conf = [c for step in btrace.steps for c in step.confidences]
            entropy = [h for step in btrace.steps for h in step.entropies]
            yield {"input_index": i, "block": btrace.block_index, "forwards": btrace.forward_passes,
                   "tokens": min(B, trace.tokens_emitted - btrace.block_index * B),
                   "wall_ms": btrace.wall_time * 1e3, "dropped_rows": trace.dropped_rows,
                   "mean_confidence": float(np.mean(conf)), "mean_entropy": float(np.mean(entropy))}


def cmd_decode(ns) -> int:
    cfg, params = talker.load_checkpoint(ns.checkpoint)
    block_size = ns.block_size if ns.block_size is not None else cfg.B
    dcfg = decode_mod.DecodeConfig(B=block_size, K=ns.steps, max_blocks=ns.max_blocks,
                                   eos_id=cfg.vocab.eos_id)
    sources = _read_conditioning(ns.input)
    out = open(ns.output, "w", encoding="utf-8") if ns.output else sys.stdout
    traces = []
    try:
        for i, source in enumerate(sources):
            result = decode_mod.decode_source(source, params, cfg, dcfg)
            if i:
                out.write("\n")
            for tok in result.tokens:
                out.write(f"{int(tok)}\n")
            traces.append(result.trace)
    finally:
        if out is not sys.stdout:
            out.close()
    if ns.trace:
        with open(ns.trace, "w", encoding="utf-8") as f:
            f.write(bench.report_to_json({"seed": ns.seed, "K": ns.steps, "traces": [
                {"input_index": i, **asdict(trace)} for i, trace in enumerate(traces)]}))
    if ns.log_jsonl:
        with open(ns.log_jsonl, "w", encoding="utf-8") as f:
            for event in _block_events(traces, dcfg.B):
                f.write(json.dumps(event) + "\n")
    return 0


def cmd_bench(ns) -> int:
    if not ns.checkpoint:
        raise ParameterError("bench needs at least one --checkpoint LABEL=PATH")
    checkpoints = {}
    entries = ns.checkpoint if isinstance(ns.checkpoint, (list, tuple)) else [ns.checkpoint]
    for entry in entries:
        if isinstance(entry, str):
            label, _, path = entry.partition("=")
            if not path:
                raise ParameterError(f"--checkpoint must be LABEL=PATH, got {entry!r}")
            checkpoints[label] = path
        elif isinstance(entry, dict) and all(isinstance(v, str) for v in entry.values()):
            checkpoints.update(entry)
        else:
            raise ParameterError(f"--checkpoint must be LABEL=PATH, got {entry!r}")
    try:
        steps = [int(s) for s in str(ns.steps).split(",")]
    except ValueError:
        raise ParameterError(f"--steps must be comma-separated integers, got {ns.steps!r}") from None
    ecfg = bench.ExperimentConfig(checkpoints=checkpoints, steps=steps, eval_path=ns.eval,
                                  seed=ns.seed, repetitions=ns.repetitions, max_blocks=ns.max_blocks)
    report = bench.bench_sweep(ecfg)
    if ns.out_json:
        with open(ns.out_json, "w", encoding="utf-8") as f:
            f.write(bench.report_to_json(report))
    if ns.out_csv:
        bench.write_sweep_csv(ns.out_csv, report)
    for row in report["rows"]:
        print(f"{row['checkpoint']} K={row['K']}: tps {row['tps']:.0f}  err {row['err_rate']:.4f}  "
              f"conf@1 {row['conf_step1']:.3f}")
    return 0


def cmd_maskstats(ns) -> int:
    part = masking.partition(ns.T, ns.block_size)
    mcfg = masking.MaskingConfig(mode=ns.mode, gamma_g=_pair(ns.gamma_g),
                                 gamma_c=_pair(ns.gamma_c), gamma_t=_pair(ns.gamma_t))
    report = masking.mask_stats(part, mcfg, nd.make_rng(ns.seed), ns.samples, hoeffding_delta=ns.delta)
    report["seed"] = ns.seed
    text = json.dumps(report, indent=2, sort_keys=True)
    if ns.out_json:
        with open(ns.out_json, "w", encoding="utf-8") as f:
            f.write(text)
    if ns.out_csv:
        import csv as _csv
        with open(ns.out_csv, "w", newline="") as f:
            w = _csv.writer(f)
            w.writerow(["ratio_bin_center", "count"])
            for i, count in enumerate(report["ratio_histogram"]):
                w.writerow([i / ns.block_size, count])
    print(text)
    return 0


def cmd_gradcheck(ns) -> int:
    if ns.T < 1:
        raise ParameterError(f"--T must be >= 1, got {ns.T}")
    if not 0 < ns.tolerance < np.inf:
        raise ParameterError(f"--tolerance must be finite and > 0, got {ns.tolerance}")
    cfg = talker.TalkerConfig(data_tokens=16, src_vocab=8, d=ns.d, d_ff=2 * ns.d,
                              n_layers=ns.layers, n_heads=2, B=8, Q=2, T_max=max(64, ns.T))
    rng = nd.make_rng(ns.seed)
    params = talker.init_params(cfg, rng)
    tokens = rng.integers(0, cfg.V, ns.T)
    source = rng.integers(0, cfg.src_vocab, max(1, ns.T // 8))
    targets = rng.integers(0, cfg.vocab.data_tokens, ns.T)
    mask = np.sort(rng.choice(ns.T, max(1, ns.T // 3), replace=False))

    def loss_fn():
        aligned = talker.align_for_canvas(params, cfg, source, ns.T)
        logits = talker.forward(params, cfg, tokens, aligned)
        return nd.scale(nd.masked_cross_entropy(logits, targets, mask), 1.0 / len(mask))

    report = nd.grad_check(loss_fn, params.ordered(), epsilon=ns.epsilon,
                           max_coords_per_param=ns.coords, rng=nd.make_rng(ns.seed + 1))
    print(report)
    if report.max_rel_err >= ns.tolerance:
        print(f"FAIL: max relative error {report.max_rel_err:.3e} >= tolerance {ns.tolerance:.1e}",
              file=sys.stderr)
        return 1
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "distill": cmd_distill,
    "decode": cmd_decode,
    "bench": cmd_bench,
    "maskstats": cmd_maskstats,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return COMMANDS[args.command](_merge(args))
    except (BlockMDMError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
