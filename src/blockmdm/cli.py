"""Command-line interface.

Subcommands: ``gen-data``, ``train``, ``distill``, ``decode``, ``bench``,
``maskstats``, ``gradcheck``. Every subcommand accepts ``--config FILE``
pointing at a JSON document whose keys are the long option names with
underscores; explicit command-line flags override config values, which
override built-in defaults. Exit codes: 0 on success, 1 on any domain
error (bad parameter, malformed file, diverged run), 2 on usage errors.
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


# config keys whose default is None but whose value is not a path
_NONE_DEFAULT_TYPES = {("decode", "block_size"): int, ("bench", "checkpoint"): (str, list, dict)}
# options with a fixed set of values, as flags and as config keys
_CHOICES = {"masking": ("hierarchical", "global_bernoulli"), "mode": ("hierarchical", "global_bernoulli"),
            "kl": ("reverse", "forward")}


def _config_type(command, key, default):
    """The JSON types a config value may take: the default's type (an int
    also serves for a float), a path string where the default is None."""
    if default is None:
        return _NONE_DEFAULT_TYPES.get((command, key), str)
    return (int, float) if type(default) is float else type(default)


def _merge(args, config_path, defaults):
    """Resolve option values: explicit flag > config file > default."""
    cfg = {}
    if config_path:
        with open(config_path, "rb") as f:
            try:
                cfg = json.loads(f.read().decode("utf-8"))
            except ValueError as e:  # bad UTF-8 or bad JSON
                raise ParameterError(f"{config_path}: malformed config JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ParameterError(f"{config_path}: config must be a JSON object")
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for key, value in cfg.items():
            want = _config_type(args.command, key, defaults[key])
            if isinstance(value, bool) or not isinstance(value, want):
                raise ParameterError(f"{config_path}: config key {key!r} has the wrong type: {value!r}")
            if key in _CHOICES and value not in _CHOICES[key]:
                raise ParameterError(f"{config_path}: config key {key!r} must be one of "
                                     f"{list(_CHOICES[key])}, got {value!r}")
    out = {}
    for key, default in defaults.items():
        cli_val = getattr(args, key, None)
        out[key] = cli_val if cli_val is not None else cfg.get(key, default)
    return argparse.Namespace(**out)


def _model_config(ns) -> talker.TalkerConfig:
    return talker.TalkerConfig(
        data_tokens=ns.data_tokens, src_vocab=ns.source_vocab, d=ns.d, d_ff=ns.d_ff,
        n_layers=ns.layers, n_heads=ns.heads, B=ns.block_size, Q=ns.anchors, T_max=ns.t_max)


MODEL_DEFAULTS = {
    "data_tokens": 64, "source_vocab": 256, "d": 64, "d_ff": 256,
    "layers": 4, "heads": 4, "block_size": 16, "anchors": 4, "t_max": 256,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockmdm",
                                     description="Masked diffusion training and block-wise decoding")
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("gen-data", help="generate a synthetic corpus file")
    pg.add_argument("--config")
    pg.add_argument("--out", required=True)
    pg.add_argument("--count", type=int)
    pg.add_argument("--n-min", type=int)
    pg.add_argument("--n-max", type=int)
    pg.add_argument("--seed", type=int)
    pg.add_argument("--source-vocab", type=int)
    pg.add_argument("--data-tokens", type=int)
    pg.add_argument("--upsample", type=int)
    pg.add_argument("--grammar-seed", type=int)
    pg.add_argument("--noise", type=float)

    pt = sub.add_parser("train", help="masked-prediction training (stage one)")
    pt.add_argument("--config")
    pt.add_argument("--data", required=True)
    pt.add_argument("--out", required=True)
    pt.add_argument("--curve")
    pt.add_argument("--log-jsonl", help="write one JSON object per training step to this file")
    pt.add_argument("--steps", type=int)
    pt.add_argument("--seed", type=int)
    pt.add_argument("--lr", type=float)
    pt.add_argument("--batch-size", type=int)
    pt.add_argument("--weight-decay", type=float)
    pt.add_argument("--gamma-g-min", type=float)
    pt.add_argument("--gamma-g-max", type=float)
    for flag in ("--data-tokens", "--source-vocab", "--d", "--d-ff", "--layers",
                 "--heads", "--block-size", "--anchors", "--t-max"):
        pt.add_argument(flag, type=int)

    pd = sub.add_parser("distill", help="self-distillation fine-tuning (stage two)")
    pd.add_argument("--config")
    pd.add_argument("--checkpoint", required=True)
    pd.add_argument("--data", required=True)
    pd.add_argument("--out", required=True)
    pd.add_argument("--curve")
    pd.add_argument("--log-jsonl", help="write one JSON object per training step to this file")
    pd.add_argument("--steps", type=int)
    pd.add_argument("--seed", type=int)
    pd.add_argument("--lr", type=float)
    pd.add_argument("--batch-size", type=int)
    pd.add_argument("--weight-decay", type=float)
    pd.add_argument("--alpha", type=float)
    pd.add_argument("--tau", type=float)
    pd.add_argument("--teacher-steps", type=int)
    pd.add_argument("--kl", choices=_CHOICES["kl"])
    pd.add_argument("--masking", choices=_CHOICES["masking"])
    pd.add_argument("--gamma-c-min", type=float)
    pd.add_argument("--gamma-c-max", type=float)
    pd.add_argument("--gamma-t-min", type=float)
    pd.add_argument("--gamma-t-max", type=float)
    pd.add_argument("--gamma-g-min", type=float)
    pd.add_argument("--gamma-g-max", type=float)

    pc = sub.add_parser("decode", help="stream blocks for each conditioning input")
    pc.add_argument("--config")
    pc.add_argument("--checkpoint", required=True)
    pc.add_argument("--input", required=True,
                    help="conditioning file: corpus file or one source sequence per line")
    pc.add_argument("--output")
    pc.add_argument("--trace")
    pc.add_argument("--log-jsonl", help="write one JSON object per decoded block to this file")
    pc.add_argument("--steps", type=int)
    pc.add_argument("--block-size", type=int)
    pc.add_argument("--max-blocks", type=int)
    pc.add_argument("--seed", type=int)

    pb = sub.add_parser("bench", help="step-sweep benchmark over checkpoints")
    pb.add_argument("--config")
    pb.add_argument("--checkpoint", action="append", metavar="LABEL=PATH")
    pb.add_argument("--eval", dest="eval_path")
    pb.add_argument("--steps", help="comma-separated step counts, e.g. 16,8,4,2,1")
    pb.add_argument("--repetitions", type=int)
    pb.add_argument("--seed", type=int)
    pb.add_argument("--max-blocks", type=int)
    pb.add_argument("--out-json")
    pb.add_argument("--out-csv")

    pm = sub.add_parser("maskstats", help="masking sampler statistics report")
    pm.add_argument("--config")
    pm.add_argument("--mode", choices=_CHOICES["mode"])
    pm.add_argument("--T", type=int)
    pm.add_argument("--block-size", type=int)
    pm.add_argument("--samples", type=int)
    pm.add_argument("--seed", type=int)
    pm.add_argument("--delta", type=float)
    pm.add_argument("--gamma-g", help="min,max")
    pm.add_argument("--gamma-c", help="min,max")
    pm.add_argument("--gamma-t", help="min,max")
    pm.add_argument("--out-json")
    pm.add_argument("--out-csv")

    pk = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    pk.add_argument("--config")
    pk.add_argument("--seed", type=int)
    pk.add_argument("--d", type=int)
    pk.add_argument("--layers", type=int)
    pk.add_argument("--T", type=int)
    pk.add_argument("--epsilon", type=float)
    pk.add_argument("--coords", type=int)
    pk.add_argument("--tolerance", type=float)

    return parser


def _pair(text):
    try:
        lo, hi = (float(x) for x in str(text).split(","))
    except ValueError:
        raise ParameterError(f"expected a range min,max, got {text!r}") from None
    return (lo, hi)


def cmd_gen_data(args) -> int:
    ns = _merge(args, args.config, {
        "out": None, "count": 2000, "n_min": 4, "n_max": 12, "seed": 0,
        "source_vocab": 256, "data_tokens": 64, "upsample": 4, "grammar_seed": 0, "noise": 0.0,
    })
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


def cmd_train(args) -> int:
    defaults = dict(MODEL_DEFAULTS)
    defaults.update({"data": None, "out": None, "curve": None, "log_jsonl": None,
                     "steps": 3000, "seed": 0, "lr": 1e-3, "batch_size": 8, "weight_decay": 0.01,
                     "gamma_g_min": 0.3, "gamma_g_max": 0.8})
    ns = _merge(args, args.config, defaults)
    cfg = _model_config(ns)
    pairs = _read_training_corpus(ns.data, cfg)
    mcfg = masking.MaskingConfig(mode="global_bernoulli", gamma_g=(ns.gamma_g_min, ns.gamma_g_max))
    opt = training.OptimizerConfig(lr=ns.lr, batch_size=ns.batch_size, weight_decay=ns.weight_decay)
    try:
        with _step_log(ns.log_jsonl, progress=True) as log:
            result = training.train_mdm(cfg, pairs, mcfg, opt, steps=ns.steps, seed=ns.seed, log_cb=log)
    except TrainingDivergedError as e:
        talker.save_checkpoint(ns.out, cfg, e.params)
        print(f"error: {e}; last good parameters saved to {ns.out}", file=sys.stderr)
        return 1
    talker.save_checkpoint(ns.out, cfg, result.params)
    if ns.curve:
        training.write_curve_csv(ns.curve, result.curve)
    print(f"trained {ns.steps} steps, final loss {result.final_loss:.4f}, checkpoint {ns.out}")
    return 0


def cmd_distill(args) -> int:
    ns = _merge(args, args.config, {
        "checkpoint": None, "data": None, "out": None, "curve": None, "log_jsonl": None,
        "steps": 1500, "seed": 0,
        "lr": 1e-3, "batch_size": 8, "weight_decay": 0.01,
        "alpha": 0.7, "tau": 2.0, "teacher_steps": 4, "kl": "reverse", "masking": "hierarchical",
        "gamma_c_min": 0.5, "gamma_c_max": 1.0, "gamma_t_min": 0.3, "gamma_t_max": 1.0,
        "gamma_g_min": 0.3, "gamma_g_max": 0.8,
    })
    cfg, start = talker.load_checkpoint(ns.checkpoint)
    pairs = _read_training_corpus(ns.data, cfg)
    mcfg = masking.MaskingConfig(mode=ns.masking, gamma_g=(ns.gamma_g_min, ns.gamma_g_max),
                                 gamma_c=(ns.gamma_c_min, ns.gamma_c_max),
                                 gamma_t=(ns.gamma_t_min, ns.gamma_t_max))
    dcfg = training.DistillConfig(K=ns.teacher_steps, tau=ns.tau, alpha=ns.alpha, kl_direction=ns.kl)
    opt = training.OptimizerConfig(lr=ns.lr, batch_size=ns.batch_size, weight_decay=ns.weight_decay)
    try:
        with _step_log(ns.log_jsonl, progress=False) as log:
            result = training.train_distill(cfg, start, pairs, dcfg, mcfg, opt, steps=ns.steps,
                                            seed=ns.seed, log_cb=log)
    except TrainingDivergedError as e:
        talker.save_checkpoint(ns.out, cfg, e.params)
        print(f"error: {e}; last good parameters saved to {ns.out}", file=sys.stderr)
        return 1
    talker.save_checkpoint(ns.out, cfg, result.params)
    if ns.curve:
        training.write_curve_csv(ns.curve, result.curve)
    print(f"distilled {ns.steps} steps, final loss {result.final_loss:.4f}, checkpoint {ns.out}")
    return 0


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


def cmd_decode(args) -> int:
    ns = _merge(args, args.config, {
        "checkpoint": None, "input": None, "output": None, "trace": None, "log_jsonl": None,
        "steps": 4, "block_size": None, "max_blocks": 8, "seed": 0,
    })
    if ns.steps < 1:
        raise ParameterError(f"--steps must be >= 1, got {ns.steps}")
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


def cmd_bench(args) -> int:
    ns = _merge(args, args.config, {
        "checkpoint": None, "eval_path": None, "steps": "16,8,4,2,1",
        "repetitions": 1, "seed": 0, "max_blocks": 8, "out_json": None, "out_csv": None,
    })
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
    ecfg = bench.ExperimentConfig(checkpoints=checkpoints, steps=steps, eval_path=ns.eval_path,
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


def cmd_maskstats(args) -> int:
    ns = _merge(args, args.config, {
        "mode": "hierarchical", "T": 256, "block_size": 16, "samples": 10000, "seed": 0,
        "delta": 0.2, "gamma_g": "0.3,0.8", "gamma_c": "0.5,1.0", "gamma_t": "0.3,1.0",
        "out_json": None, "out_csv": None,
    })
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


def cmd_gradcheck(args) -> int:
    ns = _merge(args, args.config, {
        "seed": 0, "d": 16, "layers": 2, "T": 32, "epsilon": 1e-6, "coords": 12, "tolerance": 1e-5,
    })
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return COMMANDS[args.command](args)
    except BlockMDMError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
