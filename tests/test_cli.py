import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import blockmdm
from blockmdm import synthtask, talker
from blockmdm.cli import main

SMALL_MODEL_ARGS = ["--data-tokens", "12", "--source-vocab", "8", "--d", "16", "--d-ff", "32",
                    "--layers", "1", "--heads", "2", "--block-size", "4", "--anchors", "2",
                    "--t-max", "32"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    rc = main(["gen-data", "--out", str(path), "--count", "60", "--n-min", "2", "--n-max", "5",
               "--seed", "1", "--source-vocab", "8", "--data-tokens", "12", "--upsample", "2"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    rc = main(["train", "--data", str(corpus), "--out", str(path), "--steps", "12",
               "--seed", "0", "--batch-size", "2"] + SMALL_MODEL_ARGS)
    assert rc == 0
    return path


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["gradcheck", "--bogus-flag", "1"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["decode", "--help"]) == 0
        capsys.readouterr()

    def test_python_m_cli_prints_usage(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(blockmdm.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "blockmdm.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: blockmdm")


class TestGradcheckCommand:
    def test_exits_zero_and_prints_max_rel_error(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--coords", "4"]) == 0
        out = capsys.readouterr().out
        assert "max rel err" in out


class TestGenData:
    def test_writes_readable_corpus(self, corpus):
        spec, pairs = synthtask.read_corpus(corpus)
        assert len(pairs) == 60
        assert spec.source_vocab == 8


class TestTrainAndDistill:
    def test_train_writes_checkpoint_and_curve(self, corpus, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        curve = tmp_path / "curve.csv"
        rc = main(["train", "--data", str(corpus), "--out", str(ckpt), "--curve", str(curve),
                   "--steps", "6", "--seed", "0", "--batch-size", "2"] + SMALL_MODEL_ARGS)
        assert rc == 0
        cfg, _ = talker.load_checkpoint(ckpt)
        assert cfg.d == 16
        header, *rows = curve.read_text().strip().splitlines()
        assert header == "step,loss,kd_loss,mdm_loss"
        assert len(rows) == 6

    def test_distill_runs_from_checkpoint(self, corpus, checkpoint, tmp_path):
        out = tmp_path / "distilled.ckpt"
        rc = main(["distill", "--checkpoint", str(checkpoint), "--data", str(corpus),
                   "--out", str(out), "--steps", "4", "--seed", "1", "--batch-size", "2",
                   "--teacher-steps", "2"])
        assert rc == 0
        cfg, params = talker.load_checkpoint(out)
        _, start = talker.load_checkpoint(checkpoint)
        assert params.digest() != start.digest()

    @pytest.mark.parametrize("command", ["train", "distill"])
    def test_log_jsonl_one_event_per_step(self, command, corpus, checkpoint, tmp_path):
        events, curve = tmp_path / "events.jsonl", tmp_path / "curve.csv"
        if command == "train":
            argv = ["train"] + SMALL_MODEL_ARGS
        else:
            argv = ["distill", "--checkpoint", str(checkpoint), "--teacher-steps", "2"]
        rc = main(argv + ["--data", str(corpus), "--out", str(tmp_path / "m.ckpt"), "--curve", str(curve),
                          "--steps", "4", "--seed", "0", "--batch-size", "3", "--log-jsonl", str(events)])
        assert rc == 0
        rows = [json.loads(line) for line in events.read_text().splitlines()]
        with open(curve, newline="") as f:
            want = list(csv.DictReader(f))
        assert [row["step"] for row in rows] == [1, 2, 3, 4]
        for row, w in zip(rows, want):
            assert set(row) == {"step", "loss", "kd_loss", "mdm_loss", "step_ms", "masked", "rows",
                                "grad_norm"}
            for key in ("loss", "kd_loss", "mdm_loss"):
                assert row[key] == float(w[key])
            assert isinstance(row["masked"], int) and isinstance(row["rows"], int)
            assert 0 < row["masked"] <= row["rows"] <= 3 * 11  # 3 targets of at most 5 * 2 + 1 tokens
            assert row["step_ms"] > 0 and row["grad_norm"] > 0
            assert (row["kd_loss"] > 0) == (command == "distill")

    def test_config_file_with_flag_override(self, corpus, tmp_path):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"steps": 3, "seed": 5, "batch_size": 2,
                                        "data_tokens": 12, "source_vocab": 8, "d": 16,
                                        "d_ff": 32, "layers": 1, "heads": 2, "block_size": 4,
                                        "anchors": 2, "t_max": 32}))
        ckpt = tmp_path / "m.ckpt"
        curve = tmp_path / "c.csv"
        rc = main(["train", "--config", str(cfg_path), "--data", str(corpus),
                   "--out", str(ckpt), "--curve", str(curve), "--steps", "2"])
        assert rc == 0
        assert len(curve.read_text().strip().splitlines()) == 3  # header + 2 (flag wins)

    def test_unknown_config_key_rejected(self, corpus, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"stepz": 3}))
        rc = main(["train", "--config", str(cfg_path), "--data", str(corpus),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1

    def test_diverged_distill_saves_last_good_checkpoint(self, corpus, checkpoint,
                                                         tmp_path, capsys):
        # poison the starting checkpoint so the first distill step goes
        # non-finite; the CLI must exit 1 and still write usable parameters
        cfg, params = talker.load_checkpoint(checkpoint)
        params.head.value.data[0, 0] = float("inf")
        bad = tmp_path / "bad.ckpt"
        talker.save_checkpoint(bad, cfg, params)
        out = tmp_path / "rescued.ckpt"
        rc = main(["distill", "--checkpoint", str(bad), "--data", str(corpus),
                   "--out", str(out), "--steps", "3", "--seed", "0", "--batch-size", "2",
                   "--teacher-steps", "2"])
        assert rc == 1
        assert "last good" in capsys.readouterr().err
        talker.load_checkpoint(out)  # parseable


class TestDecodeCommand:
    def test_steps_zero_is_parameter_error_exit_1(self, checkpoint, corpus, capsys):
        rc = main(["decode", "--checkpoint", str(checkpoint), "--input", str(corpus),
                   "--steps", "0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_emits_newline_delimited_tokens_and_trace(self, checkpoint, corpus, tmp_path):
        out = tmp_path / "tokens.txt"
        trace = tmp_path / "trace.json"
        rc = main(["decode", "--checkpoint", str(checkpoint), "--input", str(corpus),
                   "--steps", "2", "--max-blocks", "4",
                   "--output", str(out), "--trace", str(trace)])
        assert rc == 0
        chunks = out.read_text().strip().split("\n\n")
        _, pairs = synthtask.read_corpus(corpus)
        assert len(chunks) == len(pairs)
        for chunk in chunks:
            assert all(line.strip().lstrip("-").isdigit() for line in chunk.splitlines())
        data = json.loads(trace.read_text())
        assert len(data["traces"]) == len(pairs)
        first = data["traces"][0]
        assert first["blocks"][0]["forward_passes"] <= 2
        assert first["wall_time"]["nondeterministic"] is True

    def test_log_jsonl_one_event_per_block(self, checkpoint, corpus, tmp_path):
        out, trace, events = tmp_path / "tokens.txt", tmp_path / "trace.json", tmp_path / "events.jsonl"
        rc = main(["decode", "--checkpoint", str(checkpoint), "--input", str(corpus), "--steps", "2",
                   "--max-blocks", "4", "--output", str(out), "--trace", str(trace),
                   "--log-jsonl", str(events)])
        assert rc == 0
        rows = [json.loads(line) for line in events.read_text().splitlines()]
        traces = json.loads(trace.read_text())["traces"]
        want = [(t["input_index"], b) for t in traces for b in t["blocks"]]
        assert [(row["input_index"], row["block"]) for row in rows] == [(i, b["block_index"]) for i, b in want]
        for row, (i, b) in zip(rows, want):
            assert set(row) == {"input_index", "block", "forwards", "tokens", "wall_ms", "dropped_rows",
                                "mean_confidence", "mean_entropy"}
            assert row["dropped_rows"] == traces[i]["dropped_rows"] == 0
            assert row["forwards"] == b["forward_passes"]
            assert row["wall_ms"] == b["wall_time"]["value"] * 1e3
            steps = b["steps"]
            assert row["mean_confidence"] == float(np.mean([c for s in steps for c in s["confidences"]]))
            assert row["mean_entropy"] == float(np.mean([h for s in steps for h in s["entropies"]]))
        chunks = out.read_text().strip().split("\n\n")
        for i, t in enumerate(traces):
            tokens = [row["tokens"] for row in rows if row["input_index"] == i]
            assert sum(tokens) == t["tokens_emitted"] == len(chunks[i].splitlines())
            assert all(n == 4 for n in tokens[:-1]) and 1 <= tokens[-1] <= 4

    def test_plain_line_conditioning_file(self, checkpoint, tmp_path):
        cond = tmp_path / "sources.txt"
        cond.write_text("# two inputs\n1 2 3\n4 5\n")
        out = tmp_path / "tokens.txt"
        rc = main(["decode", "--checkpoint", str(checkpoint), "--input", str(cond),
                   "--steps", "1", "--max-blocks", "2", "--output", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n\n")) == 2

    def test_dropped_conditioning_rows_in_trace_and_events(self, checkpoint, tmp_path):
        cond = tmp_path / "sources.txt"
        cond.write_text("1 2 3\n1 2 3 4 5 6 7\n")  # 2 blocks of 2 anchors: the second drops 3 rows
        trace, events = tmp_path / "trace.json", tmp_path / "events.jsonl"
        rc = main(["decode", "--checkpoint", str(checkpoint), "--input", str(cond), "--steps", "1",
                   "--max-blocks", "2", "--output", str(tmp_path / "tokens.txt"), "--trace", str(trace),
                   "--log-jsonl", str(events)])
        assert rc == 0
        assert [t["dropped_rows"] for t in json.loads(trace.read_text())["traces"]] == [0, 3]
        rows = [json.loads(line) for line in events.read_text().splitlines()]
        assert {(row["input_index"], row["dropped_rows"]) for row in rows} == {(0, 0), (1, 3)}

    def test_missing_checkpoint_exit_1(self, corpus):
        assert main(["decode", "--checkpoint", "/nonexistent.ckpt", "--input", str(corpus),
                     "--steps", "1"]) == 1

    @pytest.mark.parametrize("defect", ["no_params", "transposed", "trailing", "zero_heads"])
    def test_malformed_checkpoint_one_error_line(self, checkpoint, corpus, tmp_path, capsys, defect):
        magic, header, body = checkpoint.read_bytes().split(b"\n", 2)
        header = json.loads(header)
        if defect == "no_params":
            del header["params"]
        elif defect == "transposed":
            header["params"][0]["shape"].reverse()
        elif defect == "zero_heads":
            header["config"]["n_heads"] = 0
        else:
            body += b"\0" * 8
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + body)
        for argv in (["decode", "--checkpoint", str(bad), "--input", str(corpus), "--steps", "1"],
                     ["bench", "--checkpoint", f"bad={bad}", "--eval", str(corpus), "--steps", "1"]):
            capsys.readouterr()
            assert main(argv) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0]


def TRAIN_ARGV(data, f):
    return ["train", "--data", data, "--out", f + ".ckpt", "--steps", "1", "--batch-size", "2"] + SMALL_MODEL_ARGS


def DISTILL_ARGV(ckpt, data, f):
    return ["distill", "--checkpoint", ckpt, "--data", data, "--out", f + ".ckpt", "--steps", "1",
            "--batch-size", "2", "--teacher-steps", "2"]


MALFORMED_INPUTS = {
    # case: (file contents, argv builder taking the file, checkpoint and corpus)
    "corpus_header_json": (synthtask.CORPUS_MAGIC + "{bad json\n",
                           lambda f, ckpt, corpus: ["decode", "--checkpoint", ckpt, "--input", f]),
    "corpus_token": (synthtask.CORPUS_MAGIC + '{"count": 1, "spec": {}}\n1 2 x\n3 4\n\n',
                     lambda f, ckpt, corpus: ["bench", "--checkpoint", f"base={ckpt}", "--eval", f,
                                              "--steps", "1"]),
    "conditioning_token": ("1 2 3\n1 2 x\n",
                           lambda f, ckpt, corpus: ["decode", "--checkpoint", ckpt, "--input", f]),
    "config_json": ("{bad json", lambda f, ckpt, corpus: ["gradcheck", "--config", f]),
    "config_not_object": ("[]", lambda f, ckpt, corpus: ["gradcheck", "--config", f]),
    "config_value_type": ('{"T": "32"}', lambda f, ckpt, corpus: ["gradcheck", "--config", f]),
    "distill_masking_typo": ('{"masking": "hierarchal"}',
                             lambda f, ckpt, corpus: ["distill", "--config", f, "--checkpoint", ckpt,
                                                      "--data", corpus, "--out", f + ".ckpt",
                                                      "--steps", "1", "--batch-size", "2"]),
    "negative_seed": ("", lambda f, ckpt, corpus: ["gradcheck", "--seed", "-1"]),
    "maskstats_range": ("", lambda f, ckpt, corpus: ["maskstats", "--gamma-g", "0.3"]),
    "bench_steps": ("", lambda f, ckpt, corpus: ["bench", "--checkpoint", f"base={ckpt}",
                                                 "--eval", corpus, "--steps", "4,x"]),
    "train_batch_size_zero": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--batch-size", "0"]),
    "train_steps_zero": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--steps", "0"]),
    "train_negative_lr": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--lr", "-1"]),
    "distill_steps_zero": ("", lambda f, ckpt, corpus: ["distill", "--checkpoint", ckpt, "--data", corpus,
                                                        "--out", f + ".ckpt", "--steps", "0"]),
    "train_target_over_t_max": (synthtask.CORPUS_MAGIC + '{"count": 1, "spec": {}}\n1 2\n1 2 3 4 5 6 7 8 9\n',
                                lambda f, ckpt, corpus: TRAIN_ARGV(f, f) + ["--t-max", "8"]),
    "train_heads_zero": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--heads", "0"]),
    "train_d_zero": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--d", "0"]),
    "train_d_negative": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--d", "-16"]),
    "train_layers_zero": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--layers", "0"]),
    "gradcheck_d_zero": ("", lambda f, ckpt, corpus: ["gradcheck", "--d", "0"]),
    "gradcheck_layers_negative": ("", lambda f, ckpt, corpus: ["gradcheck", "--layers", "-1"]),
    "train_lr_inf": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--lr", "inf"]),
    "train_weight_decay_inf": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--weight-decay", "inf"]),
    "train_data_directory": ("", lambda f, ckpt, corpus: TRAIN_ARGV(os.path.dirname(f), f)),
    "train_huge_lr": ("", lambda f, ckpt, corpus: TRAIN_ARGV(corpus, f) + ["--lr", "1e300", "--steps", "3"]),
    "distill_tau_nan": ("", lambda f, ckpt, corpus: DISTILL_ARGV(ckpt, corpus, f) + ["--tau", "nan"]),
    "distill_tau_inf": ("", lambda f, ckpt, corpus: DISTILL_ARGV(ckpt, corpus, f) + ["--tau", "inf"]),
    "gradcheck_tolerance_nan": ("", lambda f, ckpt, corpus: ["gradcheck", "--tolerance", "nan"]),
    "gradcheck_coords_zero": ("", lambda f, ckpt, corpus: ["gradcheck", "--coords", "0"]),
    "gradcheck_coords_negative": ("", lambda f, ckpt, corpus: ["gradcheck", "--coords", "-1"]),
    "gradcheck_T_zero": ("", lambda f, ckpt, corpus: ["gradcheck", "--T", "0"]),
    "maskstats_delta_nan": ("", lambda f, ckpt, corpus: ["maskstats", "--mode", "global_bernoulli", "--T", "64",
                                                         "--samples", "1000", "--delta", "nan"]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning is a second stderr line
@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_one_error_line(case, checkpoint, corpus, tmp_path, capsys):
    text, argv = MALFORMED_INPUTS[case]
    bad = tmp_path / "input.txt"
    bad.write_text(text)
    capsys.readouterr()
    assert main(argv(str(bad), str(checkpoint), str(corpus))) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    if text:
        assert str(bad) in err[0]


class TestMaskstatsCommand:
    def test_json_and_csv_outputs(self, tmp_path, capsys):
        oj, oc = tmp_path / "stats.json", tmp_path / "stats.csv"
        rc = main(["maskstats", "--samples", "1000", "--T", "64", "--block-size", "16",
                   "--seed", "0", "--out-json", str(oj), "--out-csv", str(oc)])
        assert rc == 0
        capsys.readouterr()
        data = json.loads(oj.read_text())
        assert data["mode"] == "hierarchical"
        assert data["quantization_bound_violations"] == 0
        lines = oc.read_text().strip().splitlines()
        assert lines[0] == "ratio_bin_center,count"
        assert len(lines) == 18  # header + B+1 bins


class TestBenchCommand:
    def test_sweep_csv_and_json(self, checkpoint, corpus, tmp_path, capsys):
        oj, oc = tmp_path / "bench.json", tmp_path / "bench.csv"
        rc = main(["bench", "--checkpoint", f"base={checkpoint}", "--eval", str(corpus),
                   "--steps", "2,1", "--max-blocks", "4",
                   "--out-json", str(oj), "--out-csv", str(oc)])
        assert rc == 0
        capsys.readouterr()
        data = json.loads(oj.read_text())
        assert len(data["rows"]) == 2
        assert data["rows"][0]["tps"]["nondeterministic"] is True
        header = oc.read_text().splitlines()[0]
        assert header.startswith("checkpoint,K,tps,rtf_analog,err_rate")

    def test_eval_config_key(self, checkpoint, corpus, tmp_path, capsys):
        """The config key of --eval is ``eval``, like every other long option name."""
        cfg_path = tmp_path / "bench.json"
        argv = ["bench", "--config", str(cfg_path), "--checkpoint", f"base={checkpoint}", "--steps", "1",
                "--max-blocks", "1"]
        cfg_path.write_text(json.dumps({"eval": str(corpus)}))
        assert main(argv) == 0
        cfg_path.write_text(json.dumps({"eval_path": str(corpus)}))
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['eval_path']\n"

    def test_bad_checkpoint_spec_exit_1(self, corpus):
        assert main(["bench", "--checkpoint", "nolabel", "--eval", str(corpus)]) == 1
