"""Fuzz tests of the four input parsers, run through the CLI.

Arbitrary bytes and small byte-level mutations of a valid file, given as a
corpus (``train --data``), a conditioning file (``decode --input``), a
config (``--config``) or a checkpoint (``decode --checkpoint``), must end
in exit 0 or in exit 1 with exactly one ``error:`` line, never in a
traceback (a warning line may precede the error). The valid files use a
tiny model and small values, so a mutation (at most three edits of up to
three bytes) cannot ask for a long run. Examples are derandomized, so
every run checks the same inputs.

Each flag of each subcommand is also given an edge value (zero, negative,
NaN, infinite or not a number) on top of a tiny valid command line: the
exit must be 0, 2 (usage) or 1 with exactly one ``error:`` line.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from blockmdm import nd, synthtask, talker
from blockmdm.cli import OPTIONS, main

CFG = talker.TalkerConfig(data_tokens=12, src_vocab=8, d=8, d_ff=8, n_layers=1, n_heads=2,
                          B=4, Q=2, T_max=32)
MODEL_ARGS = ["--data-tokens", "12", "--source-vocab", "8", "--d", "8", "--d-ff", "8",
              "--layers", "1", "--heads", "2", "--block-size", "4", "--anchors", "2", "--t-max", "32"]
SPEC = synthtask.TaskSpec(source_vocab=8, data_tokens=12, upsample=2, grammar_seed=1)
FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory with a valid input of each kind; fuzzed bytes are written beside them."""
    root = tmp_path_factory.mktemp("fuzz")
    pairs = synthtask.gen_dataset(SPEC, 3, (2, 3), nd.make_rng(0), eos_id=CFG.vocab.eos_id)
    synthtask.write_corpus(root / "corpus.txt", SPEC, pairs)
    talker.save_checkpoint(root / "model.ckpt", CFG, talker.init_params(CFG, nd.make_rng(1)))
    (root / "sources.txt").write_text("# two inputs\n1 2 3\n4 5\n")
    (root / "gen.json").write_text(json.dumps({"count": 3, "n_min": 2, "n_max": 3, "seed": 1,
                                               "source_vocab": 5, "data_tokens": 4, "upsample": 2,
                                               "noise": 0.1}))
    return root


def argv_for(kind, path, root):
    """The command that parses ``path`` as an input of ``kind``."""
    if kind == "corpus":
        return ["train", "--data", path, "--out", str(root / "out.ckpt"), "--steps", "1",
                "--batch-size", "2"] + MODEL_ARGS
    if kind == "sources":
        return ["decode", "--checkpoint", str(root / "model.ckpt"), "--input", path,
                "--steps", "1", "--max-blocks", "2", "--output", str(root / "tokens.txt")]
    if kind == "gen":
        return ["gen-data", "--config", path, "--out", str(root / "gen.txt")]
    return ["decode", "--checkpoint", path, "--input", str(root / "sources.txt"), "--steps", "1",
            "--max-blocks", "2", "--output", str(root / "tokens.txt")]


VALID = {"corpus": "corpus.txt", "sources": "sources.txt", "gen": "gen.json", "checkpoint": "model.ckpt"}


def check_clean_exit(kind, data, root):
    path = root / f"fuzzed-{kind}"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv_for(kind, str(path), root))
    assert code in (0, 1), (code, err.getvalue())
    if code == 1:  # a warning (say, dropped surplus conditioning rows) may come first
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and "Traceback" not in err.getvalue(), err.getvalue()
    return code


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, at, chunk in edits:
        at %= len(out) + 1
        if op == "insert":
            out[at:at] = chunk
        elif op == "delete":
            del out[at:at + len(chunk)]
        else:
            out[at:at + len(chunk)] = chunk
    return bytes(out)


EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                           st.integers(0, 1 << 16), st.binary(min_size=1, max_size=3)),
                 min_size=1, max_size=3)


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_inputs_exit_0(kind, files):
    assert check_clean_exit(kind, (files / VALID[kind]).read_bytes(), files) == 0


@pytest.mark.parametrize("kind", sorted(VALID))
@FUZZ
@given(data=st.binary(max_size=300))
def test_arbitrary_bytes(kind, files, data):
    check_clean_exit(kind, data, files)


@pytest.mark.parametrize("kind", sorted(VALID))
@FUZZ
@given(edits=EDITS, near_start=st.booleans())
def test_mutated_valid_file(kind, files, edits, near_start):
    data = (files / VALID[kind]).read_bytes()
    if near_start:  # a checkpoint's header is its first few hundred bytes
        edits = [(op, at % 600, chunk) for op, at, chunk in edits]
    check_clean_exit(kind, mutate(data, edits), files)


@pytest.mark.parametrize("text", ["-1 2\n", "99999999999999999999999 1\n", "١ 2\n"])
def test_token_edge_cases(files, text):
    # a negative id, an id beyond any integer type, a non-ASCII digit
    check_clean_exit("sources", text.encode(), files)


def tiny_argv(command, root):
    """A valid, quick invocation of ``command`` on the fixture files; outputs go to the working directory."""
    ckpt, corpus = str(root / "model.ckpt"), str(root / "corpus.txt")
    return {
        "gen-data": ["gen-data", "--out", "gen.txt", "--count", "3", "--n-min", "2", "--n-max", "3",
                     "--source-vocab", "8", "--data-tokens", "12", "--upsample", "2"],
        "train": ["train", "--data", corpus, "--out", "out.ckpt", "--steps", "1", "--batch-size", "2",
                  *MODEL_ARGS],
        "distill": ["distill", "--checkpoint", ckpt, "--data", corpus, "--out", "out.ckpt", "--steps", "1",
                    "--batch-size", "2", "--teacher-steps", "2"],
        "decode": ["decode", "--checkpoint", ckpt, "--input", corpus, "--steps", "1", "--max-blocks", "2",
                   "--output", "tokens.txt"],
        "bench": ["bench", "--checkpoint", f"base={ckpt}", "--eval", corpus, "--steps", "1",
                  "--max-blocks", "2"],
        "maskstats": ["maskstats", "--T", "16", "--block-size", "4", "--samples", "1000"],
        "gradcheck": ["gradcheck", "--d", "4", "--layers", "1", "--T", "8", "--coords", "2"],
    }[command]


def run_in_fresh_dir(argv):
    """``main(argv)`` in a new empty working directory; returns the exit code and stderr."""
    home, err = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                return main(argv), err.getvalue()
        finally:
            os.chdir(home)


# no large values: a huge --T or --count asks for gigabytes or a long run
EDGE_VALUES = ["0", "-1", "nan", "inf", "x"]
FLAGS = [(command, flag) for command, (_, rows) in OPTIONS.items() for flag in ["config"] + [r[0] for r in rows]]


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_tiny_argv_exit_0(command, files):
    assert run_in_fresh_dir(tiny_argv(command, files)) == (0, "")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning is a second stderr line
@pytest.mark.parametrize("command, flag", FLAGS)
@settings(FUZZ, max_examples=len(EDGE_VALUES))
@given(value=st.sampled_from(EDGE_VALUES))
def test_edge_flag_value(command, flag, files, value):
    code, err = run_in_fresh_dir(tiny_argv(command, files) + ["--" + flag, value])
    assert code in (0, 1, 2), code
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
