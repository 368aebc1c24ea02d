"""README's event paragraphs list exactly the keys that real events carry."""

import json
import os
import re

from blockmdm.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
MODEL_ARGS = ["--data-tokens", "12", "--source-vocab", "8", "--d", "16", "--d-ff", "32", "--layers", "1",
              "--heads", "2", "--block-size", "4", "--anchors", "2", "--t-max", "32"]


def listed_keys(heading, split=None):
    """The backticked keys of README's ``**heading**`` paragraph after its
    title, leaving out parenthesized remarks; with ``split``, as two lists:
    the keys before that phrase and those after it."""
    with open(README, encoding="utf-8") as f:
        paragraph = f.read().split(f"**{heading}**", 1)[1].split("\n\n", 1)[0]
    body = re.sub(r"\([^()]*\)", "", paragraph.split("): ", 1)[1])
    parts = body.split(split) if split else [body]
    assert len(parts) == (2 if split else 1), heading
    return [re.findall(r"`([a-z_]+)`", part) for part in parts]


def first_event(path):
    with open(path, encoding="utf-8") as f:
        return json.loads(f.readline())


def test_event_keys_match_readme(tmp_path):
    corpus, ckpt = tmp_path / "corpus.txt", tmp_path / "model.ckpt"
    assert main(["gen-data", "--out", str(corpus), "--count", "4", "--n-min", "2", "--n-max", "3", "--seed", "1",
                 "--source-vocab", "8", "--data-tokens", "12", "--upsample", "2"]) == 0
    common, rollout = listed_keys("Training events", split="Distillation events also carry")
    assert main(["train", "--data", str(corpus), "--out", str(ckpt), "--steps", "1", "--batch-size", "2",
                 "--log-jsonl", str(tmp_path / "train.jsonl")] + MODEL_ARGS) == 0
    assert main(["distill", "--checkpoint", str(ckpt), "--data", str(corpus), "--out", str(tmp_path / "d.ckpt"),
                 "--steps", "1", "--batch-size", "2", "--log-jsonl", str(tmp_path / "distill.jsonl")]) == 0
    assert sorted(first_event(tmp_path / "train.jsonl")) == sorted(common)
    assert sorted(first_event(tmp_path / "distill.jsonl")) == sorted(common + rollout)

    (decoded,) = listed_keys("Decode events")
    (tmp_path / "cond.txt").write_text("1 2 3\n")
    assert main(["decode", "--checkpoint", str(ckpt), "--input", str(tmp_path / "cond.txt"), "--steps", "2",
                 "--max-blocks", "2", "--output", str(tmp_path / "tokens.txt"),
                 "--log-jsonl", str(tmp_path / "decode.jsonl")]) == 0
    assert sorted(first_event(tmp_path / "decode.jsonl")) == sorted(decoded)
