"""Deterministic synthetic source-to-target task and corpus file I/O.

A fixed random grammar maps each source token to a length-``U`` fragment
of target tokens; a sample upsamples its source sequence fragment by
fragment and appends an end-of-sequence token, so a length-``N`` source
yields ``U * N + 1`` target tokens. With zero substitution noise the
target is a deterministic function of the source, which makes the task
exactly learnable and gives a clean token-level error metric.

Corpus file format (UTF-8 text): a header line starting with ``#``
carrying the task parameters as JSON, then one record per sample — a line
of space-separated source ids, a line of space-separated target ids, and
a blank line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InputError, ParameterError
from .nd import make_rng

CORPUS_MAGIC = "# blockmdm-corpus v1 "


@dataclass(frozen=True)
class TaskSpec:
    source_vocab: int = 32
    data_tokens: int = 64
    upsample: int = 4
    grammar_seed: int = 0
    noise_rho: float = 0.0

    def __post_init__(self):
        if self.upsample < 1:
            raise ParameterError(f"upsample must be >= 1, got {self.upsample}")
        if not (0.0 <= self.noise_rho < 0.5):
            raise ParameterError(f"noise_rho must lie in [0, 0.5), got {self.noise_rho}")
        if self.source_vocab < 1 or self.data_tokens < 2:
            raise ParameterError("source_vocab must be >= 1 and data_tokens >= 2")


@dataclass
class SamplePair:
    source: np.ndarray
    target: np.ndarray  # ends with the EOS id (= data_tokens + 1 offset handled by caller)


def gen_grammar(spec: TaskSpec) -> np.ndarray:
    """The fixed source-token -> fragment table, ``(source_vocab, U)``.

    Deterministic per grammar seed; duplicate fragments are redrawn so the
    mapping is injective whenever the fragment space allows it.
    """
    rng = make_rng(spec.grammar_seed, 7)
    table = rng.integers(0, spec.data_tokens, size=(spec.source_vocab, spec.upsample))
    if spec.data_tokens ** spec.upsample >= spec.source_vocab:
        for _ in range(64):
            _, first = np.unique(table, axis=0, return_index=True)
            dup = np.setdiff1d(np.arange(spec.source_vocab), first)
            if dup.size == 0:
                break
            table[dup] = rng.integers(0, spec.data_tokens, size=(dup.size, spec.upsample))
    return table


def gen_dataset(spec: TaskSpec, count: int, n_range, rng, eos_id: int) -> list:
    """Random samples: uniform sources, grammar-upsampled targets, optional
    per-position substitution noise, EOS appended."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    n_lo, n_hi = n_range
    if not (1 <= n_lo <= n_hi):
        raise ParameterError(f"bad source length range {n_range}")
    grammar = gen_grammar(spec)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        source = rng.integers(0, spec.source_vocab, size=n)
        target = grammar[source].reshape(-1)
        if spec.noise_rho > 0.0:
            flip = rng.random(target.size) < spec.noise_rho
            if flip.any():
                # substitute with a uniformly random *different* data token
                offset = rng.integers(1, spec.data_tokens, size=int(flip.sum()))
                target = target.copy()
                target[flip] = (target[flip] + offset) % spec.data_tokens
        pairs.append(SamplePair(source=source.astype(np.intp),
                                target=np.append(target, eos_id).astype(np.intp)))
    return pairs


@dataclass
class ErrorRate:
    rate: float
    edits: int
    flagged: bool = False


def token_error_rate(hyp, ref) -> ErrorRate:
    """Levenshtein edit count between token sequences, normalized by the
    reference length. May exceed 1 when the hypothesis is much longer; an
    empty reference against a nonempty hypothesis is flagged and normalized
    by 1."""
    hyp = np.asarray(hyp).tolist()
    ref = np.asarray(ref).tolist()
    if not ref:
        return ErrorRate(rate=float(len(hyp)), edits=len(hyp), flagged=bool(hyp))
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (h != r))
        prev = cur
    edits = prev[-1]
    return ErrorRate(rate=edits / len(ref), edits=edits)


def strip_eos(tokens, eos_id: int) -> np.ndarray:
    """Tokens before the first EOS (the whole sequence if none)."""
    tokens = np.asarray(tokens)
    hits = np.nonzero(tokens == eos_id)[0]
    return tokens[:int(hits[0])] if hits.size else tokens


def write_corpus(path, spec: TaskSpec, pairs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(CORPUS_MAGIC + json.dumps({"spec": asdict(spec), "count": len(pairs)}, sort_keys=True) + "\n")
        for p in pairs:
            f.write(" ".join(str(int(t)) for t in p.source) + "\n")
            f.write(" ".join(str(int(t)) for t in p.target) + "\n")
            f.write("\n")


def parse_tokens(text, path, lineno) -> np.ndarray:
    """The space-separated integer ids on line ``lineno`` of ``path``."""
    try:
        return np.array([int(t) for t in text.split()], dtype=np.intp)
    except (ValueError, OverflowError):
        raise InputError(f"{path}: line {lineno}: expected integer token ids, got {text!r}") from None


def read_text_lines(path) -> list:
    """The lines of a UTF-8 text file, without line ends."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e})") from None


def read_corpus(path):
    """Read a corpus file; returns ``(spec, pairs)``."""
    header, *lines = read_text_lines(path) or [""]
    if not header.startswith(CORPUS_MAGIC):
        raise InputError(f"{path}: missing corpus header")
    try:
        meta = json.loads(header[len(CORPUS_MAGIC):])
        spec = TaskSpec(**meta["spec"])
        count = meta["count"]
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"{path}: line 1: malformed corpus header: {e}") from None
    pairs = []
    lines = [ln.strip() for ln in lines]
    i = 0
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        if i + 1 >= len(lines) or not lines[i + 1]:
            raise InputError(f"{path}: record at line {i + 2} is missing its target line")
        pairs.append(SamplePair(source=parse_tokens(lines[i], path, i + 2),
                                target=parse_tokens(lines[i + 1], path, i + 3)))
        i += 2
    if len(pairs) != count:
        raise InputError(f"{path}: header says {count} records, found {len(pairs)}")
    return spec, pairs
