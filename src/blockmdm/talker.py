"""The mask-predictor transformer, its conditioning stream and its
checkpoint format.

The conditioning stream of a length-``T`` canvas is an index into the
learned source embedding table: the ``m``-th anchor holds the source's
``m``-th id and every other position -1. :func:`forward` gathers its rows
(zeros at -1) as it gathers the token and position embeddings. Anchors
are the first ``Q`` positions of every block (those that exist in a
ragged last block), so each block carries a bounded, prefix-only slice of
the stream: changing row ``m`` changes only the block holding anchor
``m`` (no future leakage). Ids beyond the last anchor are dropped and
counted. The model input is ``relu((E + h') @ W1 + b1) @ W2 + b2`` per
position, over token embeddings ``E`` and the gathered stream ``h'``.

Block-causal attention: tokens attend bidirectionally inside their own
block and causally to every earlier block, never to later blocks. The
output is a full grid of vocabulary logits, one row per position. A
training batch is one forward pass over its sequences stacked row by row,
without padding, that computes bit for bit what one pass per sequence
computes. For inference, a :class:`KVCache` holds the keys and values of
committed blocks so a forward pass computes only later rows.

Checkpoint format (binary, little-endian):

* line 1: magic ``blockmdm-checkpoint v1``
* line 2: JSON header with the config and an ordered parameter manifest
  (name and shape per entry, in :func:`param_shapes` order)
* body: the parameter arrays concatenated as raw ``<f8`` bytes, in
  exactly the manifest order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import nd
from .errors import CheckpointError, ContractError, InputError, ParameterError

MAGIC = b"blockmdm-checkpoint v1\n"


@dataclass(frozen=True)
class Vocabulary:
    """Token id space: data tokens first, then MASK/EOS/PAD."""

    size: int
    mask_id: int
    eos_id: int
    pad_id: int

    def __post_init__(self):
        ids = (self.mask_id, self.eos_id, self.pad_id)
        if len(set(ids)) != 3 or any(not (0 <= i < self.size) for i in ids):
            raise ParameterError(f"special ids must be distinct and < {self.size}, got {ids}")

    @classmethod
    def with_specials(cls, data_tokens: int) -> "Vocabulary":
        return cls(size=data_tokens + 3, mask_id=data_tokens, eos_id=data_tokens + 1, pad_id=data_tokens + 2)

    @property
    def data_tokens(self) -> int:
        return self.size - 3


@dataclass(frozen=True)
class TalkerConfig:
    """Everything needed to rebuild the model shapes from scratch."""

    data_tokens: int = 64
    src_vocab: int = 32
    d: int = 64
    d_ff: int = 256
    n_layers: int = 4
    n_heads: int = 4
    B: int = 16
    Q: int = 4
    T_max: int = 256

    def __post_init__(self):
        for name in ("data_tokens", "src_vocab", "d", "d_ff", "n_layers", "n_heads", "T_max"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.n_heads != 0:
            raise ParameterError(f"d={self.d} must be divisible by n_heads={self.n_heads}")
        if not (1 <= self.Q <= self.B):
            raise ParameterError(f"Q must satisfy 1 <= Q <= B, got Q={self.Q}, B={self.B}")

    @property
    def vocab(self) -> Vocabulary:
        return Vocabulary.with_specials(self.data_tokens)

    @property
    def V(self) -> int:
        return self.data_tokens + 3


LAYER_PARAMS = ("wq", "wk", "wv", "wo", "ffn_in", "ffn_out")


class TalkerParams(dict):
    """Every trainable tensor by its :func:`param_shapes` name, in table
    order, which is checkpoint order."""

    def layer(self, i: int) -> list:
        """Layer ``i``'s weights in :data:`LAYER_PARAMS` order."""
        return [self[f"layer{i}.{name}"] for name in LAYER_PARAMS]

    def copy(self) -> "TalkerParams":
        """A deep copy: new parameters over copied arrays, with zero gradients."""
        return TalkerParams((name, nd.Tensor(p.data.copy(), requires_grad=True)) for name, p in self.items())


def init_params(cfg: TalkerConfig, rng, std: float = 0.02) -> TalkerParams:
    """Fresh parameters for every entry of :func:`param_shapes`: matrices
    drawn from N(0, std^2), vectors zero. The layer weights are drawn
    first, then the other matrices in table order."""
    table = param_shapes(cfg)
    values = {}
    for name, shape in sorted(table, key=lambda entry: not entry[0].startswith("layer")):
        values[name] = rng.normal(0.0, std, size=shape) if len(shape) == 2 else np.zeros(shape)
    return TalkerParams((name, nd.Tensor(values[name], requires_grad=True)) for name, _ in table)


def param_shapes(cfg: TalkerConfig) -> list:
    """``(name, shape)`` of every parameter in checkpoint order."""
    d, d_ff = cfg.d, cfg.d_ff
    layer_shapes = [(d, d)] * 4 + [(d, d_ff), (d_ff, d)]
    return ([("src_embed", (cfg.src_vocab, d)), ("fusion.W1", (d, d_ff)), ("fusion.b1", (d_ff,)),
             ("fusion.W2", (d_ff, d)), ("fusion.b2", (d,)), ("tok_embed", (cfg.V, d)),
             ("pos_embed", (cfg.T_max, d))]
            + [(f"layer{i}.{name}", shape) for i in range(cfg.n_layers)
               for name, shape in zip(LAYER_PARAMS, layer_shapes)]
            + [("head", (d, cfg.V))])


class KVCache:
    """Keys and values of one request's committed rows, one buffer per layer.

    Attention is block-causal, so the keys and values of a block depend only
    on that block and earlier ones: once a block's tokens are final, so are
    its keys and values. Reusing them is exact (equal to the full-canvas
    forward up to float rounding), unlike approximate caches for fully
    bidirectional models. ``rows`` counts the committed rows; a forward pass
    given the cache computes rows from ``rows`` onward and writes their keys
    and values after the committed ones.
    """

    def __init__(self, cfg: TalkerConfig, capacity: int):
        self.B = cfg.B
        self.capacity = capacity
        self.k = [np.empty((capacity, cfg.d)) for _ in range(cfg.n_layers)]
        self.v = [np.empty((capacity, cfg.d)) for _ in range(cfg.n_layers)]
        self.rows = 0
        self.written = 0

    def write(self, layer: int, k: nd.Tensor, v: nd.Tensor):
        """Store one layer's keys and values for the rows after ``rows``;
        returns the keys and values of every row up to the new ones."""
        end = self.rows + k.data.shape[0]
        self.k[layer][self.rows:end] = k.data
        self.v[layer][self.rows:end] = v.data
        self.written = end
        return nd.Tensor(self.k[layer][:end]), nd.Tensor(self.v[layer][:end])

    def commit(self, n: int) -> None:
        """Mark the next ``n`` written rows, whole blocks with final tokens,
        as committed."""
        if n < 0 or self.rows + n > self.written or (self.rows + n) % self.B:
            raise ContractError(f"cannot commit {n} rows after {self.rows} "
                                f"({self.written} written, block size {self.B})")
        self.rows += n


@dataclass
class AlignedSemantics:
    """A canvas's conditioning stream: per position the ``src_embed`` row
    that :func:`forward` gathers there, or -1 for a zero row.

    ``n_dropped`` counts the surplus conditioning rows that found no anchor.
    """

    index: np.ndarray
    n_dropped: int = 0

    @property
    def T(self) -> int:
        return len(self.index)


def align_for_canvas(params: TalkerParams, cfg: TalkerConfig, source_tokens, T: int) -> AlignedSemantics:
    """The conditioning stream for a length-``T`` canvas: the source ids at
    the anchors, in order, and -1 everywhere else. It reads no parameter
    (``params`` is unused) and builds no Tensor, so it runs the same with
    the tape on or off."""
    source_tokens = np.asarray(source_tokens, dtype=np.intp)
    if source_tokens.size and not 0 <= source_tokens.min() <= source_tokens.max() < cfg.src_vocab:
        raise InputError(f"source token id outside [0, src_vocab={cfg.src_vocab})")
    anchors = np.nonzero(np.arange(T) % cfg.B < cfg.Q)[0]
    n_placed = min(len(source_tokens), len(anchors))
    index = np.full(T, -1, dtype=np.intp)
    index[anchors[:n_placed]] = source_tokens[:n_placed]
    return AlignedSemantics(index=index, n_dropped=len(source_tokens) - n_placed)


def fuse(tok_emb: nd.Tensor, h_prime: nd.Tensor, W1: nd.Tensor, b1: nd.Tensor, W2: nd.Tensor,
         b2: nd.Tensor) -> nd.Tensor:
    """Two-layer feed-forward over the sum of embeddings and the aligned
    stream's rows ``h_prime`` at the same positions."""
    u = nd.relu(nd.add(nd.matmul(nd.add(tok_emb, h_prime), W1), b1))
    return nd.add(nd.matmul(u, W2), b2)


def forward(params: TalkerParams, cfg: TalkerConfig, tokens, aligned: AlignedSemantics,
            cache: KVCache = None, lengths=None) -> nd.Tensor:
    """Logits for every position of one or more (possibly corrupted) token
    sequences.

    ``lengths`` splits ``tokens`` into sequences stacked sample-major with
    no padding (default: one sequence); ``aligned`` then covers exactly
    those rows, a batch's stream stacked like its rows. The stream's rows of
    ``src_embed`` are one gather, beside the token and position embedding
    gathers. Attention sees each sequence on its own, and under
    :func:`nd.sequences` every sequence gets the arithmetic of a forward
    pass of its own. Positions in block ``k`` of a sequence are a function
    of its blocks ``<= k`` only, given the conditioning stream.
    With a ``cache`` (one sequence, inference only, under
    :func:`nd.no_grad`), ``tokens`` and the stream's index are read from
    position ``cache.rows`` onward and the logits cover those rows only.
    """
    tokens = np.asarray(tokens, dtype=np.intp)
    T = len(tokens)
    lengths = [T] if lengths is None else [int(n) for n in lengths]
    offset = 0
    if cache is not None:
        if nd.grad_enabled():
            raise ContractError("a K/V cache is for inference only: call forward under nd.no_grad()")
        if len(lengths) > 1:
            raise ContractError("a K/V cache holds one sequence, not a batch")
        offset = cache.rows
    end = offset + T
    if T < 1 or sum(lengths) != T or min(lengths) < 1 or offset + max(lengths) > cfg.T_max:
        raise InputError(f"sequence lengths {lengths} after {offset} cached rows outside "
                         f"[1, {cfg.T_max}] or not covering the {T} token rows")
    if tokens.min() < 0 or tokens.max() >= cfg.V:
        raise InputError(f"token id outside vocabulary [0, {cfg.V})")
    if aligned.T < end or (len(lengths) > 1 and aligned.T != T):
        raise InputError(f"conditioning stream covers {aligned.T} positions, need {end}")
    if cache is not None and cache.capacity < end:
        raise InputError(f"K/V cache holds {cache.capacity} rows, need {end}")
    if len(lengths) == 1:
        positions = np.arange(offset, end)
    else:
        positions = np.concatenate([np.arange(n) for n in lengths])  # no cache: offset 0
    seqs = [(n, offset + n) for n in lengths]

    with nd.sequences(lengths):
        emb = nd.take_rows(params["tok_embed"], tokens)
        h_prime = nd.take_rows(params["src_embed"], aligned.index[offset:end])
        x = fuse(emb, h_prime, params["fusion.W1"], params["fusion.b1"], params["fusion.W2"], params["fusion.b2"])
        x = nd.add(x, nd.take_rows(params["pos_embed"], positions))

        for layer in range(cfg.n_layers):
            wq, wk, wv, wo, ffn_in, ffn_out = params.layer(layer)
            h = nd.rmsnorm_rows(x)
            q = nd.matmul(h, wq)
            k = nd.matmul(h, wk)
            v = nd.matmul(h, wv)
            if cache is not None:
                k, v = cache.write(layer, k, v)
            att = nd.masked_attention(q, k, v, seqs, cfg.B, cfg.n_heads)
            x = nd.add(x, nd.matmul(att, wo))
            h = nd.rmsnorm_rows(x)
            x = nd.add(x, nd.matmul(nd.relu(nd.matmul(h, ffn_in)), ffn_out))
        x = nd.rmsnorm_rows(x)
        return nd.matmul(x, params["head"])


def forward_array(params: TalkerParams, cfg: TalkerConfig, tokens, aligned: AlignedSemantics,
                  cache: KVCache = None, lengths=None) -> np.ndarray:
    """Forward pass without tape recording; returns a plain logits array."""
    with nd.no_grad():
        return forward(params, cfg, tokens, aligned, cache=cache, lengths=lengths).data


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(path, cfg: TalkerConfig, params: TalkerParams) -> None:
    header = {
        "config": asdict(cfg),
        "params": [{"name": name, "shape": list(p.data.shape)} for name, p in params.items()],
    }
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for p in params.values():
            f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _read_manifest(path, header, cfg: TalkerConfig) -> list:
    """The header's parameter manifest, checked entry by entry against the
    names and shapes ``cfg`` implies."""
    try:
        manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["params"]]
    except (TypeError, KeyError) as e:
        raise CheckpointError(f"{path}: malformed parameter manifest ({e!r})") from e
    expected = param_shapes(cfg)
    if len(manifest) != len(expected):
        raise CheckpointError(f"{path}: manifest lists {len(manifest)} parameters, "
                              f"config implies {len(expected)}")
    for (name, shape), (want_name, want_shape) in zip(manifest, expected):
        if name != want_name or shape != want_shape:
            raise CheckpointError(f"{path}: manifest entry {name!r} with shape {list(shape)} "
                                  f"where config implies {want_name!r} with shape {list(want_shape)}")
    return expected


def load_checkpoint(path):
    """Read a checkpoint; returns ``(config, params)``.

    Raises :class:`CheckpointError` for a bad magic line, a malformed
    header, a manifest that disagrees with the config, truncated data or
    bytes after the last parameter.
    """
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic[:40]!r}")
        try:
            header = json.loads(f.readline().decode("utf-8"))
            cfg = TalkerConfig(**header["config"])
            if not all(type(v) is int and v >= 1 for v in asdict(cfg).values()):
                raise ValueError(f"config fields must be positive integers, got {header['config']}")
        except (ValueError, TypeError, KeyError, ParameterError) as e:
            raise CheckpointError(f"{path}: malformed header ({e!r})") from e
        params = TalkerParams()
        for name, shape in _read_manifest(path, header, cfg):
            n = int(np.prod(shape))
            raw = f.read(n * 8)
            if len(raw) != n * 8:
                raise CheckpointError(f"{path}: truncated data for parameter {name!r}")
            # a copy: the buffer's view is read-only, and AdamW updates parameters in place
            params[name] = nd.Tensor(np.frombuffer(raw, "<f8").reshape(shape).copy(), requires_grad=True)
        if f.read(1):
            raise CheckpointError(f"{path}: unexpected bytes after the last parameter")
    return cfg, params


def check_compatible(expected: TalkerConfig, actual: TalkerConfig, path="checkpoint") -> None:
    """Raise a CheckpointError naming any field that differs."""
    mismatched = [f.name for f in fields(TalkerConfig) if getattr(expected, f.name) != getattr(actual, f.name)]
    if mismatched:
        detail = ", ".join(f"{f}: expected {getattr(expected, f)}, got {getattr(actual, f)}" for f in mismatched)
        raise CheckpointError(f"{path}: incompatible config ({detail})")
