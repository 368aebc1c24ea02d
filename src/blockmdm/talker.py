"""The mask-predictor transformer and its checkpoint format.

Block-causal attention: tokens attend bidirectionally inside their own
block and causally to every earlier block, never to later blocks. The
model input is the fused sum of token embeddings and the aligned
conditioning stream; the output is a full grid of vocabulary logits, one
row per position. A training batch is one forward pass over its
sequences stacked row by row, without padding, that computes bit for bit
what one pass per sequence computes. For inference, a :class:`KVCache`
holds the keys and values of committed blocks so a forward pass computes
only later rows.

Checkpoint format (binary, little-endian):

* line 1: magic ``blockmdm-checkpoint v1``
* line 2: JSON header with the config and an ordered parameter manifest
  (name and shape per entry)
* body: the parameter arrays concatenated as raw ``<f8`` bytes, in
  exactly the manifest order (see ``TalkerParams.ordered``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import nd
from .errors import CheckpointError, ContractError, InputError, ParameterError
from .masking import partition
from .semantics import AlignedSemantics, FusionParams, align, build_anchors, fuse

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


_MASK_CACHE: dict = {}


def build_block_causal_mask(T: int, B: int) -> np.ndarray:
    """Boolean visibility grid: row ``t`` sees column ``t'`` iff
    ``block(t') <= block(t)``. ``B=1`` is plain causal attention; ``B>=T``
    is full bidirectional visibility."""
    if T < 1 or B < 1:
        raise ParameterError(f"mask requires T >= 1 and B >= 1, got T={T}, B={B}")
    key = (T, B)
    cached = _MASK_CACHE.get(key)
    if cached is None:
        blk = np.arange(T) // B
        cached = blk[None, :] <= blk[:, None]
        cached.setflags(write=False)
        _MASK_CACHE[key] = cached
    return cached


@dataclass
class LayerParams:
    wq: nd.Param
    wk: nd.Param
    wv: nd.Param
    wo: nd.Param
    ffn_in: nd.Param
    ffn_out: nd.Param

    def params(self):
        return [self.wq, self.wk, self.wv, self.wo, self.ffn_in, self.ffn_out]


@dataclass
class TalkerParams:
    """All trainable tensors, in checkpoint order via :meth:`ordered`."""

    src_embed: nd.Param
    fusion: FusionParams
    tok_embed: nd.Param
    pos_embed: nd.Param
    layers: list = field(default_factory=list)
    head: nd.Param = None

    def ordered(self):
        out = [self.src_embed] + self.fusion.params() + [self.tok_embed, self.pos_embed]
        for lp in self.layers:
            out.extend(lp.params())
        out.append(self.head)
        return out

    def copy(self) -> "TalkerParams":
        clones = [nd.param(p.name, p.data.copy()) for p in self.ordered()]
        return _params_from_ordered(clones, n_layers=len(self.layers))

    def digest(self) -> str:
        h = hashlib.sha256()
        for p in self.ordered():
            h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        return h.hexdigest()

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.ordered())


def _params_from_ordered(plist, n_layers):
    src, w1, b1, w2, b2, tok, pos = plist[:7]
    layers = []
    for i in range(n_layers):
        base = 7 + 6 * i
        layers.append(LayerParams(*plist[base:base + 6]))
    return TalkerParams(src_embed=src, fusion=FusionParams(W1=w1, b1=b1, W2=w2, b2=b2),
                        tok_embed=tok, pos_embed=pos, layers=layers, head=plist[-1])


def init_params(cfg: TalkerConfig, rng, std: float = 0.02) -> TalkerParams:
    """Fresh normally-initialized parameters; shapes depend only on ``cfg``."""
    def mat(name, r, c):
        return nd.param(name, rng.normal(0.0, std, size=(r, c)))

    layers = []
    for i in range(cfg.n_layers):
        layers.append(LayerParams(
            wq=mat(f"layer{i}.wq", cfg.d, cfg.d),
            wk=mat(f"layer{i}.wk", cfg.d, cfg.d),
            wv=mat(f"layer{i}.wv", cfg.d, cfg.d),
            wo=mat(f"layer{i}.wo", cfg.d, cfg.d),
            ffn_in=mat(f"layer{i}.ffn_in", cfg.d, cfg.d_ff),
            ffn_out=mat(f"layer{i}.ffn_out", cfg.d_ff, cfg.d),
        ))
    return TalkerParams(
        src_embed=mat("src_embed", cfg.src_vocab, cfg.d),
        fusion=FusionParams.init(cfg.d, cfg.d_ff, rng, std=std),
        tok_embed=mat("tok_embed", cfg.V, cfg.d),
        pos_embed=mat("pos_embed", cfg.T_max, cfg.d),
        layers=layers,
        head=mat("head", cfg.d, cfg.V),
    )


def param_shapes(cfg: TalkerConfig) -> list:
    """``(name, shape)`` of every parameter in checkpoint order, as
    :func:`init_params` builds them."""
    d, d_ff = cfg.d, cfg.d_ff
    layer = [("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)), ("wo", (d, d)),
             ("ffn_in", (d, d_ff)), ("ffn_out", (d_ff, d))]
    return ([("src_embed", (cfg.src_vocab, d)), ("fusion.W1", (d, d_ff)), ("fusion.b1", (d_ff,)),
             ("fusion.W2", (d_ff, d)), ("fusion.b2", (d,)), ("tok_embed", (cfg.V, d)),
             ("pos_embed", (cfg.T_max, d))]
            + [(f"layer{i}.{name}", shape) for i in range(cfg.n_layers) for name, shape in layer]
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
        return nd.constant(self.k[layer][:end]), nd.constant(self.v[layer][:end])

    def commit(self, n: int) -> None:
        """Mark the next ``n`` written rows, whole blocks with final tokens,
        as committed."""
        if n < 0 or self.rows + n > self.written or (self.rows + n) % self.B:
            raise ContractError(f"cannot commit {n} rows after {self.rows} "
                                f"({self.written} written, block size {self.B})")
        self.rows += n


def semantic_states(params: TalkerParams, source_tokens) -> nd.Tensor:
    """Conditioning vectors for a source sequence: rows of the learned
    source embedding table."""
    source_tokens = np.asarray(source_tokens, dtype=np.intp)
    if source_tokens.size and source_tokens.max() >= params.src_embed.data.shape[0]:
        raise InputError(f"source token id >= src_vocab ({params.src_embed.data.shape[0]})")
    return nd.embedding(params.src_embed.value, source_tokens)


def align_for_canvas(params: TalkerParams, cfg: TalkerConfig, source_tokens, T: int) -> AlignedSemantics:
    """Build the aligned conditioning stream for a length-``T`` canvas."""
    part = partition(T, cfg.B)
    anchors = build_anchors(part, cfg.Q)
    return align(semantic_states(params, source_tokens), anchors, T)


def align_batch(params: TalkerParams, cfg: TalkerConfig, sources, lengths) -> AlignedSemantics:
    """One conditioning stream for sequences stacked sample-major: sample
    ``i``'s stream for a canvas of ``lengths[i]`` rows, at its rows."""
    return stack_aligned([align_for_canvas(params, cfg, source, T) for source, T in zip(sources, lengths)])


def stack_aligned(parts) -> AlignedSemantics:
    """Conditioning streams of single sequences stacked sample-major, as
    :func:`forward` takes them for a batch of those sequences."""
    starts = np.cumsum([0] + [a.T for a in parts])
    return AlignedSemantics(T=int(starts[-1]), d=parts[0].d, h_prime=nd.concat_rows([a.h_prime for a in parts]),
                            anchor_positions=np.concatenate([a.anchor_positions + start
                                                             for a, start in zip(parts, starts)]),
                            n_assigned=sum(a.n_assigned for a in parts),
                            n_dropped=sum(a.n_dropped for a in parts))


def forward(params: TalkerParams, cfg: TalkerConfig, tokens, aligned: AlignedSemantics,
            cache: KVCache = None, lengths=None) -> nd.Tensor:
    """Logits for every position of one or more (possibly corrupted) token
    sequences.

    ``lengths`` splits ``tokens`` into sequences stacked sample-major with
    no padding (default: one sequence); ``aligned`` then covers exactly
    those rows, as :func:`align_batch` stacks them. Attention sees each
    sequence on its own, and under :func:`nd.sequences` every sequence gets
    the arithmetic of a forward pass of its own. Positions in block ``k``
    of a sequence are a function of its blocks ``<= k`` only, given the
    conditioning stream.
    With a ``cache`` (one sequence, inference only, under
    :func:`nd.no_grad`), ``tokens`` are the rows from position
    ``cache.rows`` onward and the logits cover those rows only.
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
    masks = nd.AttentionMask([build_block_causal_mask(offset + n, cfg.B)[offset:] for n in lengths])
    h_prime = aligned
    if aligned.T > T:  # one sequence: its rows are positions offset..end-1
        h_prime = AlignedSemantics(T=T, d=aligned.d,
                                   h_prime=nd.take_rows(aligned.h_prime, slice(offset, end)),
                                   anchor_positions=aligned.anchor_positions,
                                   n_assigned=aligned.n_assigned, n_dropped=aligned.n_dropped)

    with nd.sequences(lengths):
        emb = nd.embedding(params.tok_embed.value, tokens)
        x = fuse(emb, h_prime, params.fusion)
        x = nd.add(x, nd.embedding(params.pos_embed.value, positions))

        for layer, lp in enumerate(params.layers):
            h = nd.rmsnorm_rows(x)
            q = nd.matmul(h, lp.wq.value)
            k = nd.matmul(h, lp.wk.value)
            v = nd.matmul(h, lp.wv.value)
            if cache is not None:
                k, v = cache.write(layer, k, v)
            att = nd.masked_attention(q, k, v, masks, cfg.n_heads)
            x = nd.add(x, nd.matmul(att, lp.wo.value))
            h = nd.rmsnorm_rows(x)
            x = nd.add(x, nd.matmul(nd.relu(nd.matmul(h, lp.ffn_in.value)), lp.ffn_out.value))
        x = nd.rmsnorm_rows(x)
        return nd.matmul(x, params.head.value)


def forward_array(params: TalkerParams, cfg: TalkerConfig, tokens, aligned: AlignedSemantics,
                  cache: KVCache = None, lengths=None) -> np.ndarray:
    """Forward pass without tape recording; returns a plain logits array."""
    with nd.no_grad():
        return forward(params, cfg, tokens, aligned, cache=cache, lengths=lengths).data


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(path, cfg: TalkerConfig, params: TalkerParams) -> None:
    ordered = params.ordered()
    header = {
        "config": asdict(cfg),
        "params": [{"name": p.name, "shape": list(p.data.shape)} for p in ordered],
    }
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for p in ordered:
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
        plist = []
        for name, shape in _read_manifest(path, header, cfg):
            n = int(np.prod(shape))
            raw = f.read(n * 8)
            if len(raw) != n * 8:
                raise CheckpointError(f"{path}: truncated data for parameter {name!r}")
            plist.append(nd.param(name, np.frombuffer(raw, dtype="<f8").reshape(shape).copy()))
        if f.read(1):
            raise CheckpointError(f"{path}: unexpected bytes after the last parameter")
    return cfg, _params_from_ordered(plist, n_layers=cfg.n_layers)


def check_compatible(expected: TalkerConfig, actual: TalkerConfig, path="checkpoint") -> None:
    """Raise a CheckpointError naming any field that differs."""
    mismatched = [f for f in ("data_tokens", "d", "B", "src_vocab", "Q", "n_layers", "n_heads", "d_ff", "T_max")
                  if getattr(expected, f) != getattr(actual, f)]
    if mismatched:
        detail = ", ".join(f"{f}: expected {getattr(expected, f)}, got {getattr(actual, f)}" for f in mismatched)
        raise CheckpointError(f"{path}: incompatible config ({detail})")
