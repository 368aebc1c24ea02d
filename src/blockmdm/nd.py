"""Dense float64 numeric core with reverse-mode automatic differentiation.

A ``Tensor`` wraps a float64 array plus an optional gradient; operations
record backward closures onto a tape so a scalar loss can be
backpropagated to every parameter that fed it. The set of operations is
deliberately small: exactly the primitives a small transformer with
masked attention, masked cross-entropy and a KL distillation loss needs.

Activations are ``rows x width`` matrices. A batch is several sequences
stacked sample-major, with no padding, so row-wise ops run on the stacked
rows unchanged. :func:`masked_attention` takes a visibility mask per
sequence and splits columns into heads internally, on a
``(heads, rows, head width)`` view. Inside :func:`sequences`, the ops that
sum over rows do so one sequence at a time, in order, so a stacked batch
gives bit for bit the parameter gradients of one pass per sequence.

Under :func:`no_grad` no op records parents or a backward function, and
the ops of a model forward (:func:`matmul`, :func:`add`, :func:`relu`,
:func:`rmsnorm_rows`, :func:`embedding`, :func:`masked_attention`) return
as soon as they have their output: they build no backward closure and
keep nothing for a backward pass. Every inference forward runs this way
(streaming decode, the bench's eval decodes, the distillation teacher).
An op's arithmetic is the same with and without the tape, so its output
is the same bit for bit.

Determinism: all randomness flows through numpy ``Generator`` objects
created by :func:`make_rng` (PCG64, seeded explicitly), so identical seeds
give identical streams run to run. No op uses hidden global state.
"""

from __future__ import annotations

import functools
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError, ParameterError, ContractError

_GRAD_ENABLED = True
_ROW_BLOCKS = None  # (total rows, row slice per sequence) inside a sequences() block


def grad_enabled() -> bool:
    """Whether ops currently record onto the tape."""
    return _GRAD_ENABLED


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextmanager
def sequences(lengths):
    """Declare that row-aligned operands inside the block stack sequences
    of these lengths sample-major.

    The ops whose arithmetic could see several sequences at once then take
    them one at a time: a matmul computes its product and input gradient
    block by block (a BLAS kernel may round a row differently when other
    rows share the call), and a matmul, a row-broadcast add and an
    embedding sum their weight gradients per sequence, adding the
    sequences' sums in order. A stacked batch then computes bit for bit
    what one forward and backward pass per sequence computes.
    """
    global _ROW_BLOCKS
    prev = _ROW_BLOCKS
    _ROW_BLOCKS = None  # one sequence is one block
    if len(lengths) > 1:
        ends = np.cumsum(lengths)
        _ROW_BLOCKS = (int(ends[-1]), [slice(int(e) - int(n), int(e)) for e, n in zip(ends, lengths)])
    try:
        yield
    finally:
        _ROW_BLOCKS = prev


def _row_blocks(n_rows):
    """Row slices of the declared sequences when an operand has their total
    row count, else one slice over all ``n_rows``."""
    if _ROW_BLOCKS is not None and _ROW_BLOCKS[0] == n_rows:
        return _ROW_BLOCKS[1]
    return [slice(0, n_rows)]


def _sum_in_order(parts):
    """``((p0 + p1) + p2) + ...`` in place in ``p0``: the order in which one
    backward pass per sequence would accumulate a parameter's gradient."""
    return functools.reduce(operator.iadd, parts)


def make_rng(seed, *stream):
    """PCG64 generator for ``seed`` plus an optional sub-stream key.

    ``make_rng(s, k)`` yields an independent, reproducible stream per
    ``(s, k)``; this is how per-sample randomness stays deterministic.
    Seeds and keys are non-negative integers.
    """
    key = (int(seed),) + tuple(int(s) for s in stream)
    if min(key) < 0:
        raise ParameterError(f"seeds must be non-negative integers, got {key}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


class Tensor:
    """A float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def backward(self):
        """Backpropagate from a scalar through the recorded tape."""
        if self.data.size != 1:
            raise DimensionError(f"backward() requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
            else:
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in seen:
                        stack.append((p, False))
        out_grad = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = out_grad.pop(id(node), None)
            if g is None:
                continue
            if node.grad is not None:
                node.grad += g
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if not parent.requires_grad:
                        continue
                    acc = out_grad.get(id(parent))
                    if acc is None:
                        out_grad[id(parent)] = pg.copy() if pg.base is not None else pg
                    else:
                        acc += pg

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(data):
    """A Tensor around an op's float64 array, without ``Tensor.__init__``'s
    conversion; it records nothing."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad, out._parents, out._backward = data, None, False, (), None
    return out


def _result(data, parents, backward):
    # Intermediate nodes keep grad=None; only leaf Tensors created with
    # requires_grad=True retain accumulated gradients after backward().
    out = _wrap(data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64))
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad, out._parents, out._backward = True, tuple(parents), backward
    return out


def constant(data):
    """Wrap an array as a non-differentiable Tensor."""
    return Tensor(data)


def as_array(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    blocks = _row_blocks(a.data.shape[0])
    if len(blocks) == 1:
        out = a.data @ b.data
    else:
        out = np.empty((a.data.shape[0], b.data.shape[1]))
        for rows in blocks:
            np.matmul(a.data[rows], b.data, out=out[rows])
    if not _GRAD_ENABLED:
        return _wrap(out)

    def backward(g):
        ga = np.empty_like(a.data)
        for rows in blocks:
            np.matmul(g[rows], b.data.T, out=ga[rows])
        return ((a, ga), (b, _sum_in_order(a.data[rows].T @ g[rows] for rows in blocks)))

    return _result(out, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a row vector broadcast over ``a``'s rows."""
    same = a.data.shape == b.data.shape
    if not (same or b.data.ndim == 1 and a.data.ndim == 2 and b.data.shape[0] == a.data.shape[1]):
        raise DimensionError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out = a.data + b.data
    if not _GRAD_ENABLED:
        return _wrap(out)
    if same:
        def backward(g):
            # the second copy keeps the two parents' accumulators unaliased
            return ((a, g), (b, g.copy()))
    else:
        blocks = _row_blocks(a.data.shape[0])

        def backward(g):
            return ((a, g), (b, _sum_in_order(g[rows].sum(axis=0) for rows in blocks)))
    return _result(out, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        return ((a, g * s),)

    return _result(a.data * s, (a,), backward)


def relu(a: Tensor) -> Tensor:
    # exactly np.where(a > 0, a, 0.0), NaN and -0.0 included, and several times faster
    out = np.fmax(a.data, 0.0)
    out += 0.0
    if not _GRAD_ENABLED:
        return _wrap(out)

    def backward(g):
        return ((a, g * (a.data > 0)),)

    return _result(out, (a,), backward)


def rmsnorm_rows(a: Tensor, eps: float = 1e-6) -> Tensor:
    """Row-wise RMS normalization, no learnable parameters."""
    x = a.data
    # in place, bit for bit 1 / sqrt(mean(x * x) + eps): np.mean is the sum divided by the count
    inv = (x * x).sum(axis=1, keepdims=True)
    inv /= x.shape[1]
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    if not _GRAD_ENABLED:
        return _wrap(x * inv)

    def backward(g):
        d = x.shape[1]
        dot = (x * g).sum(axis=1, keepdims=True)
        return ((a, inv * (g - x * (dot * inv * inv / d))),)

    return _result(x * inv, (a,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows ``table[ids]``; backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise DimensionError(f"embedding ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise DimensionError(f"embedding id out of range [0, {table.data.shape[0]})")
    out = table.data[ids]
    if not _GRAD_ENABLED:
        return _wrap(out)
    blocks = _row_blocks(len(ids))

    def backward(g):
        parts = []
        for rows in blocks:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids[rows], g[rows])
            parts.append(gt)
        return ((table, _sum_in_order(parts)),)

    return _result(out, (table,), backward)


def take_rows(a: Tensor, rows) -> Tensor:
    """Gather a subset of rows by index, or a ``slice`` of them as a view."""
    if not isinstance(rows, slice):
        rows = np.asarray(rows, dtype=np.intp)

    def backward(g):
        ga = np.zeros_like(a.data)
        if isinstance(rows, slice):
            ga[rows] += g
        else:
            np.add.at(ga, rows, g)
        return ((a, ga),)

    return _result(a.data[rows], (a,), backward)


def place_rows(src: Tensor, row_for_pos, n_rows: int) -> Tensor:
    """Build an ``n_rows`` x d matrix with ``out[t] = src[row_for_pos[t]]``.

    Positions with ``row_for_pos[t] < 0`` become zero rows. Used to lay out
    sparse conditioning rows onto a longer timeline.
    """
    row_for_pos = np.asarray(row_for_pos, dtype=np.intp)
    if row_for_pos.shape != (n_rows,):
        raise DimensionError(f"row_for_pos must have shape ({n_rows},), got {row_for_pos.shape}")
    valid = row_for_pos >= 0
    out = np.zeros((n_rows, src.data.shape[1]), dtype=np.float64)
    out[valid] = src.data[row_for_pos[valid]]

    def backward(g):
        gs = np.zeros_like(src.data)
        np.add.at(gs, row_for_pos[valid], g[valid])
        return ((src, gs),)

    return _result(out, (src,), backward)


def concat_rows(parts) -> Tensor:
    """Stack matrices of equal width on top of each other."""
    parts = list(parts)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g):
        return tuple((p, g[offsets[i]:offsets[i + 1]]) for i, p in enumerate(parts))

    return _result(np.concatenate([p.data for p in parts], axis=0), tuple(parts), backward)


# ---------------------------------------------------------------------------
# softmax / losses / attention
# ---------------------------------------------------------------------------


def _log_softmax(z):
    m = z.max(axis=-1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def masked_cross_entropy(logits: Tensor, targets, mask_positions, counts=None) -> Tensor:
    """Summed negative log-likelihood over the masked positions only.

    Returns the scalar ``-sum_{t in mask} log p(targets[t] | logits[t])``;
    the gradient is nonzero only at masked rows. ``counts`` gives per
    masked position the masked count of its sequence, and each term is
    divided by it: the result is then the sum over sequences of their mean.
    An empty mask gives exactly zero loss and zero gradient.
    """
    targets = np.asarray(targets, dtype=np.intp)
    mask_positions = np.asarray(mask_positions, dtype=np.intp)
    T, V = logits.data.shape
    if mask_positions.size == 0:
        return _result(np.float64(0.0), (logits,), lambda g: ((logits, np.zeros_like(logits.data)),))
    if mask_positions.min() < 0 or mask_positions.max() >= T:
        raise ParameterError(f"mask positions must lie in [0, {T})")
    tgt = targets[mask_positions]
    if tgt.min() < 0 or tgt.max() >= V:
        raise ParameterError(f"targets at masked positions must lie in [0, {V})")
    if counts is not None and np.shape(counts) != mask_positions.shape:
        raise DimensionError(f"counts must have shape {mask_positions.shape}, got {np.shape(counts)}")
    inv = None if counts is None else 1.0 / np.asarray(counts, dtype=np.float64)
    rows = logits.data[mask_positions]
    logp = _log_softmax(rows)
    nll = -logp[np.arange(len(mask_positions)), tgt]
    loss = nll.sum() if inv is None else (nll * inv).sum()

    def backward(g):
        grows = np.exp(logp)
        grows[np.arange(len(mask_positions)), tgt] -= 1.0
        gl = np.zeros_like(logits.data)
        np.add.at(gl, mask_positions, grows * (g if inv is None else inv[:, None] * g))
        return ((logits, gl),)

    return _result(np.float64(loss), (logits,), backward)


def kl_rows(student_logits: Tensor, teacher_logits, tau: float, direction: str = "reverse",
            counts=None) -> Tensor:
    """Temperature-scaled KL divergence, averaged over rows and scaled by tau^2.

    ``reverse`` computes KL(softmax(student/tau) || softmax(teacher/tau)),
    so the gradient on a coordinate is weighted by the student probability
    there (mode-seeking); ``forward`` swaps the arguments and is weighted by
    the teacher probability (mean-seeking). Only the student side receives
    gradients. ``counts`` gives per row the row count of its sequence, to
    average within each sequence and sum the averages.
    """
    if tau <= 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    if direction not in ("reverse", "forward"):
        raise ParameterError(f"direction must be 'reverse' or 'forward', got {direction!r}")
    tea = as_array(teacher_logits)
    if student_logits.data.shape != tea.shape:
        raise DimensionError(f"kl_rows shape mismatch: {student_logits.data.shape} vs {tea.shape}")
    n_rows = student_logits.data.shape[0]
    if n_rows == 0:
        return _result(np.float64(0.0), (student_logits,),
                       lambda g: ((student_logits, np.zeros_like(student_logits.data)),))
    if counts is None:
        counts = n_rows
    elif np.shape(counts) != (n_rows,):
        raise DimensionError(f"counts must have shape ({n_rows},), got {np.shape(counts)}")
    else:
        counts = np.asarray(counts, dtype=np.float64)[:, None]
    logp = _log_softmax(student_logits.data / tau)
    logq = _log_softmax(tea / tau)
    p = np.exp(logp)
    if direction == "reverse":
        per_row = (p * (logp - logq)).sum(axis=1)

        def backward(g):
            gs = (tau / counts) * p * ((logp - logq) - per_row[:, None])
            return ((student_logits, gs * g),)
    else:
        q = np.exp(logq)
        per_row = (q * (logq - logp)).sum(axis=1)

        def backward(g):
            gs = (tau / counts) * (p - q)
            return ((student_logits, gs * g),)

    loss = (tau * tau) * (per_row[:, None] / counts).sum()
    return _result(np.float64(loss), (student_logits,), backward)


class AttentionMask:
    """Visibility grids for :func:`masked_attention`, one per sequence,
    checked once.

    Each grid is boolean ``Tq_s x Tk_s``; every row must see at least one
    position. A forward pass builds one and passes it to the attention of
    every layer, so the grids are checked once per forward pass. A grid
    that shows every key (each later step of a cached block) needs no fill.
    """

    __slots__ = ("grids", "hidden")

    def __init__(self, grids):
        self.grids = [np.asarray(m, dtype=bool) for m in ([grids] if isinstance(grids, np.ndarray) else grids)]
        if any(m.ndim != 2 for m in self.grids):
            raise DimensionError(f"mask grids must be 2-D, got {[m.shape for m in self.grids]}")
        self.hidden = [None if m.all() else ~m for m in self.grids]
        if not all(h is None or m.any(axis=1).all() for m, h in zip(self.grids, self.hidden)):
            raise ContractError("attention row with no visible positions")


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask, n_heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention within each of a batch's sequences.

    ``mask`` is an :class:`AttentionMask`, a boolean ``Tq x Tk`` grid, or a
    list of them, one per sequence stacked sample-major: sequence ``s``
    takes the next ``Tq_s`` rows of ``q`` and the next ``Tk_s >= Tq_s``
    rows of ``k``/``v`` (queries for the last rows of a sequence whose
    earlier keys are cached) and sees no other sequence's rows.
    ``mask[t, t']`` gates visibility: positions with ``mask`` False
    contribute exactly zero weight, and every row must see at least one
    position. Columns split into ``n_heads`` equal heads, each scaled by
    ``1/sqrt(d / n_heads)``, and the output puts the heads back side by
    side; the whole batch is one tape node.
    """
    vis = mask if isinstance(mask, AttentionMask) else AttentionMask(mask)
    masks = vis.grids
    Tq, d = q.data.shape
    Tk = k.data.shape[0]
    if Tk < Tq or k.data.shape != (Tk, d) or v.data.shape != (Tk, d):
        raise DimensionError(f"q/k/v shapes differ: {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if n_heads < 1 or d % n_heads:
        raise DimensionError(f"width {d} does not split into {n_heads} heads")
    if (any(m.shape[1] < m.shape[0] for m in masks)
            or sum(m.shape[0] for m in masks) != Tq or sum(m.shape[1] for m in masks) != Tk):
        raise DimensionError(f"mask must be {Tq}x{Tk}, one grid per sequence, got {[m.shape for m in masks]}")
    inv_sqrt_d = 1.0 / math.sqrt(d // n_heads)

    def split(x):  # rows x d -> heads x rows x head width, a view
        return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)

    def merge(x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    out = np.empty_like(qh) if len(masks) > 1 else None
    segments = []
    q0 = k0 = 0
    for m, hidden in zip(masks, vis.hidden):
        sq, sk = slice(q0, q0 + m.shape[0]), slice(k0, k0 + m.shape[1])
        w = qh[:, sq] @ kh[:, sk].transpose(0, 2, 1)
        w *= inv_sqrt_d
        if hidden is not None:
            np.copyto(w, -np.inf, where=hidden)
        # a row softmax in place; fmax is max without NaN propagation, and a
        # NaN score still turns its whole row NaN through the sum
        w -= np.fmax.reduce(w, axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        if out is None:
            out = w @ vh[:, sk]
        else:
            out[:, sq] = w @ vh[:, sk]
        segments.append((sq, sk, w))
        q0, k0 = sq.stop, sk.stop
    if not _GRAD_ENABLED:
        return _wrap(merge(out))

    def backward(g):
        gh = split(g)
        gq, gk, gv = np.empty_like(qh), np.empty_like(kh), np.empty_like(vh)
        for sq, sk, w in segments:
            gw = gh[:, sq] @ vh[:, sk].transpose(0, 2, 1)
            gs = gw - (w * gw).sum(axis=-1, keepdims=True)
            gs *= w  # zero where w == 0
            gq[:, sq] = (gs @ kh[:, sk]) * inv_sqrt_d
            gk[:, sk] = (gs.transpose(0, 2, 1) @ qh[:, sq]) * inv_sqrt_d
            gv[:, sk] = w.transpose(0, 2, 1) @ gh[:, sq]
        return ((q, merge(gq)), (k, merge(gk)), (v, merge(gv)))

    return _result(merge(out), (q, k, v), backward)


# ---------------------------------------------------------------------------
# parameters / optimizer / gradient checking
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """A trainable tensor plus AdamW moment buffers."""

    name: str
    value: Tensor
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.value.requires_grad = True
        if self.value.grad is None:
            self.value.grad = np.zeros_like(self.value.data)
        if self.m is None:
            self.m = np.zeros_like(self.value.data)
        if self.v is None:
            self.v = np.zeros_like(self.value.data)

    @property
    def data(self):
        return self.value.data

    @property
    def grad(self):
        return self.value.grad


def param(name, data):
    return Param(name, Tensor(np.array(data, dtype=np.float64), requires_grad=True))


def zero_grads(params):
    for p in params:
        p.value.zero_grad()


def adamw_step(params, lr, step, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """One decoupled-weight-decay Adam update (``step`` is 1-based)."""
    if step < 1:
        raise ParameterError(f"step must be >= 1, got {step}")
    b1, b2 = betas
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for p in params:
        g = p.value.grad
        if not np.isfinite(g).all():
            bad = int(np.size(g) - np.isfinite(g).sum())
            raise NonFiniteError(f"non-finite gradient in parameter {p.name!r} ({bad} bad entries)")
        if weight_decay:
            p.value.data -= lr * weight_decay * p.value.data
        p.m += (1.0 - b1) * (g - p.m)
        p.v += (1.0 - b2) * (g * g - p.v)
        p.value.data -= lr * (p.m / c1) / (np.sqrt(p.v / c2) + eps)


@dataclass
class GradCheckReport:
    max_rel_err: float
    n_checked: int
    n_skipped_nonsmooth: int
    worst: tuple  # (param name, flat index, analytic, numeric)

    def __str__(self):
        name, idx, a, n = self.worst
        return (f"grad check: max rel err {self.max_rel_err:.3e} over {self.n_checked} coordinates, "
                f"{self.n_skipped_nonsmooth} skipped at kinks "
                f"(worst {name}[{idx}]: analytic {a:.6e}, numeric {n:.6e})")


def grad_check(loss_fn, params, epsilon=1e-6, max_coords_per_param=24, rng=None) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    ``loss_fn`` must rebuild the forward pass from the current parameter
    values and return a scalar Tensor. Up to ``max_coords_per_param``
    coordinates are sampled per parameter (all of them when small).

    The per-coordinate error is ``|a - n| / max(|a|, |n|, floor)`` with
    ``floor = 1e-4 * max(1, |loss|)``: below the floor, differences
    are indistinguishable from float64 finite-difference roundoff, so
    near-zero gradients are compared absolutely at that scale. Coordinates
    whose two one-sided differences disagree strongly sit on a ReLU kink
    inside the probe interval; central differences are meaningless there,
    so they are skipped and counted in the report.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ParameterError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    if max_coords_per_param < 1:
        raise ParameterError(f"max_coords_per_param must be >= 1, got {max_coords_per_param}")
    if rng is None:
        rng = make_rng(0)
    zero_grads(params)
    loss = loss_fn()
    loss.backward()
    f0 = loss.item()
    analytic = {p.name: p.value.grad.copy() for p in params}
    floor = 1e-4 * max(1.0, abs(f0))

    max_rel = 0.0
    worst = (params[0].name, 0, 0.0, 0.0)
    checked = 0
    skipped = 0
    with no_grad():
        for p in params:
            size = p.value.data.size
            if size <= max_coords_per_param:
                coords = np.arange(size)
            else:
                coords = rng.choice(size, size=max_coords_per_param, replace=False)
            flat = p.value.data.reshape(-1)
            for c in coords:
                orig = flat[c]
                flat[c] = orig + epsilon
                up = loss_fn().item()
                flat[c] = orig - epsilon
                down = loss_fn().item()
                flat[c] = orig
                fd_plus = (up - f0) / epsilon
                fd_minus = (f0 - down) / epsilon
                if abs(fd_plus - fd_minus) > 1e-2 * max(abs(fd_plus), abs(fd_minus), floor):
                    skipped += 1
                    continue
                numeric = (up - down) / (2.0 * epsilon)
                a = analytic[p.name].reshape(-1)[c]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
                checked += 1
                if rel > max_rel:
                    max_rel = rel
                    worst = (p.name, int(c), float(a), float(numeric))
    return GradCheckReport(max_rel_err=float(max_rel), n_checked=checked,
                           n_skipped_nonsmooth=skipped, worst=worst)
