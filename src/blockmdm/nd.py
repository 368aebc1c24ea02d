"""Dense float64 numeric core with reverse-mode automatic differentiation.

A ``Tensor`` wraps a float64 array plus an optional gradient; operations
record backward closures onto a tape so a scalar loss can be
backpropagated to every parameter that fed it. A parameter is a Tensor
with ``requires_grad=True``, named by its key in the mapping that holds
it. The set of operations is deliberately small: exactly the primitives a
small transformer with masked attention, a cross-entropy over gathered
rows and a KL distillation loss needs.

Activations are ``rows x width`` matrices. A batch is several sequences
stacked sample-major, with no padding, so row-wise ops run on the stacked
rows unchanged. :func:`masked_attention` is block-causal: it takes a
block size and, per sequence, its query and key row counts ``(Tq, Tk)``,
hides each query's later blocks without building a visibility grid, and
splits columns into heads internally, on a ``(heads, rows, head width)``
view. Inside :func:`sequences`, the ops that sum over rows do so one
sequence at a time, in order, so a stacked batch gives bit for bit the
parameter gradients of one pass per sequence.

Under :func:`no_grad` no op records parents or a backward function, and
the ops of a model forward (:func:`matmul`, :func:`add`, :func:`relu`,
:func:`rmsnorm_rows`, :func:`take_rows`, :func:`masked_attention`) return
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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteError, ParameterError

_GRAD_ENABLED = True
_ROW_BLOCKS = None  # (total rows, row slice per sequence) inside a sequences() block
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamW's moment decay rates and denominator floor


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
    rows share the call), and a matmul, a row-broadcast add and a
    :func:`take_rows` gather sum their weight gradients per sequence,
    adding the sequences' sums in order. A stacked batch then computes
    bit for bit what one forward and backward pass per sequence computes.
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


def take_rows(src: Tensor, index) -> Tensor:
    """Gather ``out[t] = src[index[t]]``, a zero row where ``index[t] == -1``.

    The one op that moves rows: embedding lookups, the conditioning stream
    laid out on a canvas and the rows a loss reads. Backward scatter-adds
    into ``src``.
    """
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1:
        raise DimensionError(f"row index must be 1-D, got shape {index.shape}")
    n = src.data.shape[0]
    if index.size and (index.min() < -1 or index.max() >= n):
        raise DimensionError(f"row index outside [-1, {n})")
    out = src.data[index]
    missing = index < 0
    out[missing] = 0.0
    if not _GRAD_ENABLED:
        return _wrap(out)
    blocks = _row_blocks(len(index))

    def backward(g):
        parts = []
        for rows in blocks:
            gs = np.zeros_like(src.data)
            keep = ~missing[rows]
            np.add.at(gs, index[rows][keep], g[rows][keep])
            parts.append(gs)
        return ((src, _sum_in_order(parts)),)

    return _result(out, (src,), backward)


# ---------------------------------------------------------------------------
# softmax / losses / attention
# ---------------------------------------------------------------------------


def _log_softmax(z):
    m = z.max(axis=-1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_rows(rows: Tensor, targets, counts=None) -> Tensor:
    """Summed negative log-likelihood of one target per row.

    Returns the scalar ``-sum_i log p(targets[i] | rows[i])``. ``counts``
    gives per row the row count of its sequence, and each term is divided
    by it: the result is then the sum over sequences of their mean. No rows
    give exactly zero loss and zero gradient.
    """
    targets = np.asarray(targets, dtype=np.intp)
    n, V = rows.data.shape
    if targets.shape != (n,) or counts is not None and np.shape(counts) != (n,):
        raise DimensionError(f"{n} rows need one target and count each, got {targets.shape} and {np.shape(counts)}")
    if n and (targets.min() < 0 or targets.max() >= V):
        raise ParameterError(f"targets must lie in [0, {V})")
    inv = None if counts is None else 1.0 / np.asarray(counts, dtype=np.float64)
    logp = _log_softmax(rows.data)
    nll = -logp[np.arange(n), targets]
    loss = nll.sum() if inv is None else (nll * inv).sum()

    def backward(g):
        grows = np.exp(logp)
        grows[np.arange(n), targets] -= 1.0
        return ((rows, grows * (g if inv is None else inv[:, None] * g)),)

    return _result(np.float64(loss), (rows,), backward)


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
    tea = np.asarray(teacher_logits, dtype=np.float64)
    if student_logits.data.shape != tea.shape:
        raise DimensionError(f"kl_rows shape mismatch: {student_logits.data.shape} vs {tea.shape}")
    n_rows = student_logits.data.shape[0]
    if counts is None:
        counts = np.full(n_rows, n_rows)
    if np.shape(counts) != (n_rows,):
        raise DimensionError(f"counts must have shape ({n_rows},), got {np.shape(counts)}")
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


def masked_attention(q: Tensor, k: Tensor, v: Tensor, seqs, B: int, n_heads: int = 1) -> Tensor:
    """Block-causal multi-head scaled dot-product attention within each of a
    batch's sequences.

    ``seqs`` lists ``(Tq_s, Tk_s)`` per sequence stacked sample-major:
    sequence ``s`` takes the next ``Tq_s`` rows of ``q`` and the next
    ``Tk_s >= Tq_s`` rows of ``k``/``v``, and its queries are its last
    ``Tq_s`` of ``Tk_s`` positions (the earlier keys may be cached). A
    position sees every position of its own block of ``B`` and of each
    earlier block, and no other sequence's rows; hidden positions get
    exactly zero weight. ``B=1`` is causal attention, ``B >= Tk_s``
    bidirectional. Columns split into ``n_heads`` equal heads, each scaled
    by ``1/sqrt(d / n_heads)``, and the output puts the heads back side by
    side; the whole batch is one tape node.
    """
    Tq, d = q.data.shape
    Tk = k.data.shape[0]
    if k.data.shape != (Tk, d) or v.data.shape != (Tk, d):
        raise DimensionError(f"q/k/v shapes differ: {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if n_heads < 1 or d % n_heads:
        raise DimensionError(f"width {d} does not split into {n_heads} heads")
    if (any(not 1 <= tq <= tk for tq, tk in seqs)
            or sum(tq for tq, _ in seqs) != Tq or sum(tk for _, tk in seqs) != Tk):
        raise DimensionError(f"sequences {list(seqs)} do not split {Tq} query and {Tk} key rows "
                             f"with 1 <= Tq <= Tk each")
    if B < 1:
        raise ParameterError(f"block size must be >= 1, got {B}")
    inv_sqrt_d = 1.0 / math.sqrt(d // n_heads)

    def split(x):  # rows x d -> heads x rows x head width, a view
        return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)

    def merge(x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    out = np.empty_like(qh) if len(seqs) > 1 else None
    segments = []
    q0 = k0 = 0
    for tq, tk in seqs:
        sq, sk = slice(q0, q0 + tq), slice(k0, k0 + tk)
        w = qh[:, sq] @ kh[:, sk].transpose(0, 2, 1)
        w *= inv_sqrt_d
        # the queries of the block that ends at `end` do not see the keys from `end` on
        first = tk - tq
        for end in range((first // B + 1) * B, tk, B):
            w[:, max(end - B, first) - first:end - first, end:] = -np.inf
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


def zero_grads(params):
    for p in params:
        p.grad.fill(0.0)


def adamw_step(params, moments, lr, step, weight_decay=0.0):
    """One decoupled-weight-decay Adam update (``step`` is 1-based) of the
    ``{name: Tensor}`` mapping ``params``, with ``moments`` the ``(m, v)``
    arrays of each parameter in the same order, updated in place."""
    if step < 1:
        raise ParameterError(f"step must be >= 1, got {step}")
    c1 = 1.0 - ADAM_B1 ** step
    c2 = 1.0 - ADAM_B2 ** step
    for (name, p), (m, v) in zip(params.items(), moments, strict=True):
        g = p.grad
        if not np.isfinite(g).all():
            bad = int(np.size(g) - np.isfinite(g).sum())
            raise NonFiniteError(f"non-finite gradient in parameter {name!r} ({bad} bad entries)")
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        m += (1.0 - ADAM_B1) * (g - m)
        v += (1.0 - ADAM_B2) * (g * g - v)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


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

    ``loss_fn`` must rebuild the forward pass from the current values of
    ``params``, a ``{name: Tensor}`` mapping, and return a scalar Tensor.
    Up to ``max_coords_per_param`` coordinates are sampled per parameter
    (all of them when small).

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
    zero_grads(params.values())
    loss = loss_fn()
    loss.backward()
    f0 = loss.item()
    analytic = {name: p.grad.copy() for name, p in params.items()}
    floor = 1e-4 * max(1.0, abs(f0))

    max_rel = 0.0
    worst = (next(iter(params)), 0, 0.0, 0.0)
    checked = 0
    skipped = 0
    with no_grad():
        for name, p in params.items():
            size = p.data.size
            if size <= max_coords_per_param:
                coords = np.arange(size)
            else:
                coords = rng.choice(size, size=max_coords_per_param, replace=False)
            flat = p.data.reshape(-1)
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
                a = analytic[name].reshape(-1)[c]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
                checked += 1
                if rel > max_rel:
                    max_rel = rel
                    worst = (name, int(c), float(a), float(numeric))
    return GradCheckReport(max_rel_err=float(max_rel), n_checked=checked,
                           n_skipped_nonsmooth=skipped, worst=worst)
