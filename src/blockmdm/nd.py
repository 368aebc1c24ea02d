"""Dense float64 numeric core with reverse-mode automatic differentiation.

Everything is built on 2-D numpy float64 arrays in row-major order. A
``Tensor`` wraps an array plus an optional gradient; operations record
backward closures onto a tape so a scalar loss can be backpropagated to
every parameter that fed it. The set of operations is deliberately small:
exactly the primitives a small transformer with masked attention, masked
cross-entropy and a KL distillation loss needs.

Determinism: all randomness flows through numpy ``Generator`` objects
created by :func:`make_rng` (PCG64, seeded explicitly), so identical seeds
give identical streams run to run. No op uses hidden global state.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError, ParameterError, ContractError

_GRAD_ENABLED = True


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


def make_rng(seed, *stream):
    """PCG64 generator for ``seed`` plus an optional sub-stream key.

    ``make_rng(s, k)`` yields an independent, reproducible stream per
    ``(s, k)``; this is how per-sample randomness stays deterministic.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))))


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


def _result(data, parents, backward):
    # Intermediate nodes keep grad=None; only leaf Tensors created with
    # requires_grad=True retain accumulated gradients after backward().
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
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

    def backward(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return _result(a.data @ b.data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a row vector broadcast over ``a``'s rows."""
    if a.data.shape == b.data.shape:
        def backward(g):
            # the second copy keeps the two parents' accumulators unaliased
            return ((a, g), (b, g.copy()))
    elif b.data.ndim == 1 and a.data.ndim == 2 and b.data.shape[0] == a.data.shape[1]:
        def backward(g):
            return ((a, g), (b, g.sum(axis=0)))
    else:
        raise DimensionError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    return _result(a.data + b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        return ((a, g * s),)

    return _result(a.data * s, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        return ((a, g * mask),)

    return _result(np.where(mask, a.data, 0.0), (a,), backward)


def rmsnorm_rows(a: Tensor, eps: float = 1e-6) -> Tensor:
    """Row-wise RMS normalization, no learnable parameters."""
    x = a.data
    inv = 1.0 / np.sqrt((x * x).mean(axis=1, keepdims=True) + eps)

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

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return ((table, gt),)

    return _result(table.data[ids], (table,), backward)


def take_rows(a: Tensor, rows) -> Tensor:
    """Gather a subset of rows by index."""
    rows = np.asarray(rows, dtype=np.intp)

    def backward(g):
        ga = np.zeros_like(a.data)
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


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    def backward(g):
        ga = np.zeros_like(a.data)
        ga[:, lo:hi] = g
        return ((a, ga),)

    return _result(a.data[:, lo:hi].copy(), (a,), backward)


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def backward(g):
        return tuple((p, g[:, offsets[i]:offsets[i + 1]]) for i, p in enumerate(parts))

    return _result(np.concatenate([p.data for p in parts], axis=1), tuple(parts), backward)


# ---------------------------------------------------------------------------
# softmax / losses / attention
# ---------------------------------------------------------------------------


def _log_softmax(z):
    m = z.max(axis=-1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_array(z):
    """Stable row softmax on a plain array (log-sum-exp shifted)."""
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(z: Tensor) -> Tensor:
    """Row-wise softmax with max-shift stabilization."""
    p = softmax_array(z.data)

    def backward(g):
        dot = (p * g).sum(axis=-1, keepdims=True)
        return ((z, p * (g - dot)),)

    return _result(p, (z,), backward)


def masked_cross_entropy(logits: Tensor, targets, mask_positions) -> Tensor:
    """Summed negative log-likelihood over the masked positions only.

    Returns the scalar ``-sum_{t in mask} log p(targets[t] | logits[t])``;
    the gradient is nonzero only at masked rows. An empty mask gives exactly
    zero loss and zero gradient.
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
    rows = logits.data[mask_positions]
    logp = _log_softmax(rows)
    loss = -logp[np.arange(len(mask_positions)), tgt].sum()

    def backward(g):
        grows = np.exp(logp)
        grows[np.arange(len(mask_positions)), tgt] -= 1.0
        gl = np.zeros_like(logits.data)
        np.add.at(gl, mask_positions, grows * g)
        return ((logits, gl),)

    return _result(np.float64(loss), (logits,), backward)


def kl_rows(student_logits: Tensor, teacher_logits, tau: float, direction: str = "reverse") -> Tensor:
    """Temperature-scaled KL divergence, averaged over rows and scaled by tau^2.

    ``reverse`` computes KL(softmax(student/tau) || softmax(teacher/tau)),
    so the gradient on a coordinate is weighted by the student probability
    there (mode-seeking); ``forward`` swaps the arguments and is weighted by
    the teacher probability (mean-seeking). Only the student side receives
    gradients.
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
    logp = _log_softmax(student_logits.data / tau)
    logq = _log_softmax(tea / tau)
    p = np.exp(logp)
    if direction == "reverse":
        per_row = (p * (logp - logq)).sum(axis=1)

        def backward(g):
            gs = (tau / n_rows) * p * ((logp - logq) - per_row[:, None])
            return ((student_logits, gs * g),)
    else:
        q = np.exp(logq)
        per_row = (q * (logq - logp)).sum(axis=1)

        def backward(g):
            gs = (tau / n_rows) * (p - q)
            return ((student_logits, gs * g),)

    loss = (tau * tau) * per_row.mean()
    return _result(np.float64(loss), (student_logits,), backward)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask) -> Tensor:
    """Scaled dot-product attention where ``mask[t, t']`` gates visibility.

    ``q`` has ``Tq`` rows and ``k``/``v`` have ``Tk >= Tq`` rows (queries for
    the last rows of a sequence whose earlier keys are cached); ``mask`` is
    ``Tq x Tk``. Positions with ``mask`` False contribute exactly zero
    weight. Every row must be able to see at least one position.
    """
    mask = np.asarray(mask, dtype=bool)
    Tq, d = q.data.shape
    Tk = k.data.shape[0]
    if Tk < Tq or k.data.shape != (Tk, d) or v.data.shape != (Tk, d):
        raise DimensionError(f"q/k/v shapes differ: {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if mask.shape != (Tq, Tk):
        raise DimensionError(f"mask must be {Tq}x{Tk}, got {mask.shape}")
    if not mask.any(axis=1).all():
        raise ContractError("attention row with no visible positions")
    inv_sqrt_d = 1.0 / math.sqrt(d)
    scores = (q.data @ k.data.T) * inv_sqrt_d
    scores[~mask] = -np.inf
    w = softmax_array(scores)
    out = w @ v.data

    def backward(g):
        gw = g @ v.data.T
        gs = w * (gw - (w * gw).sum(axis=1, keepdims=True))  # zero where w == 0
        return (
            (q, (gs @ k.data) * inv_sqrt_d),
            (k, (gs.T @ q.data) * inv_sqrt_d),
            (v, w.T @ g),
        )

    return _result(out, (q, k, v), backward)


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
    per_param: dict

    def __str__(self):
        name, idx, a, n = self.worst
        return (f"grad check: max rel err {self.max_rel_err:.3e} over {self.n_checked} coordinates, "
                f"{self.n_skipped_nonsmooth} skipped at kinks "
                f"(worst {name}[{idx}]: analytic {a:.6e}, numeric {n:.6e})")


def grad_check(loss_fn, params, epsilon=1e-6, max_coords_per_param=24, rng=None,
               floor_scale=1e-4) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    ``loss_fn`` must rebuild the forward pass from the current parameter
    values and return a scalar Tensor. Up to ``max_coords_per_param``
    coordinates are sampled per parameter (all of them when small).

    The per-coordinate error is ``|a - n| / max(|a|, |n|, floor)`` with
    ``floor = floor_scale * max(1, |loss|)``: below the floor, differences
    are indistinguishable from float64 finite-difference roundoff, so
    near-zero gradients are compared absolutely at that scale. Coordinates
    whose two one-sided differences disagree strongly sit on a ReLU kink
    inside the probe interval; central differences are meaningless there,
    so they are skipped and counted in the report.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ParameterError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    if rng is None:
        rng = make_rng(0)
    zero_grads(params)
    loss = loss_fn()
    loss.backward()
    f0 = loss.item()
    analytic = {p.name: p.value.grad.copy() for p in params}
    floor = floor_scale * max(1.0, abs(f0))

    max_rel = 0.0
    worst = (params[0].name, 0, 0.0, 0.0)
    checked = 0
    skipped = 0
    per_param = {}
    with no_grad():
        for p in params:
            size = p.value.data.size
            if size <= max_coords_per_param:
                coords = np.arange(size)
            else:
                coords = rng.choice(size, size=max_coords_per_param, replace=False)
            flat = p.value.data.reshape(-1)
            p_max = 0.0
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
                if rel > p_max:
                    p_max = rel
                if rel > max_rel:
                    max_rel = rel
                    worst = (p.name, int(c), float(a), float(numeric))
            per_param[p.name] = p_max
    return GradCheckReport(max_rel_err=float(max_rel), n_checked=checked,
                           n_skipped_nonsmooth=skipped, worst=worst, per_param=per_param)
