"""The model's forward pass in plain formulas: the oracle for the tuned ops.

These are the ops in their straightforward form: ``np.mean`` RMSNorm, an
``np.where`` ReLU, attention that fills hidden scores with ``-inf`` whether
or not any are hidden and takes a fresh softmax, a gather of the
conditioning rows by index, and every product taken per sequence block
with ``np.matmul(..., out=)``. Each records its backward onto the package's
tape exactly as the package does, so a forward and backward pass through
:func:`reference_forward` must give bit for bit the logits and parameter
gradients of ``talker.forward``.
"""

import functools
import math
import operator

import numpy as np

from blockmdm import nd, talker


def node(data, parents, backward):
    out = nd.Tensor(data)
    if nd.grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad, out._parents, out._backward = True, tuple(parents), backward
    return out


def sum_in_order(parts):
    return functools.reduce(operator.iadd, parts)


def matmul(a, b, blocks):
    out = np.empty((a.data.shape[0], b.data.shape[1]))
    for rows in blocks:
        np.matmul(a.data[rows], b.data, out=out[rows])

    def backward(g):
        ga = np.empty_like(a.data)
        for rows in blocks:
            np.matmul(g[rows], b.data.T, out=ga[rows])
        return ((a, ga), (b, sum_in_order(a.data[rows].T @ g[rows] for rows in blocks)))

    return node(out, (a, b), backward)


def add(a, b, blocks):
    if a.data.shape == b.data.shape:
        def backward(g):
            return ((a, g), (b, g.copy()))
    else:
        def backward(g):
            return ((a, g), (b, sum_in_order(g[rows].sum(axis=0) for rows in blocks)))
    return node(a.data + b.data, (a, b), backward)


def relu(a):
    mask = a.data > 0
    return node(np.where(mask, a.data, 0.0), (a,), lambda g: ((a, g * mask),))


def rmsnorm(a, eps=1e-6):
    x = a.data
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + eps)

    def backward(g):
        dot = (x * g).sum(axis=1, keepdims=True)
        return ((a, inv * (g - x * (dot * inv * inv / x.shape[1]))),)

    return node(x * inv, (a,), backward)


def embedding(table, ids, blocks):
    def backward(g):
        parts = []
        for rows in blocks:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids[rows], g[rows])
            parts.append(gt)
        return ((table, sum_in_order(parts)),)

    return node(table.data[ids], (table,), backward)


def take_rows(a, rows):
    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, rows, g)
        return ((a, ga),)

    return node(a.data[rows], (a,), backward)


def softmax(z):
    e = z - z.max(axis=-1, keepdims=True)
    e = np.exp(e)
    return e / e.sum(axis=-1, keepdims=True)


def attention(q, k, v, masks, n_heads):
    """Per sequence and head: scores, an unconditional ``-inf`` fill, a fresh
    softmax, and the weighted values copied into an output buffer."""
    Tq, d = q.data.shape
    inv_sqrt_d = 1.0 / math.sqrt(d // n_heads)

    def split(x):
        return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)

    def merge(x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    out = np.empty_like(qh)
    segments = []
    q0 = k0 = 0
    for m in masks:
        sq, sk = slice(q0, q0 + m.shape[0]), slice(k0, k0 + m.shape[1])
        scores = qh[:, sq] @ kh[:, sk].transpose(0, 2, 1)
        scores *= inv_sqrt_d
        np.copyto(scores, -np.inf, where=~m)
        w = softmax(scores)
        out[:, sq] = w @ vh[:, sk]
        segments.append((sq, sk, w))
        q0, k0 = sq.stop, sk.stop

    def backward(g):
        gh = split(g)
        gq, gk, gv = np.empty_like(qh), np.empty_like(kh), np.empty_like(vh)
        for sq, sk, w in segments:
            gw = gh[:, sq] @ vh[:, sk].transpose(0, 2, 1)
            gs = gw - (w * gw).sum(axis=-1, keepdims=True)
            gs *= w
            gq[:, sq] = (gs @ kh[:, sk]) * inv_sqrt_d
            gk[:, sk] = (gs.transpose(0, 2, 1) @ qh[:, sq]) * inv_sqrt_d
            gv[:, sk] = w.transpose(0, 2, 1) @ gh[:, sq]
        return ((q, merge(gq)), (k, merge(gk)), (v, merge(gv)))

    return node(merge(out), (q, k, v), backward)


def reference_forward(params, cfg, tokens, aligned, lengths=None, prefix=None):
    """Logits of ``talker.forward`` in the plain formulas.

    ``lengths`` splits the rows into stacked sequences, as in
    ``talker.forward``. ``prefix`` holds per layer the keys and values of
    one sequence's first rows, which then play the cached rows of a
    ``talker.KVCache``. Returns the logits and per layer the keys and values
    of every row up to the last one computed.
    """
    tokens = np.asarray(tokens, dtype=np.intp)
    lengths = [len(tokens)] if lengths is None else list(lengths)
    offset = 0 if prefix is None else len(prefix[0][0])
    ends = np.cumsum(lengths)
    blocks = [slice(int(e) - n, int(e)) for e, n in zip(ends, lengths)]
    positions = np.concatenate([np.arange(offset, offset + n) for n in lengths])
    masks = [talker.build_block_causal_mask(offset + n, cfg.B)[offset:] for n in lengths]
    h_prime = aligned.h_prime if aligned.T == len(tokens) else take_rows(aligned.h_prime, positions)

    f = params.fusion
    x = add(embedding(params.tok_embed.value, tokens, blocks), h_prime, blocks)
    u = relu(add(matmul(x, f.W1.value, blocks), f.b1.value, blocks))
    x = add(matmul(u, f.W2.value, blocks), f.b2.value, blocks)
    x = add(x, embedding(params.pos_embed.value, positions, blocks), blocks)
    kv = []
    for layer, lp in enumerate(params.layers):
        h = rmsnorm(x)
        q = matmul(h, lp.wq.value, blocks)
        k = matmul(h, lp.wk.value, blocks)
        v = matmul(h, lp.wv.value, blocks)
        if prefix is not None:
            k = nd.constant(np.concatenate([prefix[layer][0], k.data]))
            v = nd.constant(np.concatenate([prefix[layer][1], v.data]))
        kv.append((k.data, v.data))
        x = add(x, matmul(attention(q, k, v, masks, cfg.n_heads), lp.wo.value, blocks), blocks)
        h = rmsnorm(x)
        x = add(x, matmul(relu(matmul(h, lp.ffn_in.value, blocks)), lp.ffn_out.value, blocks), blocks)
    return matmul(rmsnorm(x), params.head.value, blocks), kv
