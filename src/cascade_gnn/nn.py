"""Graph-attention convolution, pooling, dense layers and hinge loss.

A convolution aggregates over each node's neighborhood plus a self loop.
Attention logits score the concatenation [W h_i || W h_j || flags_ij]
through a learned vector and a leaky ReLU (slope 0.2); self-loop flags
are all-zero.  A graph's pair relations come as one boolean array
``relation`` (n, n, 4), where ``relation[i, j]`` holds (i_follows_j,
j_follows_i, spread_i_to_j, spread_j_to_i).  The messages are the n self
loops, then for each related pair i < j in row-major order the message
j -> i, carrying ``relation[i, j]``, and i -> j, carrying ``relation[j, i]``.

Training and scoring run the array-level passes (``gat_layer``/
``gat_layer_backward``, ``selu``, ``pair_pool``, ``mean_pool``, ``fc``,
``hinge``): each returns a small cache from the forward and has a
hand-written backward.  The ``*_forward`` functions over ``Tensor`` build
the autograd tape, which only the tests run: it is the reference whose
arithmetic and order the array passes repeat, so their values and
gradients are bit-identical to it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Tensor

ATTENTION_SLOPE = 0.2
NUM_EDGE_FLAGS = 4


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """Directed message arrays (self loops included) for one graph."""

    src: np.ndarray    # (m,) message sources
    dst: np.ndarray    # (m,) message destinations
    flags: np.ndarray  # (m, 4) relation flags as seen from dst
    num_nodes: int


def build_edge_arrays(relation: np.ndarray) -> EdgeArrays:
    """The messages of the graph whose pair relations are ``relation``, in
    the order the module docstring gives.  ``relation[j, i]`` must be
    ``relation[i, j]`` with the flag pairs swapped, as the graph build
    makes it."""
    n = relation.shape[0]
    pairs = np.argwhere(np.triu(relation.any(axis=2), 1))  # rows (i, j), row-major
    loops = np.arange(n, dtype=np.intp)
    src = np.concatenate([loops, pairs[:, ::-1].reshape(-1)])
    dst = np.concatenate([loops, pairs.reshape(-1)])
    flags = np.zeros((src.size, NUM_EDGE_FLAGS))
    flags[n:] = relation[dst[n:], src[n:]]
    return EdgeArrays(src, dst, flags, n)


def _check_gat_inputs(h: np.ndarray, ea: EdgeArrays, weight: np.ndarray) -> None:
    if h.ndim != 2:
        raise ValueError("node matrix must be rank 2")
    if h.shape[0] != ea.num_nodes:
        raise ValueError(f"node matrix has {h.shape[0]} rows for {ea.num_nodes} nodes")
    if h.shape[1] != weight.shape[0]:
        raise ValueError(f"feature width {h.shape[1]} does not match weight "
                         f"{weight.shape}")


def gat_forward(h: Tensor, ea: EdgeArrays, weight: Tensor, attn: Tensor, bias: Tensor,
                return_attention: bool = False):
    """One attention head over the graph; output is (n, f_out).  ``weight``
    is (f_in, f_out), ``attn`` (2*f_out + 4, 1) as [self block | neighbor
    block | flag block], and ``bias`` (1, f_out)."""
    _check_gat_inputs(h.data, ea, weight.data)
    f_out = weight.data.shape[1]
    wh = ag.matmul(h, weight)                              # (n, f_out)
    a_self = ag.slice_rows(attn, 0, f_out)
    a_neigh = ag.slice_rows(attn, f_out, 2 * f_out)
    a_flags = ag.slice_rows(attn, 2 * f_out, 2 * f_out + NUM_EDGE_FLAGS)

    score_self = ag.matmul(wh, a_self)                     # (n, 1)
    score_neigh = ag.matmul(wh, a_neigh)                   # (n, 1)
    logits = ag.leaky_relu(
        ag.add(ag.add(ag.gather_rows(score_self, ea.dst), ag.gather_rows(score_neigh, ea.src)),
               ag.matmul(Tensor(ea.flags), a_flags)),
        ATTENTION_SLOPE)
    alpha = ag.segment_softmax(logits, ea.dst, ea.num_nodes)
    messages = ag.mul(alpha, ag.gather_rows(wh, ea.src))   # (m, f_out)
    out = ag.add(ag.segment_sum(messages, ea.dst, ea.num_nodes), bias)
    if return_attention:
        return out, alpha
    return out


def mean_pool_channels(h: Tensor, window: int = 2) -> Tensor:
    """Channel-pair mean pooling for dimensionality reduction."""
    return ag.pair_mean_channels(h, window)


def global_mean_pool(h: Tensor) -> Tensor:
    """Graph readout: column-wise mean over all nodes, shape (1, f)."""
    if h.data.shape[0] < 1:
        raise ValueError("global mean pool needs at least one node")
    return ag.mean_axis0(h)


def fc_forward(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    return ag.add(ag.matmul(x, weight), bias)


def _hinge_sign(shape: tuple, label: int) -> np.ndarray:
    if shape != (1, 2):
        raise ValueError(f"scores must have shape (1, 2), got {shape}")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return np.array([[1.0, -1.0]]) if label == 0 else np.array([[-1.0, 1.0]])


def hinge_loss(scores: Tensor, label: int) -> Tensor:
    """max(0, 1 - margin) where margin = s_correct - s_incorrect.

    ``scores`` is a (1, 2) row (s_true, s_fake); ``label`` indexes the
    correct class (0 true, 1 fake).
    """
    sign = _hinge_sign(scores.data.shape, label)
    margin = ag.sum_all(ag.mul(scores, Tensor(sign)))
    return ag.relu(ag.sub(Tensor(np.asarray(1.0)), margin))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Plain inference-time softmax of a 1-D score vector."""
    z = np.exp(scores - scores.max())
    return z / z.sum()


# -- array-level passes with hand-written backwards ----------------------------
#
# Scatters sum each output entry's terms in message order, as np.add.at
# does, and every product and sum below is the one the tape evaluates, in
# the same order and on arrays of the same memory layout.  That is what
# keeps losses and gradients bit-identical to the tape reference above.

def scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum the rows of ``values`` into ``num_rows`` rows by ``index``.

    One ``bincount`` over flattened (row, column) bins adds each bin's
    terms sequentially in index order, exactly like ``np.add.at`` into
    zeros, at a fraction of its cost.
    """
    width = values.shape[1]
    bins = index if width == 1 else (index[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(bins, weights=values.reshape(-1),
                       minlength=num_rows * width).reshape(num_rows, width)


class GatCache(NamedTuple):
    h: np.ndarray         # (n, f_in) layer input
    weight: np.ndarray
    attn: np.ndarray
    wh: np.ndarray        # (n, f_out)
    positive: np.ndarray  # (m, 1) leaky-ReLU branch of each attention logit
    z: np.ndarray         # (m, 1) exp(logit - segment max)
    denom: np.ndarray     # (m, 1) softmax denominator of each message's segment
    alpha: np.ndarray     # (m, 1) attention weights
    wh_src: np.ndarray    # (m, f_out) wh gathered at message sources


def gat_layer(h: np.ndarray, ea: EdgeArrays, weight: np.ndarray, attn: np.ndarray,
              bias: np.ndarray) -> tuple[np.ndarray, GatCache]:
    """``gat_forward`` on arrays: returns (out, cache)."""
    _check_gat_inputs(h, ea, weight)
    n, f_out = ea.num_nodes, weight.shape[1]
    wh = h @ weight
    pre = ((wh @ attn[:f_out])[ea.dst] + (wh @ attn[f_out:2 * f_out])[ea.src]
           + ea.flags @ attn[2 * f_out:])
    positive = pre > 0
    logits = np.where(positive, pre, ATTENTION_SLOPE * pre)
    seg_max = np.full((n, 1), -np.inf)
    np.maximum.at(seg_max, ea.dst, logits)
    z = np.exp(logits - seg_max[ea.dst])
    denom = scatter_rows(ea.dst, z, n)[ea.dst]
    alpha = z / denom
    wh_src = wh[ea.src]
    out = scatter_rows(ea.dst, alpha * wh_src, n) + bias
    return out, GatCache(h, weight, attn, wh, positive, z, denom, alpha, wh_src)


def gat_layer_backward(g_out: np.ndarray, ea: EdgeArrays, cache: GatCache,
                       input_grad: bool = True):
    """Returns (grad of h or None, (grad weight, grad attn, grad bias))."""
    h, weight, attn, wh, positive, z, denom, alpha, wh_src = cache
    n, f_out = wh.shape
    g_msg = g_out[ea.dst]
    g_alpha = (g_msg * wh_src).sum(axis=1, keepdims=True)
    g_wh_gather = scatter_rows(ea.src, g_msg * alpha, n)
    # softmax: z feeds the quotient and, through the denominator, the sum
    g_denom = scatter_rows(ea.dst, -g_alpha * z / (denom * denom), n)
    g_z = g_alpha / denom + g_denom[ea.dst]
    g_pre = g_z * z * np.where(positive, 1.0, ATTENTION_SLOPE)
    g_self = scatter_rows(ea.dst, g_pre, n)
    g_neigh = scatter_rows(ea.src, g_pre, n)
    g_attn = np.concatenate([wh.T @ g_self, wh.T @ g_neigh, ea.flags.T @ g_pre])
    # the tape adds wh's gradient terms in this order
    g_wh = g_self @ attn[:f_out].T + g_neigh @ attn[f_out:2 * f_out].T + g_wh_gather
    g_h = g_wh @ weight.T if input_grad else None
    return g_h, (h.T @ g_wh, g_attn, g_out.sum(axis=0, keepdims=True))


def selu(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    positive = x > 0
    expx = np.exp(np.minimum(x, 0.0))
    out = np.where(positive, ag.SELU_LAMBDA * x, ag.SELU_LAMBDA * ag.SELU_ALPHA * (expx - 1.0))
    return out, (positive, expx)


def selu_backward(g: np.ndarray, cache: tuple) -> np.ndarray:
    positive, expx = cache
    return g * np.where(positive, ag.SELU_LAMBDA, ag.SELU_LAMBDA * ag.SELU_ALPHA * expx)


def pair_pool(x: np.ndarray) -> np.ndarray:
    """``mean_pool_channels`` over channel pairs on arrays; its backward needs no cache."""
    n, width = x.shape
    if width % 2 != 0:
        raise ValueError(f"feature width {width} not divisible by 2")
    return x.reshape(n, width // 2, 2).mean(axis=2)


def pair_pool_backward(g: np.ndarray) -> np.ndarray:
    return np.repeat(g, 2, axis=1) / 2


def mean_pool(x: np.ndarray) -> np.ndarray:
    """``global_mean_pool`` on arrays."""
    if x.shape[0] < 1:
        raise ValueError("global mean pool needs at least one node")
    return x.sum(axis=0, keepdims=True) / x.shape[0]


def mean_pool_backward(g: np.ndarray, num_nodes: int) -> np.ndarray:
    return np.broadcast_to(g / num_nodes, (num_nodes, g.shape[1]))


def fc(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return x @ weight + bias


def fc_backward(g: np.ndarray, x: np.ndarray, weight: np.ndarray):
    """Returns (grad x, grad weight, grad bias)."""
    return g @ weight.T, x.T @ g, g


def hinge(scores: np.ndarray, label: int) -> tuple[float, np.ndarray | None]:
    """``hinge_loss`` on arrays: (loss, grad of scores or None when the
    hinge is inactive and the gradient is exactly zero)."""
    sign = _hinge_sign(scores.shape, label)
    x = 1.0 - (scores * sign).sum()
    if x > 0:
        return float(x), -sign
    return 0.0, None
