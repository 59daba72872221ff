"""Reverse-mode differentiation over dense float64 tensors of rank <= 2.

Each op records a closure that routes the output gradient to its inputs;
``Tensor.backward()`` replays the tape in reverse topological order.
Gradients accumulate on leaves, and one forward tape supports exactly
one backward pass: a fresh pass starts from fresh leaves.

Only the tests run the tape.  Training and scoring use the array passes
in ``nn`` with hand-written backwards, over plain parameter arrays; the
tape is their reference, and the tests wrap those arrays in leaf tensors
(which share their memory) to check that the passes reproduce its losses
and gradients bit for bit.
"""
from __future__ import annotations

import numpy as np

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward_fn", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"tensors are limited to rank 2, got rank {arr.ndim}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._prev: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Propagate gradients from this scalar back to every input."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        if self._backward_done:
            raise RuntimeError("backward() already called for this forward pass; "
                               "rerun the forward computation first")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn()
        self._backward_done = True

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape numpy broadcast it from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward_fn = backward_fn
    return out


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad, b.data.shape))

    out = _make(out_data, (a, b), backward)
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data - b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-out.grad, b.data.shape))

    out = _make(out_data, (a, b), backward)
    return out


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward():
        if a.requires_grad:
            a._accumulate(-out.grad)

    out = _make(-a.data, (a,), backward)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * a.data, b.data.shape))

    out = _make(out_data, (a, b), backward)
    return out


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data / b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape))

    out = _make(out_data, (a, b), backward)
    return out


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul requires two rank-2 tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ out.grad)

    out = _make(out_data, (a, b), backward)
    return out


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad * out_data)

    out = _make(out_data, (a,), backward)
    return out


def selu(a) -> Tensor:
    """Scaled exponential linear unit with the reference constants."""
    a = _as_tensor(a)
    pos = a.data > 0
    expx = np.exp(np.minimum(a.data, 0.0))
    out_data = np.where(pos, SELU_LAMBDA * a.data, SELU_LAMBDA * SELU_ALPHA * (expx - 1.0))

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad * np.where(pos, SELU_LAMBDA, SELU_LAMBDA * SELU_ALPHA * expx))

    out = _make(out_data, (a,), backward)
    return out


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _as_tensor(a)
    pos = a.data > 0
    out_data = np.where(pos, a.data, slope * a.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad * np.where(pos, 1.0, slope))

    out = _make(out_data, (a,), backward)
    return out


def relu(a) -> Tensor:
    """max(0, x); the subgradient at 0 is taken as 0."""
    a = _as_tensor(a)
    pos = a.data > 0
    out_data = np.where(pos, a.data, 0.0)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad * pos)

    out = _make(out_data, (a,), backward)
    return out


def gather_rows(a, index: np.ndarray) -> Tensor:
    """Select rows of a rank-2 tensor; backward scatter-adds."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError("gather_rows requires a rank-2 tensor")
    index = np.asarray(index, dtype=np.intp)
    out_data = a.data[index]

    def backward():
        if a.requires_grad:
            g = np.zeros_like(a.data)
            np.add.at(g, index, out.grad)
            a._accumulate(g)

    out = _make(out_data, (a,), backward)
    return out


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError("slice_rows requires a rank-2 tensor")
    out_data = a.data[start:stop].copy()

    def backward():
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[start:stop] = out.grad
            a._accumulate(g)

    out = _make(out_data, (a,), backward)
    return out


def segment_sum(a, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows into segments; row r of the output is the sum of rows with id r."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError("segment_sum requires a rank-2 tensor")
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    out_data = np.zeros((num_segments, a.data.shape[1]))
    np.add.at(out_data, segment_ids, a.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad[segment_ids])

    out = _make(out_data, (a,), backward)
    return out


def segment_softmax(logits, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of an (n, 1) logit column within each segment.

    The per-segment max is subtracted as a constant; softmax is shift
    invariant so values and gradients are unchanged.
    """
    logits = _as_tensor(logits)
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    seg_max = np.full((num_segments, 1), -np.inf)
    np.maximum.at(seg_max, segment_ids, logits.data)
    shifted = sub(logits, Tensor(seg_max[segment_ids]))
    z = exp(shifted)
    denom = segment_sum(z, segment_ids, num_segments)
    return div(z, gather_rows(denom, segment_ids))


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.asarray(a.data.sum())

    def backward():
        if a.requires_grad:
            a._accumulate(np.broadcast_to(out.grad, a.data.shape).copy())

    out = _make(out_data, (a,), backward)
    return out


def mean_axis0(a) -> Tensor:
    """Column-wise mean over rows, kept as a (1, cols) tensor."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError("mean_axis0 requires a rank-2 tensor")
    n = a.data.shape[0]
    if n == 0:
        raise ValueError("mean over zero rows")
    out_data = a.data.sum(axis=0, keepdims=True) / n

    def backward():
        if a.requires_grad:
            a._accumulate(np.broadcast_to(out.grad / n, a.data.shape).copy())

    out = _make(out_data, (a,), backward)
    return out


def pair_mean_channels(a, window: int = 2) -> Tensor:
    """Average each consecutive block of ``window`` channels: (n, w*k) -> (n, k)."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError("pair_mean_channels requires a rank-2 tensor")
    n, width = a.data.shape
    if width % window != 0:
        raise ValueError(f"feature width {width} not divisible by window {window}")
    out_data = a.data.reshape(n, width // window, window).mean(axis=2)

    def backward():
        if a.requires_grad:
            g = np.repeat(out.grad, window, axis=1) / window
            a._accumulate(g)

    out = _make(out_data, (a,), backward)
    return out
