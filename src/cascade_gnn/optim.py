"""AMSGrad optimizer (the max-of-second-moment Adam variant, no bias correction).

A step takes the gradient as one vector laid out as the parameters, or None
for an exactly zero gradient: the value ``classifier.loss_and_grads`` returns
when the hinge is inactive.  A None step does only the work that moves a
parameter, and its result is bit-identical to a step on a vector of +0.0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NumericError(RuntimeError):
    """Raised when a gradient or loss stops being finite."""


@dataclass
class OptimizerState:
    """AMSGrad's hyperparameters and moments.  The moments, ``den`` and the
    work array are one flat array each, laid out as the parameter vector,
    and are allocated on the first step.  ``layout`` lists each parameter's
    (name, size) in that order; it names a non-finite gradient.

    ``den`` is ``sqrt(v_hat) + eps`` as the last step that computed it left
    it.  Only a step with a gradient changes ``v_hat``, so ``den`` always
    matches the current ``v_hat`` and a zero-gradient step reuses it.
    """

    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    layout: tuple[tuple[str, int], ...] = ()
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    v_hat: np.ndarray | None = None
    den: np.ndarray | None = None
    # a work array, so a step allocates nothing
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)


def _parameter_at(layout: tuple[tuple[str, int], ...], index: int) -> str:
    """The name of the parameter that holds flat ``index``."""
    end = 0
    for name, size in layout:
        end += size
        if index < end:
            return repr(name)
    return f"at index {index}"


def amsgrad_step(theta: np.ndarray, g: np.ndarray | None, state: OptimizerState) -> None:
    """One update of the flat parameter vector ``theta`` in place, from its
    gradient ``g`` (same layout):

        m <- b1*m + (1-b1)*g
        v <- b2*v + (1-b2)*g^2
        v_hat <- max(v_hat, v)
        theta <- theta - lr * m / (sqrt(v_hat) + eps)

    ``g=None`` means a gradient of exactly zero.  That step runs only
    ``m *= b1``, ``v *= b2`` and the theta update over the stored ``den``.
    For ``0.5 < b1 < 1`` and ``0 <= b2 < 1``, as the defaults are, it is
    bit-identical to the full step on a vector of +0.0:

    - ``v_hat`` cannot grow, since ``fl(b2*v) <= v <= v_hat``, so ``den``
      is still ``sqrt(v_hat) + eps``;
    - adding the +0.0 terms changes no value: m and v start at +0.0, and
      neither can become -0.0 (a round-to-nearest sum is -0.0 only when
      both terms are, and ``fl(b1*m)`` is -0.0 only when m is);
    - there is no gradient to check for finiteness.

    A non-finite gradient raises ``NumericError`` before anything changes.
    """
    if g is not None:
        finite = np.isfinite(g)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NumericError(
                f"non-finite gradient for parameter {_parameter_at(state.layout, bad)}")
    state.step_count += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.eps
    if state.m is None:
        state.m, state.v, state.v_hat = (np.zeros_like(theta) for _ in range(3))
        state.den = np.full_like(theta, eps)  # sqrt(0) + eps
        state.scratch = np.empty_like(theta)
    m, v, v_hat, den, num = state.m, state.v, state.v_hat, state.den, state.scratch
    # per array, the same operations in the same order as the expressions above
    m *= b1
    v *= b2
    if g is not None:
        m += np.multiply(g, 1.0 - b1, out=num)
        np.multiply(g, 1.0 - b2, out=num)
        num *= g
        v += num
        np.maximum(v_hat, v, out=v_hat)
        np.sqrt(v_hat, out=den)
        den += eps
    np.multiply(m, lr, out=num)
    num /= den
    theta -= num
