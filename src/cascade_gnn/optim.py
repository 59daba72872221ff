"""AMSGrad optimizer (the max-of-second-moment Adam variant, no bias correction)."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NumericError(RuntimeError):
    """Raised when a gradient or loss stops being finite."""


@dataclass
class OptimizerState:
    """AMSGrad's hyperparameters and moments.  The moments and the two work
    arrays are one flat array each, laid out as the parameter vector, and
    are allocated on the first step.  ``layout`` lists each parameter's
    (name, size) in that order; it names a non-finite gradient."""

    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    layout: tuple[tuple[str, int], ...] = ()
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    v_hat: np.ndarray | None = None
    # two work arrays, so a step allocates nothing
    scratch: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)


def _parameter_at(layout: tuple[tuple[str, int], ...], index: int) -> str:
    """The name of the parameter that holds flat ``index``."""
    end = 0
    for name, size in layout:
        end += size
        if index < end:
            return repr(name)
    return f"at index {index}"


def amsgrad_step(theta: np.ndarray, g: np.ndarray, state: OptimizerState) -> None:
    """One update of the flat parameter vector ``theta`` in place, from its
    gradient ``g`` (same layout):

        m <- b1*m + (1-b1)*g
        v <- b2*v + (1-b2)*g^2
        v_hat <- max(v_hat, v)
        theta <- theta - lr * m / (sqrt(v_hat) + eps)
    """
    finite = np.isfinite(g)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NumericError(
            f"non-finite gradient for parameter {_parameter_at(state.layout, bad)}")
    state.step_count += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.eps
    if state.m is None:
        state.m, state.v, state.v_hat = (np.zeros_like(theta) for _ in range(3))
        state.scratch = (np.empty_like(theta), np.empty_like(theta))
    m, v, v_hat = state.m, state.v, state.v_hat
    num, den = state.scratch
    # the same operations, in the same order, as the expressions above
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=num)
    v *= b2
    np.multiply(g, 1.0 - b2, out=num)
    num *= g
    v += num
    np.maximum(v_hat, v, out=v_hat)
    np.sqrt(v_hat, out=den)
    den += eps
    np.multiply(m, lr, out=num)
    num /= den
    theta -= num
