"""AMSGrad optimizer (the max-of-second-moment Adam variant, no bias correction)."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NumericError(RuntimeError):
    """Raised when a gradient or loss stops being finite."""


@dataclass
class OptimizerState:
    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    v_hat: dict[str, np.ndarray] = field(default_factory=dict)
    # two work arrays per parameter, so a step allocates nothing
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "step_count": self.step_count,
            "m": {k: v.tolist() for k, v in self.m.items()},
            "v": {k: v.tolist() for k, v in self.v.items()},
            "v_hat": {k: v.tolist() for k, v in self.v_hat.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerState":
        return cls(
            learning_rate=d["learning_rate"], beta1=d["beta1"], beta2=d["beta2"],
            eps=d["eps"], step_count=d["step_count"],
            m={k: np.asarray(v) for k, v in d["m"].items()},
            v={k: np.asarray(v) for k, v in d["v"].items()},
            v_hat={k: np.asarray(v) for k, v in d["v_hat"].items()},
        )


def amsgrad_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 state: OptimizerState) -> None:
    """One update in place:

        m <- b1*m + (1-b1)*g
        v <- b2*v + (1-b2)*g^2
        v_hat <- max(v_hat, v)
        theta <- theta - lr * m / (sqrt(v_hat) + eps)
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    state.step_count += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.eps
    for name, theta in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
            state.v_hat[name] = np.zeros_like(theta)
        m, v, v_hat = state.m[name], state.v[name], state.v_hat[name]
        if name not in state.scratch:
            state.scratch[name] = (np.empty_like(theta), np.empty_like(theta))
        num, den = state.scratch[name]
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
