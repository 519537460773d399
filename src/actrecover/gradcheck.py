"""Finite-difference verification of analytic gradients.

Central differences at 64-bit with a small step give roughly eight
significant digits; relative errors below 1e-4 indicate a correct adjoint
for every layer used here. The checked parameters are promoted to float64
first, so a float32 model is checked at 64-bit too: by the dtype rule of
:mod:`actrecover.tensor`, every operation downstream of them computes in
float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import NumericError, Parameter, ShapeError, Tensor

__all__ = ["GradientReport", "grad_check"]


@dataclass
class GradientReport:
    """Worst relative gradient error per parameter and overall."""

    op_name: str
    max_rel_error: float
    per_parameter: dict[str, float]


def _checked(loss: Tensor) -> Tensor:
    """``loss`` itself, once it is known to be a finite scalar."""
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is not finite")
    return loss


def grad_check(
    forward: Callable[[], Tensor],
    params: Sequence[Parameter],
    eps: float = 1e-5,
    name: str = "loss",
) -> GradientReport:
    """Compare analytic gradients of ``forward()`` against central differences.

    ``forward`` must rebuild its graph on every call and return a scalar;
    it is evaluated twice per parameter entry. The relative error for one
    entry is ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    Each of ``params`` is left holding its value in float64, in arrays of
    its own: a model's parameter leaves the model's flat buffers.
    """
    for p in params:
        p.data = p.data.astype(np.float64, copy=False)
        p.grad = np.zeros_like(p.data)
    _checked(forward()).backward()
    analytic = {p.name: np.array(p.grad, copy=True) for p in params}

    per_parameter: dict[str, float] = {}
    for p in params:
        flat = p.data.reshape(-1)
        a_flat = analytic[p.name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(_checked(forward()).data)
            flat[i] = orig - eps
            f_minus = float(_checked(forward()).data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]), abs(numeric))
            if rel > worst:
                worst = rel
        per_parameter[p.name] = worst
    overall = max(per_parameter.values(), default=0.0)
    return GradientReport(op_name=name, max_rel_error=overall, per_parameter=per_parameter)
