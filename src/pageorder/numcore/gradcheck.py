"""Central-difference verification of backward passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError
from .tensor import Tensor

__all__ = ["ParamCheck", "GradCheckReport", "grad_check"]


@dataclass
class ParamCheck:
    name: str
    max_rel_error: float
    checked: int
    failures: list[tuple[int, float, float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class GradCheckReport:
    tolerance: float
    epsilon: float
    params: list[ParamCheck]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.params)

    @property
    def max_rel_error(self) -> float:
        return max((p.max_rel_error for p in self.params), default=0.0)

    def summary(self) -> str:
        lines = [f"grad check (eps={self.epsilon:g}, tol={self.tolerance:g})"]
        for p in self.params:
            status = "ok" if p.passed else f"FAIL ({len(p.failures)} entries)"
            lines.append(f"  {p.name}: max rel err {p.max_rel_error:.3e} over {p.checked} entries: {status}")
        return "\n".join(lines)


def grad_check(
    f: Callable[[], Tensor],
    named_params: Sequence[tuple[str, Tensor]],
    epsilon: float = 1e-5,
    tolerance: float = 1e-3,
) -> GradCheckReport:
    """Compare autodiff gradients of a scalar function against central differences.

    ``f`` must be deterministic and re-runnable; parameters are perturbed
    in place one element at a time. Use float64 parameters for trustworthy
    results. Relative error is |a - n| / max(|a|, |n|, 1).
    """
    if not 0.0 <= tolerance < np.inf:  # no error exceeds NaN or infinity
        raise ConfigError(f"tolerance must be a finite non-negative number, got {tolerance}")
    params = list(named_params)
    for _, p in params:
        p.zero_grad()
    out = f()
    out.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in params}

    checks: list[ParamCheck] = []
    for name, p in params:
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        failures: list[tuple[int, float, float, float]] = []
        max_err = 0.0
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            upper = f().item()
            flat[i] = original - epsilon
            lower = f().item()
            flat[i] = original
            numeric = (upper - lower) / (2.0 * epsilon)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            max_err = max(max_err, rel)
            if rel > tolerance:
                failures.append((i, a, numeric, rel))
        checks.append(ParamCheck(name=name, max_rel_error=max_err, checked=flat.size, failures=failures))
    return GradCheckReport(tolerance=tolerance, epsilon=epsilon, params=checks)
