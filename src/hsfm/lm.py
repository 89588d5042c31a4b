"""The one Levenberg-Marquardt loop, shared by bundle adjustment, pose polish
and focal refinement (Madsen, Nielsen & Tingleff 2004, section 3.2).

Damping is lam times the diagonal of J^T J floored at 1e-12 (Marquardt's),
from lam = 1e-3; only cost-lowering steps are taken.  lam grows 10x on a
rejected step and on one that gained under a quarter of the reduction the
linear model predicted (Gauss-Newton's crawl on large residuals), and
shrinks 10x on one that gained over three quarters.  It stops when an
accepted step lowers the cost both actually and as predicted by at most
``tol`` relative (MINPACK's lmder test), at (near-)zero cost, or after
``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_ZERO_COST = 1e-20


@dataclass
class Report:
    initial_cost: float
    final_cost: float
    iterations: int
    termination: str   # zero_cost, converged, not_converged or stalled
    accepted_costs: list = field(default_factory=list)


def dense_system(J, r):
    """``linearize``'s result for a dense Jacobian J at residuals r."""
    H, g = J.T @ J, J.T @ r
    return (H, g), g, np.diag(H)


def damped_solve(H, g, lam):
    """The damped step of a dense system from ``dense_system``."""
    return np.linalg.solve(H + np.diag(lam * np.maximum(np.diag(H), 1e-12)), -g)


def minimize(cost, linearize, solve, trial, accept, tol, max_iterations) -> Report:
    """Minimize a sum of squared residuals, ``cost`` at the current point.

    ``linearize()`` returns (system, J^T r, diagonal of J^T J) at the current
    point; ``solve(*system, lam)`` the damped step, or raises LinAlgError;
    ``trial(step)`` the cost after the step; ``accept(step, cost_trial)``
    takes the step and returns the new cost.  "stalled": no step was accepted.
    """
    report = Report(cost, cost, 0, "zero_cost" if cost <= _ZERO_COST else "not_converged")
    lam = 1e-3
    while report.termination == "not_converged" and report.iterations < max_iterations:
        report.iterations += 1
        system, g, diag = linearize()
        while lam < 1e14:
            try:
                step = solve(*system, lam)
            except np.linalg.LinAlgError:
                step = np.full(len(g), np.nan)   # rejected like a non-finite step
            if np.all(np.isfinite(step)) and (cost_trial := trial(step)) < cost:
                break
            lam *= 10.0
        else:
            report.termination = "converged" if report.accepted_costs else "stalled"
            break
        # the linear model's reduction, as (J^T J + lam D) step = -g gives it
        predicted = float(step @ (lam * np.maximum(diag, 1e-12) * step) - g @ step)
        actual = cost - cost_trial
        report.accepted_costs.append(cost_trial)
        prev, cost = cost, accept(step, cost_trial)
        if actual < 0.25 * predicted:
            lam *= 10.0
        elif actual > 0.75 * predicted:
            lam = max(lam / 10.0, 1e-12)
        if cost <= _ZERO_COST or max(actual, predicted) <= tol * prev:
            report.termination = "converged"
    report.final_cost = cost
    return report
