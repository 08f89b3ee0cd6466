"""Coefficient extraction from bandwidth ladders.

Two routes: a weighted polynomial least-squares fit (canonical), and the
literal sequential-limit recurrence realized by Richardson extrapolation of
each successive difference quotient (the faithful cross-check).  Fitted
coefficients carry heuristic sensitivities, not rigorous confidence bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import a1_closed_form
from .errors import NumericsError, ValidationError
from .fields import ScalarField
from .manifold import ChartPoint, EmbeddedManifold
from .operator import EpsLadder

CONDITION_LIMIT = 1e12


def first_order_check(value: float, reference: float) -> tuple[str, float, bool]:
    """``(criterion, error, passed)`` of a first-order value against its
    reference: relative error at most 0.02, or absolute error at most 1e-3
    when the reference is below 1e-6 in size."""
    if abs(reference) < 1e-6:
        err = abs(value - reference)
        return "absolute", err, err <= 1e-3
    err = abs(value - reference) / abs(reference)
    return "relative", err, err <= 0.02


@dataclass(frozen=True)
class FitReport:
    """Extracted coefficients a_0..a_Q with diagnostics."""
    coefficients: tuple[float, ...]
    covariance_diag: tuple[float, ...]
    max_residual: float
    method: str                      # least_squares | richardson
    condition: float = 0.0


def fit_polynomial(ladder: EpsLadder, Q: int) -> FitReport:
    """Weighted least-squares fit of sum_q a_q eps^q to the ladder values.

    Weights are 1/eps (small-bandwidth emphasis).  The design matrix is
    scaled to the largest bandwidth before solving; a condition number above
    1e12 raises, advising fewer coefficients.
    """
    if Q < 0:
        raise ValidationError("Q must be >= 0")
    eps = ladder.eps
    y = ladder.values
    if eps.size < Q + 2:
        raise ValidationError(
            f"need at least Q+2 = {Q + 2} ladder samples, have {eps.size}")
    scale = eps[0]
    design = np.stack([(eps / scale) ** q for q in range(Q + 1)], axis=1)
    weights = (scale / eps)[:, None]
    a_mat = design * weights
    b_vec = y * weights[:, 0]
    condition = float(np.linalg.cond(a_mat))
    if condition > CONDITION_LIMIT:
        raise NumericsError(
            f"design condition {condition:.2e} exceeds {CONDITION_LIMIT:.0e}; "
            "request fewer coefficients")
    coef, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    # one step of iterative refinement keeps exact polynomials exact
    correction, *_ = np.linalg.lstsq(a_mat, b_vec - a_mat @ coef, rcond=None)
    coef = coef + correction
    fitted = design @ coef
    residual = y - fitted
    max_resid = float(np.max(np.abs(residual)))
    # heuristic per-coefficient sensitivity: normal-matrix geometry times the
    # worst of fit residual, ladder tail bounds and quadrature errors
    cov = np.linalg.inv(a_mat.T @ a_mat)
    noise = max(max_resid, float(np.max(ladder.tail_bounds, initial=0.0)),
                float(np.max(ladder.quad_errors, initial=0.0)), 1e-16)
    sens = np.sqrt(np.diag(cov)) * noise
    coeffs = tuple(float(c) / scale ** q for q, c in enumerate(coef))
    sens = tuple(float(s) / scale ** q for q, s in enumerate(sens))
    return FitReport(coefficients=coeffs, covariance_diag=sens,
                     max_residual=max_resid, method="least_squares",
                     condition=condition)


def richardson_step(eps: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Richardson step of ``z`` along a geometric ladder ``eps`` of ratio
    ``rho``: the extrapolants ``(z[1:] - rho z[:-1]) / (1 - rho)``, which
    cancel the term linear in eps.  Any other ladder raises."""
    if eps.size < 2:
        raise ValidationError("richardson extrapolation needs two bandwidths")
    ratios = eps[1:] / eps[:-1]
    rho = float(ratios[0])
    if np.max(np.abs(ratios - rho)) > 1e-9:
        raise ValidationError("richardson extrapolation needs a geometric ladder")
    return (z[1:] - rho * z[:-1]) / (1.0 - rho)


def richardson_sequence(ladder: EpsLadder, Q: int) -> FitReport:
    """The sequential-limit recurrence, one Richardson step per level.

    Requires a geometric ladder.  Level n forms
    ``z_i = (y_i - sum_{k<n} a_k eps_i^k) / eps_i^n`` and extrapolates the
    tail of ``z`` to zero bandwidth; the spacing between the last two
    extrapolants is reported as the sensitivity.
    """
    if Q < 0:
        raise ValidationError("Q must be >= 0")
    eps = ladder.eps
    y = np.array(ladder.values, dtype=float)
    if eps.size < Q + 2:
        raise ValidationError(
            f"need at least Q+2 = {Q + 2} ladder samples, have {eps.size}")
    coeffs = []
    sens = []
    residual = y.copy()
    for n in range(Q + 1):
        z = residual / eps ** n
        extrap = richardson_step(eps, z)
        a_n = float(extrap[-1])
        coeffs.append(a_n)
        sens.append(abs(float(extrap[-1] - extrap[-2]))
                    if extrap.size >= 2 else abs(a_n))
        residual = residual - a_n * eps ** n
    max_resid = float(np.max(np.abs(residual)))
    return FitReport(coefficients=tuple(coeffs), covariance_diag=tuple(sens),
                     max_residual=max_resid, method="richardson")


@dataclass(frozen=True)
class ClosedFormComparison:
    """Fitted leading coefficients against their curvature closed forms."""
    a0_fitted: float
    a1_fitted: float
    a0_reference: float
    a1_reference: float
    a0_abs_error: float
    a1_error: float
    a1_criterion: str               # relative | absolute
    a0_passed: bool
    a1_passed: bool

    @property
    def passed(self) -> bool:
        return self.a0_passed and self.a1_passed


def compare_closed_form(M: EmbeddedManifold, f: ScalarField, x: ChartPoint,
                        fitted: FitReport) -> ClosedFormComparison:
    """Check fitted a_0, a_1 against f(x) and the curvature closed form.

    a_0 passes within 1e-6 absolute; a_1 passes :func:`first_order_check`:
    relative error at most 0.02, or absolute error at most 1e-3 when the
    reference is below 1e-6 in size.
    """
    if len(fitted.coefficients) < 2:
        raise ValidationError("fit must provide at least a_0 and a_1")
    a0_ref = float(f(x.coords, M.embed(x.chart, x.coords)))
    a1_ref = a1_closed_form(M, f, x)
    a0_hat, a1_hat = fitted.coefficients[0], fitted.coefficients[1]
    a0_err = abs(a0_hat - a0_ref)
    criterion, a1_err, a1_ok = first_order_check(a1_hat, a1_ref)
    return ClosedFormComparison(
        a0_fitted=a0_hat, a1_fitted=a1_hat, a0_reference=a0_ref,
        a1_reference=a1_ref, a0_abs_error=a0_err, a1_error=a1_err,
        a1_criterion=criterion, a0_passed=a0_err <= 1e-6, a1_passed=a1_ok)
