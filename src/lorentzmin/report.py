"""Condition reports and tolerance tiers.

Every check in the package reduces to one number compared against one
tolerance.  ``max`` checks bound a residual from above; ``min`` checks
(non-vanishing requirements) are folded into the same convention by
storing the shortfall ``threshold - min_value``, so that the invariant
``passed == (max_residual <= tol)`` holds for both kinds.

Residuals arrive as arrays in node order (x-major on grids); the worst
node is the first to attain the extreme, or the first non-finite one: a
NaN or inf always fails its check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    max_residual: float
    tol: float
    passed: bool
    grid: str
    worst_point: tuple[float, ...] = ()
    note: str = ""

    @classmethod
    def from_max(cls, condition_id, residuals, tol, grid, points=None, note=""):
        """Report for a residual bounded above: pass iff max <= tol."""
        value, pt, finite = _worst(residuals, np.argmax, points)
        return cls(condition_id, value, float(tol), finite and value <= tol, grid, pt, note)

    @classmethod
    def from_min(cls, condition_id, values, threshold, grid, points=None, note=""):
        """Report for a quantity bounded below: pass iff min > threshold.

        Stored residual is the shortfall ``threshold - min_value``; the
        recorded tolerance is 0, preserving pass == (residual <= tol).
        """
        value, pt, finite = _worst(values, np.argmin, points)
        shortfall = float(threshold) - value
        note = note or f"lower bound: residual = {threshold:g} - min value"
        return cls(condition_id, shortfall, 0.0, finite and shortfall <= 0.0, grid, pt, note)

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "passed": self.passed,
            "grid": self.grid,
            "worst_point": list(self.worst_point),
            "note": self.note,
        }


def _worst(values, pick, points):
    """(worst value, its point, all finite): ``pick`` (np.argmax or
    np.argmin, so ties go to the first node) unless a value is not finite,
    in which case the first non-finite one is the worst."""
    values = np.asarray(values, dtype=float).ravel()
    bad = ~np.isfinite(values)
    i = int(np.argmax(bad)) if bad.any() else int(pick(values))
    pt = tuple(float(v) for v in points[i]) if points is not None else ()
    return float(values[i]), pt, not bad.any()


#: Default tolerances per check tier.  Algebraic identities on analytic
#: quantities get 1e-9; first-derivative residuals 1e-6, and K from the
#: third-order jet (exact, but a sum of products of up to third
#: derivatives) 1e-7; anything built from second finite differences (K
#: from the E-field stencil on the FD subgrid) 1e-3.  Each
#: finite-difference order costs roughly three digits.
DEFAULT_TOLS: dict[str, float] = {
    "premise": 1e-9,        # curve identities (light cone, speed, ...)
    "condition": 1e-7,      # joint two-curve conditions on the (x,y) grid
    "quadric": 1e-9,        # |<L,L> -/+ 1|
    "metric": 1e-7,         # metric matches the model conformal factor
    "metric-null": 1e-7,    # |g_xx|, |g_yy|
    "tangency": 1e-7,       # |<L,L_x>|, |<L,L_y>| on quadrics
    "frame": 1e-7,          # |<e1,e2> + 1|
    "pde": 1e-6,            # residuals of the defining PDE system
    "minimality": 1e-6,     # max-norm of the mean curvature vector
    "minimality-flat": 1e-7,  # translation surfaces: L_xy vanishes exactly
    "analytic-k": 1e-7,     # |K - K_model| and the Gauss equation, K from the jet
    "curvature": 1e-3,      # |K - K_model| via FD of the conformal factor
    "xi": 1e-5,             # relative match of the normal field h(e1,e1)
    "gauss": 2e-3,          # Gauss-equation scalar cross-check
    "fd": 1e-6,             # analytic-vs-FD jet discrepancy (relative)
}

ENV_TOL = "LMS_DEFAULT_TOL"

#: Tiers rescaled by the LMS_DEFAULT_TOL environment override.
_ALGEBRAIC_TIER = ("premise", "quadric")


def default_tolerances() -> dict[str, float]:
    """Tier defaults, with LMS_DEFAULT_TOL overriding the algebraic tier."""
    tols = dict(DEFAULT_TOLS)
    raw = os.environ.get(ENV_TOL)
    if raw is not None:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_TOL} must be a float, got {raw!r}") from exc
        if not 0 < value < float("inf"):  # also rejects nan
            raise ValueError(f"{ENV_TOL} must be a positive finite number, got {raw!r}")
        for key in _ALGEBRAIC_TIER:
            tols[key] = value
    return tols
