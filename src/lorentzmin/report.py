"""Condition reports and tolerance tiers.

Every check in the package reduces to one number compared against one
tolerance.  ``max`` checks bound a residual from above; ``min`` checks
(non-vanishing requirements) are folded into the same convention by
storing the shortfall ``threshold - min_value``, so that the invariant
``passed == (max_residual <= tol)`` holds for both kinds.

Residuals arrive as arrays in node order (x-major on grids); the worst
node is the first to attain the extreme, or the first non-finite one: a
NaN or inf always fails its check, and serializes as the string "nan",
"inf" or "-inf" (``json_residual``).
"""

from __future__ import annotations

import math
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
        return cls._from_rows(condition_id, np.reshape(residuals, (1, -1)), tol, grid, points,
                              note)[0]

    @classmethod
    def from_min(cls, condition_id, values, threshold, grid, points=None, note=""):
        """Report for a quantity bounded below: pass iff min >= threshold.

        Stored residual is the shortfall ``threshold - min_value``; the
        recorded tolerance is 0, preserving pass == (residual <= tol).
        """
        return cls._from_rows(condition_id, np.reshape(values, (1, -1)), threshold, grid, points,
                              note or f"lower bound: residual = {threshold:g} - min value",
                              _min_verdicts)[0]

    @classmethod
    def _from_rows(cls, condition_id, rows, tol, grid, points=None, note="", verdicts=None):
        """``from_max`` of each row of a (draws, nodes) array, reduced at once,
        or ``from_min``'s with ``verdicts=_min_verdicts``."""
        values, index, passed, tol = (verdicts or _max_verdicts)(rows, tol)
        return [cls(condition_id, value, tol, ok, grid, _point(points, i), note)
                for value, i, ok in zip(values.tolist(), index.tolist(), passed.tolist())]

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "max_residual": json_residual(self.max_residual),
            "tol": self.tol,
            "passed": self.passed,
            "grid": self.grid,
            "worst_point": list(self.worst_point),
            "note": self.note,
        }


def json_residual(value: float):
    """A residual for a JSON report: the float itself when finite, else the
    string "nan", "inf" or "-inf", which strict JSON can carry."""
    return value if math.isfinite(value) else str(value)


def _worst(rows, pick):
    """(worst value, its node, all finite) of each row of a (draws, nodes)
    array, as arrays: ``pick`` (np.argmax or np.argmin, so ties go to the
    first node) unless a value is not finite, in which case the first
    non-finite one is worst."""
    rows = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(rows)
    finite = ~bad.any(axis=1)
    index = np.where(finite, pick(rows, axis=1), np.argmax(bad, axis=1))
    return rows[np.arange(len(rows)), index], index, finite


def _max_verdicts(rows, tol):
    """(residual, worst node, verdict, tol) of ``from_max`` for each row of a
    (draws, nodes) array, the first three as arrays: what a report holds but
    its point."""
    values, index, finite = _worst(rows, np.argmax)
    return values, index, finite & (values <= tol), float(tol)


def _min_verdicts(rows, threshold):
    """``_max_verdicts`` of ``from_min``: the residual is the shortfall
    threshold - min, and the tol 0."""
    values, index, finite = _worst(rows, np.argmin)
    values = float(threshold) - values
    return values, index, finite & (values <= 0.0), 0.0


def _point(points, i) -> tuple[float, ...]:
    return tuple(float(v) for v in points[i]) if points is not None else ()


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
