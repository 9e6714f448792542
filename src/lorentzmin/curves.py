"""Analytic curves with exact derivatives up to order three.

A curve is a map t -> E^m_s whose components are term tables: sums of
terms a*cosh(w t), a*sinh(w t), a*cos(w t), a*sin(w t) and a*t^j, so
derivatives are exact rather than numerical, and a curve is plain data
that can be compared, printed or mapped to a computer-algebra system.  On
top of the generic abstraction sit four built-in parameter families of
light-cone curves used by the surface constructors, each with numeric
validation of every radicand and denominator in its coefficients.

Curves are evaluated on numpy arrays of parameters: ``Curve.derivatives(t,
orders)`` returns several derivative orders from one evaluation of each
term and ``Curve.at(t, k)`` is its one-order view, both with shape
``t.shape + (dim,)`` per order.  Curves are immutable, so they can be
shared freely between threads and grid evaluations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (ConstraintViolationError, InvalidInputError, SignatureMismatchError,
                     _violated)
from .indefinite import Signature, indefinite_dot
from .report import DEFAULT_TOLS, ConditionReport

__all__ = [
    "Curve",
    "ParamFamily",
    "FamilyValidation",
    "derivative_inner",
    "null_check",
    "make_example",
    "validate_family",
    "builtin_curve",
    "BUILTIN_CURVES",
    "FAMILIES",
    "seeded_null_pair",
    "PAIR_FLAVORS",
    "const",
    "poly",
    "hcosh",
    "hsinh",
    "tsin",
    "tcos",
]

MAX_ORDER = 3

#: Evaluation is tolerated this far (as a fraction of the domain length)
#: beyond the declared domain, so finite-difference stencils anchored at a
#: boundary point stay legal.
DOMAIN_PAD_FRACTION = 0.1

#: Samples of a curve's domain on which its premises are checked.
DEFAULT_SAMPLES = 41


def _finite_number(value) -> bool:
    """True for an int or float, not a bool, that is a finite double."""
    if type(value) is float:  # a curve's terms: skip the ABC check below
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the double range
        return False


# ---------------------------------------------------------------------------
# term tables: a component is a tuple of terms (basis, a, w), meaning
# a*basis(w t), or ("pow", a, j), meaning a*t^j; components add with +

#: The functions the even and odd derivatives of a*basis(w t) are
#: multiples of, and the sign of each order: the k-th derivative is
#: a * w^k * sign[k] * funcs[k % 2](w t).
PERIODIC_BASES = {
    "cosh": ((np.cosh, np.sinh), (1, 1, 1, 1)),
    "sinh": ((np.sinh, np.cosh), (1, 1, 1, 1)),
    "cos": ((np.cos, np.sin), (1, -1, -1, 1)),
    "sin": ((np.sin, np.cos), (1, 1, -1, -1)),
}


def const(c: float):
    return (("pow", c, 0),)


def poly(*coeffs: float):
    """Polynomial component c0 + c1 t + c2 t^2 + ..."""
    return tuple(("pow", c, j) for j, c in enumerate(coeffs))


def hcosh(a: float, w: float = 1.0):
    return (("cosh", a, w),)


def hsinh(a: float, w: float = 1.0):
    return (("sinh", a, w),)


def tsin(a: float, w: float = 1.0):
    return (("sin", a, w),)


def tcos(a: float, w: float = 1.0):
    return (("cos", a, w),)


def _checked_term(term) -> tuple:
    """The term with a float coefficient and a float frequency (int power);
    either may be a float array over a fold's draws (a 0-d one is a float)."""
    def finite(v):
        return (v.dtype == float and bool(np.isfinite(v).all()) if isinstance(v, np.ndarray)
                else _finite_number(v))

    basis, a, w = term if isinstance(term, (tuple, list)) and len(term) == 3 else (None,) * 3
    if basis == "pow":
        ok = isinstance(w, numbers.Integral) and _finite_number(w) and w >= 0
    else:
        ok = isinstance(basis, str) and basis in PERIODIC_BASES and finite(w)
    if not (ok and finite(a)):
        raise InvalidInputError(f"malformed term {term!r}: want (basis, a, w) with basis in "
                                f"{sorted(PERIODIC_BASES)}, or ('pow', a, j) with j >= 0")
    a, w = (v if isinstance(v, np.ndarray) and v.ndim else float(v) for v in (a, w))
    return basis, a, int(w) if basis == "pow" else w


def _coefficients_by_order(basis, a, w) -> tuple:
    """The factor of each derivative order: a * w^k * sign[k] for a
    periodic term, with w^k the product 1, w, w*w, w*w*w, so a number and
    an array of them give the same bits; a * j (j-1) ... (j-k+1) for a
    power t^j.  A factor beyond the double range is inf (or NaN)."""
    if basis != "pow":
        return tuple(a * wk * sign for wk, sign in zip((1, w, w * w, w * w * w),
                                                       PERIODIC_BASES[basis][1]))
    coefs = [a]
    for i in range(min(w, MAX_ORDER)):
        coefs.append((w - i) * coefs[-1])
    return tuple(coefs)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """Vector-valued map of one real parameter with exact derivatives.

    ``components`` holds one term table per coordinate of the signature
    (see ``const``, ``poly``, ``hcosh``, ``hsinh``, ``tsin`` and ``tcos``,
    which add with ``+``).  Terms are checked and stored with float
    coefficients; the factor of each derivative order is computed once
    here, so evaluation only multiplies it by the term's basis function.

    A coefficient or frequency may also be an array of shape (draws, 1, 1)
    over a fold's draws (``_fold_curves``): the curve is then the fold's
    curves, each draw bit for bit its own, evaluated on t's shape broadcast
    against that; ``curve[draws]`` picks some, and it cannot be hashed.
    """

    signature: Signature
    components: tuple
    domain: tuple[float, float] = (-2.0, 2.0)
    label: str = ""
    #: (slot, first, basis, w or j, factors by order) per term, and the
    #: shape of a factor: () for one curve, (draws, 1, 1) for a fold's
    _plan: tuple = field(init=False, repr=False, compare=False)
    _lead: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise InvalidInputError(f"empty curve domain {self.domain}")
        if not isinstance(self.components, (tuple, list)) or not all(
                isinstance(c, (tuple, list)) for c in self.components):
            raise InvalidInputError("curve components must be sequences of terms")
        comps = tuple(tuple(map(_checked_term, c)) for c in self.components)
        if len(comps) != self.signature.dim:
            raise InvalidInputError(f"{len(comps)} components for signature {self.signature}")
        lead = {v.shape for c in comps for _, *av in c for v in av if isinstance(v, np.ndarray)}
        if len(lead) > 1:
            raise InvalidInputError(f"coefficient arrays of shapes {sorted(lead)} in one curve")
        with np.errstate(over="ignore", invalid="ignore"):
            plan = tuple((slot, n == 0, b, w, _coefficients_by_order(b, a, w))
                         for slot, comp in enumerate(comps) for n, (b, a, w) in enumerate(comp))
        if not all(np.isfinite(f).all() for *_, factors in plan for f in factors):
            raise InvalidInputError(f"{self.label or 'curve'}: term out of range (a factor of "
                                    "its derivatives is not finite)")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_lead", lead.pop() if lead else ())

    def __getitem__(self, draws):
        """The curve of the draws that ``draws`` (a slice or a list of
        indices) picks from a fold's; its plan is sliced, not rebuilt."""
        def pick(v):
            return v[draws] if isinstance(v, np.ndarray) else v
        part = object.__new__(Curve)
        part.__dict__.update(
            self.__dict__, _lead=np.empty(self._lead)[draws].shape,
            components=tuple(tuple((b, pick(a), pick(w)) for b, a, w in c)
                             for c in self.components),
            _plan=tuple((slot, first, b, pick(w), tuple(map(pick, coefs)))
                        for slot, first, b, w, coefs in self._plan))
        return part

    def derivatives(self, t, orders) -> np.ndarray:
        """The derivatives of the given orders at a scalar or array t,
        stacked: shape (len(orders),) + t.shape + (dim,)."""
        orders = tuple(orders)
        if not all(k in range(MAX_ORDER + 1) for k in orders):
            raise InvalidInputError(f"derivative order must be in [0, {MAX_ORDER}]")
        t = np.asarray(t, dtype=float)
        lo, hi = self.domain
        pad = DOMAIN_PAD_FRACTION * (hi - lo)
        inside = (lo - pad <= t) & (t <= hi + pad)
        if not inside.all():
            bad = float(t.flat[np.argmin(inside)])
            raise InvalidInputError(f"t={bad} outside curve domain [{lo}, {hi}] (pad {pad:g})")
        shape = np.broadcast_shapes(t.shape, self._lead) if self._lead else t.shape
        out = np.zeros((len(orders),) + shape + (self.signature.dim,))
        # a component's first term assigns and the others add, so it is the
        # sum of its terms in order; each basis function is evaluated once.
        # An overflow gives inf or NaN, which fails the check that reads it
        with np.errstate(over="ignore", invalid="ignore"):
            for slot, first, basis, w, coefs in self._plan:
                if basis != "pow":
                    funcs, wt, f = PERIODIC_BASES[basis][0], w * t, [None, None]
                for i, k in enumerate(orders):
                    if basis != "pow":
                        if f[k % 2] is None:
                            f[k % 2] = funcs[k % 2](wt)
                        value = coefs[k] * f[k % 2]
                    elif k <= w:  # a power t^j dies above order j
                        value = coefs[k] * t ** (w - k) if k < w else coefs[k]
                    else:
                        continue
                    if first:
                        out[i, ..., slot] = value
                    else:
                        out[i, ..., slot] += value
        return out

    def at(self, t, order: int = 0) -> np.ndarray:
        """k-th derivative at a scalar or array t; shape t.shape + (dim,)."""
        return self.derivatives(t, (order,))[0]

    def sample_grid(self, samples: int) -> np.ndarray:
        if samples < 2:
            raise InvalidInputError("need at least 2 samples")
        return np.linspace(self.domain[0], self.domain[1], samples)


def derivative_inner(c1: Curve, k1: int, c2: Curve, k2: int, t1, t2):
    """<c1^(k1)(t1), c2^(k2)(t2)>, the workhorse of all premise checks;
    array arguments broadcast against each other."""
    if c1.signature != c2.signature:
        raise SignatureMismatchError(
            f"signatures differ: {c1.signature} vs {c2.signature}"
        )
    return indefinite_dot(c1.at(t1, k1), c2.at(t2, k2), c1.signature.index)


def null_check(curve: Curve, samples: int = DEFAULT_SAMPLES,
               tol: float = DEFAULT_TOLS["premise"]) -> ConditionReport:
    """Max of |<z',z'>| over an even grid of the domain; pass iff <= tol."""
    return ConditionReport._from_rows(*_null_row(curve, samples, tol))


def _null_row(curve: Curve, samples: int, tol: float, condition_id: str = "null") -> tuple:
    """``null_check`` as (draws, samples) rows, ``ConditionReport._from_rows``'s
    arguments, formed under ``np.errstate`` (an overflow's inf or NaN fails)."""
    ts = curve.sample_grid(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.abs(derivative_inner(curve, 1, curve, 1, ts, ts))
    grid = f"{samples} samples on [{curve.domain[0]:g}, {curve.domain[1]:g}]"
    return condition_id, np.reshape(residuals, (-1, samples)), tol, grid, ts[:, None], "", None


# ---------------------------------------------------------------------------
# built-in parameter families of light-cone curves
#
# The factories validate every radicand and denominator numerically; the
# inequality chains traditionally quoted with these families are reported
# as advisory metadata only (see FamilyValidation.chain_ok), because for
# one family the quoted chain is incompatible with a radicand.  Each
# formula is written once, in ``_exNN_coeffs``, which ``_tests`` runs on
# parameters over draws and whose radicands and denominators it hands to
# ``_build_exNN``, which takes their square roots in the order the
# coefficient function lists them and returns the term tables of the
# family's curve or pair; ``_fold_curves`` takes the valid draws' curves
# from those tables.  Both take symbols too (with a symbolic ``sqrt``).

#: Example families keep cosh arguments <= 6 on this domain.  A premise
#: identity holds to about 1e-16 of its largest <z^(k), z^(k)> term: inside
#: the 1e-9 algebraic tolerance on the shipped specs and default sampler
#: boxes, not on all the samplers accept (Ex7_1 with pqr_box [0.2, 5.0],
#: seed 0: 596 of 2,000 valid draws fail acc-null-z).
FACTORY_DOMAIN = (-1.2, 1.2)


@dataclass(frozen=True)
class ParamFamily:
    """A named curve family plus its real parameters."""

    family_id: str
    params: Mapping[str, float]

    def __post_init__(self):
        if not isinstance(self.family_id, str) or self.family_id not in FAMILIES:
            raise InvalidInputError(
                f"unknown family {self.family_id!r}; known: {sorted(FAMILIES)}"
            )
        wanted = FAMILIES[self.family_id]["params"]
        if not isinstance(self.params, Mapping):
            raise InvalidInputError(f"{self.family_id} params must map names to numbers")
        got = tuple(sorted(self.params))
        if got != tuple(sorted(wanted)):
            raise InvalidInputError(
                f"{self.family_id} expects params {wanted}, got {got}"
            )
        for name, value in self.params.items():
            if not _finite_number(value):
                raise InvalidInputError(
                    f"{self.family_id}: parameter {name} must be a finite number, got {value!r}")
        object.__setattr__(self, "params", dict(self.params))

    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.family_id}({inner})"


@dataclass(frozen=True)
class FamilyValidation:
    """Numeric validation outcome for one parameter set."""

    family_id: str
    ok: bool
    radicands: dict[str, float]      # must be >= 0
    denominators: dict[str, float]   # must be > 0 (they sit under square roots)
    failures: list[str]
    chain_ok: bool                   # advisory: the quoted inequality chain
    chain: str
    #: ConstraintViolationError's arguments if make_example raises it, else ()
    _error: tuple = field(default=(), repr=False, compare=False)


def _ex71_coeffs(a, p, q, r):
    d = r**2 - q**2
    rads = {
        "4r^2+a^2p^2(p^2-r^2)": 4 * r**2 + a**2 * p**2 * (p**2 - r**2),
        "4q^2+a^2p^2(p^2-q^2)": 4 * q**2 + a**2 * p**2 * (p**2 - q**2),
        "4(q^2+r^2)+a^2(p^2-r^2)(p^2-q^2)": 4 * (q**2 + r**2)
        + a**2 * (p**2 - r**2) * (p**2 - q**2),
    }
    dens = {"r^2-q^2": d}
    return rads, dens


def _ex72_coeffs(p, q, r):
    rads = {
        "256q^2+369r^2": 256 * q**2 + 369 * r**2,
        "16q^2+609r^2": 16 * q**2 + 609 * r**2,
        "320+225p^2+756r^2-256q^2": 320 + 225 * p**2 + 756 * r**2 - 256 * q**2,
        "315p^2+1024q^2-3024r^2-1280": 315 * p**2 + 1024 * q**2 - 3024 * r**2 - 1280,
        "320+756r^2-35p^2-256q^2": 320 + 756 * r**2 - 35 * p**2 - 256 * q**2,
    }
    return rads, {}


def _ex81_coeffs(a, b, p, q):
    rads = {
        "q^2(2+a^2)-(4+a^2)": q**2 * (2 + a**2) - (4 + a**2),
        "4+a^2-p^2(2+a^2)": 4 + a**2 - p**2 * (2 + a**2),
        "b^2p^2q^2-a^2(q^2-1)(1-p^2)-2(p^2+q^2-2)": b**2 * p**2 * q**2
        - a**2 * (q**2 - 1) * (1 - p**2)
        - 2 * (p**2 + q**2 - 2),
    }
    dens = {"q^2-p^2": q**2 - p**2}
    return rads, dens


def _ex82_half(b, p, q, u, v):
    """Radicands and denominators of one half of the pair; (u, v) are the
    display names of the (b, p/q) parameters for that half."""
    rads = {
        f"{v[0]}^2+{v[1]}^2-{u}^2{v[0]}^2{v[1]}^2-2": p**2 + q**2 - b**2 * p**2 * q**2 - 2,
        f"1-{v[0]}^2(1-{u}^2)": 1 - p**2 * (1 - b**2),
        f"{v[1]}^2(1-{u}^2)-1": q**2 * (1 - b**2) - 1,
    }
    dens = {
        f"({v[0]}^2-1)({v[1]}^2-1)": (p**2 - 1) * (q**2 - 1),
        f"({v[1]}^2-{v[0]}^2)({v[1]}^2-1)": (q**2 - p**2) * (q**2 - 1),
        f"({v[1]}^2-{v[0]}^2)({v[0]}^2-1)": (q**2 - p**2) * (p**2 - 1),
    }
    return rads, dens


def _ex82_coeffs(a, b, p, q, r, s):
    rads_z, dens_z = _ex82_half(b, p, q, "b", ("p", "q"))
    rads_w, dens_w = _ex82_half(a, r, s, "a", ("r", "s"))
    return {**rads_z, **rads_w}, {**dens_z, **dens_w}


def _chain_ex71(a, p, q, r):
    return p > r > q > 0


#: Ex7_2's quoted chain reads HI p^2 > X(q, r) > LO p^2 with (HI, LO) here.
EX72_CHAIN_BOUNDS = (315 / 4, 35.0)


def _ex72_chain_mid(q, r):
    """X(q, r) = 80+189r^2-64q^2, the middle of Ex7_2's quoted chain."""
    return 80 + 189 * r**2 - 64 * q**2


def _chain_ex72(p, q, r):
    hi, lo = EX72_CHAIN_BOUNDS
    return hi * p**2 > _ex72_chain_mid(q, r) > lo * p**2


def _chain_ex81(a, b, p, q):
    mid = (4 + a**2) / (2 + a**2)
    floor = (a**2 * (q**2 - 1) * (1 - p**2) + 2 * (p**2 + q**2 - 2)) / (p**2 * q**2)
    return p**2 < mid < q**2 and b**2 > floor


def _chain_ex82(a, b, p, q, r, s):
    return (
        a < 1
        and b < 1
        and min(p, q, r, s) > 1
        and p**2 < 1 / (1 - b**2) < q**2
        and r**2 < 1 / (1 - a**2) < s**2
        and b**2 < (p**2 + q**2 - 2) / (p**2 * q**2)
        and a**2 < (r**2 + s**2 - 2) / (r**2 * s**2)
    )


def _place(dim, slot_values):
    """(slot, component) pairs -> full component list padded with zeros."""
    comps = [const(0.0)] * dim
    for slot, c in slot_values:
        comps[slot] = c
    return comps


def _build_ex71(a, p, q, r, rads, dens, alt_pairing, sqrt):
    (d,) = map(sqrt, dens.values())
    c2, c3, c4 = (sqrt(v) / w for v, w in zip(rads.values(), (q * d, r * d, q * r)))
    return ([
        hcosh(a, p), hcosh(c2, q), hsinh(c3, r),
        hsinh(a, p), hsinh(c2, q), hcosh(c3, r), const(c4),
    ],)


def _build_ex72(p, q, r, rads, dens, alt_pairing, sqrt):
    s15 = sqrt(15)
    A, B, C, D, E = (sqrt(v) / w for v, w in zip(
        rads.values(), (4 * s15, 4 * s15, 8 * s15, 4 * s15, 8)))
    z = _place(14, [
        (0, hcosh(A, 2)), (1, hsinh(B, 4)), (2, hcosh(r, 5)),
        (6, hsinh(A, 2)), (7, hcosh(B, 4)), (8, hsinh(r, 5)), (12, const(q)),
    ])
    w = _place(14, [
        (3, hcosh(p, 1.5)), (4, hsinh(C, 2)), (5, hsinh(D, 1)),
        (9, hsinh(p, 1.5)), (10, hcosh(C, 2)), (11, hcosh(D, 1)), (13, const(E)),
    ])
    return z, w


def _build_ex81(a, b, p, q, rads, dens, alt_pairing, sqrt):
    (d,) = map(sqrt, dens.values())
    cp, cq, c0 = (sqrt(v) / w for v, w in zip(rads.values(), (p * d, q * d, p * q)))
    # default pairs the fifth component with the a*cosh(x) block; the
    # alternate variant uses frequency p there and fails the light-cone
    # checks whenever p != 1 (kept as a negative control).
    fifth = hsinh(a, p) if alt_pairing else hsinh(a, 1)
    return ([
        const(b), hcosh(a, 1), hsinh(cp, p), hsinh(cq, q),
        fifth, hcosh(cp, p), hcosh(cq, q), const(c0),
    ],)


def _build_ex82(a, b, p, q, r, s, rads, dens, alt_pairing, sqrt):
    # each half lists its three radicands and denominators in matching order
    al, be, ga, de, ep, ze = (sqrt(v) / sqrt(w) for v, w in zip(rads.values(), dens.values()))
    z = _place(14, [
        (0, const(b)), (1, hcosh(al, 1)), (2, hsinh(be, q)), (3, hsinh(ga, p)),
        (8, hsinh(al, 1)), (9, hcosh(be, q)), (10, hcosh(ga, p)),
    ])
    # default mirrors the first half under (b,p,q) -> (a,r,s); the alternate
    # variant reuses the first half's frequencies in the last two slots and
    # fails the light-cone checks whenever (p,q) != (r,s).
    tail = (q, p) if alt_pairing else (s, r)
    w = _place(14, [
        (4, const(a)), (5, hcosh(de, 1)), (6, hsinh(ep, s)), (7, hsinh(ze, r)),
        (11, hsinh(de, 1)), (12, hcosh(ep, tail[0])), (13, hcosh(ze, tail[1])),
    ])
    return z, w


#: Built-in parameter families.  ``surface`` is the surface family a sweep
#: verifies each draw with, and ``sampler`` its default sampler config.
FAMILIES: dict[str, dict] = {
    "Ex7_1": {
        "params": ("a", "p", "q", "r"),
        "signature": Signature(7, 3),
        "pair": False,
        "ambient": "sphere",
        "chain": "p > r > q > 0",
        "_coeffs": _ex71_coeffs,
        "_chain": _chain_ex71,
        "_build": _build_ex71,
        "surface": "sphere_b",
        "sampler": {"mode": "sorted_box", "a_box": [0.5, 2.0], "pqr_box": [0.2, 3.0],
                    "min_gap": 0.1, "grid": [9, 9]},
    },
    "Ex7_2": {
        "params": ("p", "q", "r"),
        "signature": Signature(14, 6),
        "pair": True,
        "ambient": "sphere",
        "chain": "(315/4)p^2 > 80+189r^2-64q^2 > 35p^2",
        "_coeffs": _ex72_coeffs,
        "_chain": _chain_ex72,
        "_build": _build_ex72,
        "surface": "sphere_c",
        "sampler": {"mode": "chain", "qr_box": [0.05, 3.0], "grid": [9, 9]},
    },
    "Ex8_1": {
        "params": ("a", "b", "p", "q"),
        "signature": Signature(8, 4),
        "pair": False,
        "ambient": "hyperbolic",
        "chain": "p^2 < (4+a^2)/(2+a^2) < q^2 and "
        "b^2 > (a^2(q^2-1)(1-p^2)+2(p^2+q^2-2))/(p^2q^2)",
        "_coeffs": _ex81_coeffs,
        "_chain": _chain_ex81,
        "_build": _build_ex81,
        "surface": "hyp_ii",
        "sampler": {"mode": "box_around", "center": [1.0, 1.1, 1.0, 1.5], "rel": 0.1,
                    "grid": [9, 9]},
    },
    "Ex8_2": {
        "params": ("a", "b", "p", "q", "r", "s"),
        "signature": Signature(14, 8),
        "pair": True,
        "ambient": "hyperbolic",
        "chain": "a,b<1; p,q,r,s>1; p^2<1/(1-b^2)<q^2; r^2<1/(1-a^2)<s^2; "
        "b^2<(p^2+q^2-2)/(p^2q^2); a^2<(r^2+s^2-2)/(r^2s^2)",
        "_coeffs": _ex82_coeffs,
        "_chain": _chain_ex82,
        "_build": _build_ex82,
        "surface": "hyp_iii",
        "sampler": {"mode": "box_around", "center": [1.0 / math.sqrt(2.0)] * 2
                    + [1.1, 1.5, 1.1, 1.5], "rel": 0.1, "grid": [9, 9]},
    },
}


def _coefficient_ok(value, kind: str):
    """A radicand >= 0 or a denominator > 0, and finite (NaN and inf fail;
    an int is exact), of a number or elementwise of an array."""
    return ((value > 0) if kind == "denominator" else (value >= 0)) & (value < math.inf)


def validate_family(fam: ParamFamily) -> FamilyValidation:
    """Numeric validation, ``_tests`` of the parameter set as one draw (a
    sweep's ``_valid_rows`` gives each draw this verdict): every parameter
    > 0, every radicand >= 0 and denominator > 0, each finite
    (``_coefficient_ok``), then every coefficient of the curves, and each
    factor a*w^k of its term's derivatives, finite.  An int parameter up to
    2**150 stays a Python int, so a formula of ints is exact, as in Python,
    and (of degree at most 6) inside the double range the curves are built
    in; a larger int is a float.

    The quoted inequality chain is evaluated too, but only for reporting;
    it neither implies nor is implied by validity (one family's chain in
    fact forces a radicand negative).
    """
    return _validation(fam)[0]


def _validation(fam: ParamFamily, alt_pairing: bool = False) -> tuple[FamilyValidation, tuple]:
    """``validate_family(fam)`` and the term tables its ``_tests`` built on
    the parameters as one draw (an int up to 2**150 as is, else a 0-d array)."""
    info = FAMILIES[fam.family_id]
    args = [fam.params[k] for k in info["params"]]
    rads, dens, tests, tables = _tests(fam.family_id, [
        v if isinstance(v, int) and abs(v) <= 2**150 else np.asarray(float(v)) for v in args],
        alt_pairing)
    failed = [(kind, name, np.asarray(value).item(0)) for kind, name, value, passed in tests
              if not passed]
    failures = [f"{fam.family_id}: parameter {name} must be positive (= {value:g})"
                for kind, name, value in failed if kind == "parameter"]
    if any(kind == "square" for kind, *_ in failed):
        rads, dens, failed = {}, {}, []
        failures.append(f"{fam.label()}: parameters out of range "
                        "((34, 'Numerical result out of range'))")
    violations = [(name, value, kind) for kind, name, value in failed
                  if kind in ("denominator", "radicand")]
    texts = failures + [f"{kind} {name} {_violated(value, kind)} (= {value:g})"
                        for name, value, kind in violations]
    texts += [f"{fam.label()}: {name} not finite (= {value:g})" if not math.isfinite(value) else
              f"{fam.label()}: {name} (= {value:g}) times a power of its frequency is not finite"
              for kind, name, value in failed if kind == "coefficient"]
    return FamilyValidation(
        family_id=fam.family_id,
        ok=not texts,
        radicands={k: np.asarray(v).item(0) for k, v in rads.items()},
        denominators={k: np.asarray(v).item(0) for k, v in dens.items()},
        failures=texts,
        chain_ok=_chain_holds(info["_chain"], args),
        chain=info["chain"],
        _error=violations[0] if violations and not failures else (),
    ), tables


def _tests(family_id: str, columns, alt_pairing: bool = False) -> tuple[dict, dict, list, tuple]:
    """``validate_family``'s tests of each draw, from one run of the
    family's formulas on its parameters (``columns``: per parameter, an
    array over the draws, or for one draw a 0-d array or an int, so that a
    square is ``np.square`` of a float, exact of an int): (radicands,
    denominators, tests, tables), the first two dicts over the draws, tests
    (kind, name, values, passed) in order: each parameter > 0; its square
    finite; each denominator and radicand ``_coefficient_ok``; then, if a
    draw passes those, each coefficient of the curves, built in floats,
    with every factor of its term's derivatives (``_coefficients_by_order``)
    finite (a quotient by zero is not): tables holds their term tables
    (``_build_exNN``, with ``alt_pairing``), or ()."""
    info, tables = FAMILIES[family_id], ()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rads, dens = info["_coeffs"](*columns)
        tests = [("parameter", name, c, c > 0) for name, c in zip(info["params"], columns)]
        tests += [("square", name, v, v < math.inf)
                  for name, v in zip(info["params"], (c * c for c in columns))]
        tests += [(kind, name, value, _coefficient_ok(value, kind))
                  for kind, part in (("denominator", dens), ("radicand", rads))
                  for name, value in part.items()]
        if np.logical_and.reduce([passed for *_, passed in tests]).any():
            floats = [{k: np.asarray(v, float) for k, v in part.items()} for part in (rads, dens)]
            tables = info["_build"](*(np.asarray(c, float) for c in columns), *floats,
                                    alt_pairing, sqrt=np.sqrt)
            tests += [("coefficient", f"coefficient of {curve}'s component {slot}",
                       np.atleast_1d(a), np.logical_and.reduce(
                           [np.isfinite(f) for f in _coefficients_by_order(b, a, w)]))
                      for curve, comps in zip("zw", tables)
                      for slot, comp in enumerate(comps) for b, a, w in comp]
    return rads, dens, tests, tables


def _valid_rows(family_id: str, values: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The rows of a (draws, params) array that pass ``validate_family``'s
    tests (``_tests``, on columns of shape (draws, 1, 1)), and the family's
    curves on them, from those rows of the tests' tables (``_fold_curves``)."""
    *_, tests, tables = _tests(family_id, values.T[..., None, None])
    rows = np.flatnonzero(np.all(np.broadcast_arrays(*(passed for *_, passed in tests)), axis=0))
    return rows, _fold_curves(family_id, [
        [[tuple(v[rows] if isinstance(v, np.ndarray) else v for v in term) for term in comp]
         for comp in comps] for comps in tables]) if rows.size else ()


def _chain_holds(chain, args) -> bool:
    """The advisory chain; False where one of its quotients is undefined."""
    try:
        return bool(chain(*args))
    except (ZeroDivisionError, OverflowError):
        return False


def make_example(fam: ParamFamily, *, alt_pairing: bool = False):
    """Build the curve (or pair of curves) of a built-in family.

    Raises InvalidInputError for non-positive parameters and
    ConstraintViolationError naming the first offending radicand or
    denominator.
    """
    curves = _family_curves(fam, alt_pairing)[1]
    return curves if FAMILIES[fam.family_id]["pair"] else curves[0]


def _family_curves(fam: ParamFamily, alt_pairing: bool) -> tuple[FamilyValidation, tuple]:
    """``validate_family(fam)`` and the family's curves, as plain curves
    from the term tables its tests built with ``alt_pairing`` (``_validation``);
    a failed validation raises, as ``make_example`` says."""
    validation, tables = _validation(fam, alt_pairing)
    if validation._error:
        raise ConstraintViolationError(*validation._error)
    if not validation.ok:
        raise InvalidInputError(validation.failures[0])
    return validation, _fold_curves(fam.family_id, tables, fam.label())


def _fold_curves(family_id: str, tables, label: str = "") -> tuple:
    """The family's curves (one, or z and w) from term tables of its
    ``_build_exNN`` (``_tests``): plain curves from one draw's numbers, each
    one ``Curve`` on arrays of shape (draws, 1, 1) from a fold's, each draw
    bit for bit its plain curve, labelled ``label`` (or the family id)."""
    info = FAMILIES[family_id]
    return tuple(Curve(info["signature"], comps, FACTORY_DOMAIN, (label or family_id) + suffix)
                 for comps, suffix in zip(tables, (".z", ".w") if info["pair"] else ("",)))


# ---------------------------------------------------------------------------
# named test curves addressable from the harness


#: Named test curves, each on the domain [-2, 2].
BUILTIN_CURVES: dict[str, Curve] = {
    name: Curve(signature, comps, label=name) for name, signature, comps in (
        # null lines in the Lorentz plane (totally geodesic translation plane)
        ("line2", Signature(2, 1), [poly(0, 1), poly(0, 1)]),
        ("line2_rev", Signature(2, 1), [poly(0, 1), poly(0, -1)]),
        # circular null curve in E^3_1
        ("trig3", Signature(3, 1), [poly(0, 1), tsin(1), tcos(1)]),
        # hyperbolic null curves in E^4_2
        ("hyp4", Signature(4, 2), [hcosh(1), poly(0, 1), hsinh(1), const(0)]),
        ("hyp4_mirror", Signature(4, 2), [hcosh(1), poly(0, -1), const(0), hsinh(1)]),
        ("hyp4_conj", Signature(4, 2), [hcosh(1), poly(0, 1), const(0), hsinh(-1)]),
        ("line4", Signature(4, 2), [const(0), poly(0, 1), const(0), poly(0, -1)]),
        # circular null curves in E^4_2 (antipodal phases pair to <z',w'> < 0)
        ("trig4", Signature(4, 2), [poly(0, 1), const(0), tsin(1), tcos(1)]),
        ("trig4_anti", Signature(4, 2), [poly(0, 1), const(0), tsin(-1), tcos(-1)]),
        # E^6_3 variants
        ("hyp6", Signature(6, 3),
         [hcosh(1), poly(0, 1), const(0), hsinh(1), const(0), const(0)]),
        ("trig6", Signature(6, 3),
         [const(0), poly(0, 1), const(0), const(0), tsin(1), tcos(1)]),
        # quadratic light-cone curve: speed 2, <z'',z''> = 0, z''' = 0
        ("quadratic3", Signature(3, 1), [poly(1, 0, 1), poly(0, 2), poly(1, 0, -1)]),
        # halves of the quadratic curve; as z and w of the sphere pair chart
        # they make the unit de Sitter surface of ``de_sitter_control``
        ("half_quadratic", Signature(3, 1),
         [poly(0.5, 0, 0.5), poly(0, 1), poly(0.5, 0, -0.5)]),
        ("half_quadratic_rev", Signature(3, 1),
         [poly(0.5, 0, 0.5), poly(0, -1), poly(0.5, 0, -0.5)]),
        # light-cone curve in E^3_2 with speed^2 = -2 and jerk 2 z' (totally
        # geodesic boundary case of the hyperbolic classification)
        ("ads_null", Signature(3, 2),
         [hsinh(1, math.sqrt(2)), const(1), hcosh(1, math.sqrt(2))]),
        ("ads_null_open", Signature(3, 2),
         [hsinh(1, math.sqrt(2)), const(0), hcosh(1, math.sqrt(2))]),
        ("unit_const32", Signature(3, 2), [const(0), const(1), const(0)]),
    )
}


def builtin_curve(name: str) -> Curve:
    if not isinstance(name, str) or name not in BUILTIN_CURVES:
        raise InvalidInputError(
            f"unknown builtin curve {name!r}; known: {sorted(BUILTIN_CURVES)}"
        )
    return BUILTIN_CURVES[name]


# ---------------------------------------------------------------------------
# seeded null-curve pair generators (for sweeps and acceptance checks)

PAIR_FLAVORS = (
    "hyp_E42_nonconst",
    "trig_E42_nonconst",
    "hyp_E63_const",
    "mixed_E63_const",
)


def seeded_null_pair(rng: np.random.Generator, flavor: str):
    """Draw a random null-curve pair (z, w) with <z', w'> < 0 on [-1,1]^2.

    The two *_const flavors have constant <z',w'> (flat translation
    surfaces); the *_nonconst ones have genuinely varying pairing.
    Returns (z, w, constant_pairing).
    """
    if flavor not in PAIR_FLAVORS:
        raise InvalidInputError(f"unknown pair flavor {flavor!r}")
    A, B = rng.uniform(0.6, 1.4, 2)
    # frequencies capped so |sinh(al x) sinh(ga y)| < 0.4 on [-1,1]^2 and
    # the pairing stays far from zero at the domain corners
    al, ga = rng.uniform(0.3, 0.55, 2)
    dom = (-1.5, 1.5)
    if flavor == "hyp_E42_nonconst":
        sig = Signature(4, 2)
        z = [hcosh(A, al), poly(0, A * al), hsinh(A, al), const(0)]
        w = [hcosh(B, ga), poly(0, B * ga), const(0), hsinh(B, ga)]
    elif flavor == "trig_E42_nonconst":
        sig = Signature(4, 2)
        z = [poly(0, A * al), const(0), tsin(A, al), tcos(A, al)]
        w = [poly(0, B * ga), const(0), tsin(-B, ga), tcos(-B, ga)]
    elif flavor == "hyp_E63_const":
        sig = Signature(6, 3)
        z = [hcosh(A, al), poly(0, A * al), const(0), hsinh(A, al), const(0), const(0)]
        w = [const(0), poly(0, B * ga), hcosh(B, ga), const(0), hsinh(B, ga), const(0)]
    else:  # mixed_E63_const
        sig = Signature(6, 3)
        z = [hcosh(A, al), poly(0, A * al), const(0), hsinh(A, al), const(0), const(0)]
        w = [const(0), poly(0, B * ga), const(0), const(0), tsin(B, ga), tcos(B, ga)]
    label = f"{flavor}(A={A:.3f},B={B:.3f},al={al:.3f},ga={ga:.3f})"
    return (Curve(sig, z, dom, label + ".z"), Curve(sig, w, dom, label + ".w"),
            flavor.endswith("_const"))
