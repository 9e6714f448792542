"""Analytic curves with exact derivatives up to order three.

A curve is a map t -> E^m_s built from closed-form components (constants,
polynomials, cosh/sinh and sin/cos blocks), so derivatives are exact
rather than numerical; a central-difference check is provided to validate
them.  On top of the generic abstraction sit four built-in parameter
families of light-cone curves used by the surface constructors, each with
numeric validation of every radicand and denominator in its coefficients.

Curves are evaluated on numpy arrays of parameters: ``Curve.at(t, k)``
takes a scalar or an array ``t`` and returns shape ``t.shape + (dim,)``.
Curves are immutable and their evaluation closures stateless, so they can
be shared freely between threads and grid evaluations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConstraintViolationError, InvalidInputError, SignatureMismatchError
from .indefinite import PseudoVector, Signature, indefinite_dot
from .report import ConditionReport

__all__ = [
    "Curve",
    "ParamFamily",
    "FamilyValidation",
    "eval_curve",
    "fd_derivative_check",
    "derivative_inner",
    "null_check",
    "make_example",
    "validate_family",
    "family_info",
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


# ---------------------------------------------------------------------------
# component builders: each returns a closure (t, k) -> k-th derivative at
# the numpy array t (a constant may come back as a plain float)


def const(c: float):
    def f(t, k):
        return c if k == 0 else 0.0

    return f


def poly(*coeffs: float):
    """Polynomial component c0 + c1 t + c2 t^2 + ..."""
    ps = [np.polynomial.Polynomial(coeffs)]
    for _ in range(MAX_ORDER):
        ps.append(ps[-1].deriv())
    cs = [p.coef for p in ps]

    def f(t, k):
        return np.polynomial.polynomial.polyval(t, cs[k])

    return f


def _periodic(a, w, funcs, signs):
    """a * w^k * signs[k] * funcs[k % 2](w t): the shared shape of the
    cosh/sinh and sin/cos blocks."""

    def f(t, k):
        return a * w**k * signs[k] * funcs[k % 2](w * t)

    return f


def hcosh(a: float, w: float = 1.0):
    return _periodic(a, w, (np.cosh, np.sinh), (1, 1, 1, 1))


def hsinh(a: float, w: float = 1.0):
    return _periodic(a, w, (np.sinh, np.cosh), (1, 1, 1, 1))


def tsin(a: float, w: float = 1.0):
    return _periodic(a, w, (np.sin, np.cos), (1, 1, -1, -1))


def tcos(a: float, w: float = 1.0):
    return _periodic(a, w, (np.cos, np.sin), (1, -1, -1, 1))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """Vector-valued map of one real parameter with exact derivatives.

    ``func(t, k)`` returns the k-th derivative (k in [0, 3]) at the numpy
    array ``t`` as a raw array of shape ``t.shape + (dim,)`` in the given
    signature.  Evaluation must be deterministic.
    """

    signature: Signature
    domain: tuple[float, float]
    func: Callable[[float, int], np.ndarray]
    label: str = ""

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise InvalidInputError(f"empty curve domain {self.domain}")

    @classmethod
    def from_components(cls, signature, components, domain=(-2.0, 2.0), label=""):
        comps = list(components)
        if len(comps) != signature.dim:
            raise InvalidInputError(
                f"{len(comps)} components for signature {signature}"
            )

        def func(t, k):
            out = np.empty(np.shape(t) + (len(comps),))
            for i, c in enumerate(comps):
                out[..., i] = c(t, k)
            return out

        return cls(signature, tuple(domain), func, label)

    def at(self, t, order: int = 0) -> np.ndarray:
        """k-th derivative at a scalar or array t; shape t.shape + (dim,)."""
        if not 0 <= order <= MAX_ORDER:
            raise InvalidInputError(f"derivative order must be in [0, {MAX_ORDER}]")
        t = np.asarray(t, dtype=float)
        lo, hi = self.domain
        pad = DOMAIN_PAD_FRACTION * (hi - lo)
        inside = (lo - pad <= t) & (t <= hi + pad)
        if not inside.all():
            bad = float(t.flat[np.argmin(inside)])
            raise InvalidInputError(f"t={bad} outside curve domain [{lo}, {hi}] (pad {pad:g})")
        return self.func(t, order)

    def sample_grid(self, samples: int) -> np.ndarray:
        if samples < 2:
            raise InvalidInputError("need at least 2 samples")
        return np.linspace(self.domain[0], self.domain[1], samples)


def eval_curve(curve: Curve, t: float, order: int = 0) -> PseudoVector:
    """Exact derivative of the given order, wrapped with its signature."""
    return PseudoVector(curve.at(t, order), curve.signature)


def fd_derivative_check(curve: Curve, t: float, order: int, step: float) -> float:
    """Max-norm relative gap between the exact order-th derivative and a
    Richardson-extrapolated central difference of the (order-1)-th one."""
    if not 1 <= order <= MAX_ORDER:
        raise InvalidInputError("order must be in [1, 3]")
    if step <= 0:
        raise InvalidInputError(f"step must be positive, got {step}")
    k = order - 1
    d1 = (curve.at(t + step, k) - curve.at(t - step, k)) / (2 * step)
    d2 = (curve.at(t + step / 2, k) - curve.at(t - step / 2, k)) / step
    fd = (4 * d2 - d1) / 3
    exact = curve.at(t, order)
    scale = max(1.0, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(fd - exact))) / scale


def derivative_inner(c1: Curve, k1: int, c2: Curve, k2: int, t1, t2):
    """<c1^(k1)(t1), c2^(k2)(t2)>, the workhorse of all premise checks;
    array arguments broadcast against each other."""
    if c1.signature != c2.signature:
        raise SignatureMismatchError(
            f"signatures differ: {c1.signature} vs {c2.signature}"
        )
    return indefinite_dot(c1.at(t1, k1), c2.at(t2, k2), c1.signature.index)


def null_check(curve: Curve, samples: int = 41, tol: float = 1e-9) -> ConditionReport:
    """Max of |<z',z'>| over an even grid of the domain; pass iff <= tol."""
    ts = curve.sample_grid(samples)
    residuals = np.abs(derivative_inner(curve, 1, curve, 1, ts, ts))
    grid = f"{samples} samples on [{curve.domain[0]:g}, {curve.domain[1]:g}]"
    return ConditionReport.from_max("null", residuals, tol, grid, points=ts[:, None])


# ---------------------------------------------------------------------------
# built-in parameter families of light-cone curves
#
# The factories validate every radicand and denominator numerically; the
# inequality chains traditionally quoted with these families are reported
# as advisory metadata only (see FamilyValidation.chain_ok), because for
# one family the quoted chain is incompatible with a radicand.

def _finite_number(value) -> bool:
    """True for an int or float, not a bool, that is a finite double."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the double range
        return False


#: Example families keep cosh arguments <= 6 on this domain, so the
#: premise identities hold to ~1e-11 in double precision, well inside the
#: 1e-9 algebraic tolerance.
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


def _chain_ex72(p, q, r):
    mid = 80 + 189 * r**2 - 64 * q**2
    return (315 / 4) * p**2 > mid > 35 * p**2


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


def _build_ex71(fam, alt_pairing):
    a, p, q, r = (fam.params[k] for k in ("a", "p", "q", "r"))
    d = math.sqrt(r**2 - q**2)
    c2 = math.sqrt(4 * r**2 + a**2 * p**2 * (p**2 - r**2)) / (q * d)
    c3 = math.sqrt(4 * q**2 + a**2 * p**2 * (p**2 - q**2)) / (r * d)
    c4 = math.sqrt(4 * (q**2 + r**2) + a**2 * (p**2 - r**2) * (p**2 - q**2)) / (q * r)
    comps = [
        hcosh(a, p), hcosh(c2, q), hsinh(c3, r),
        hsinh(a, p), hsinh(c2, q), hcosh(c3, r), const(c4),
    ]
    return Curve.from_components(
        Signature(7, 3), comps, FACTORY_DOMAIN, label=fam.label()
    )


def _build_ex72(fam, alt_pairing):
    p, q, r = (fam.params[k] for k in ("p", "q", "r"))
    s15 = math.sqrt(15)
    A = math.sqrt(256 * q**2 + 369 * r**2) / (4 * s15)
    B = math.sqrt(16 * q**2 + 609 * r**2) / (4 * s15)
    C = math.sqrt(320 + 225 * p**2 + 756 * r**2 - 256 * q**2) / (8 * s15)
    D = math.sqrt(315 * p**2 + 1024 * q**2 - 3024 * r**2 - 1280) / (4 * s15)
    E = math.sqrt(320 + 756 * r**2 - 35 * p**2 - 256 * q**2) / 8
    sig = Signature(14, 6)
    z = _place(14, [
        (0, hcosh(A, 2)), (1, hsinh(B, 4)), (2, hcosh(r, 5)),
        (6, hsinh(A, 2)), (7, hcosh(B, 4)), (8, hsinh(r, 5)), (12, const(q)),
    ])
    w = _place(14, [
        (3, hcosh(p, 1.5)), (4, hsinh(C, 2)), (5, hsinh(D, 1)),
        (9, hsinh(p, 1.5)), (10, hcosh(C, 2)), (11, hcosh(D, 1)), (13, const(E)),
    ])
    label = fam.label()
    return (
        Curve.from_components(sig, z, FACTORY_DOMAIN, label=label + ".z"),
        Curve.from_components(sig, w, FACTORY_DOMAIN, label=label + ".w"),
    )


def _build_ex81(fam, alt_pairing):
    a, b, p, q = (fam.params[k] for k in ("a", "b", "p", "q"))
    d = math.sqrt(q**2 - p**2)
    cp = math.sqrt(q**2 * (2 + a**2) - (4 + a**2)) / (p * d)
    cq = math.sqrt(4 + a**2 - p**2 * (2 + a**2)) / (q * d)
    c0 = math.sqrt(
        b**2 * p**2 * q**2 - a**2 * (q**2 - 1) * (1 - p**2) - 2 * (p**2 + q**2 - 2)
    ) / (p * q)
    # default pairs the fifth component with the a*cosh(x) block; the
    # alternate variant uses frequency p there and fails the light-cone
    # checks whenever p != 1 (kept as a negative control).
    fifth = hsinh(a, p) if alt_pairing else hsinh(a, 1)
    comps = [
        const(b), hcosh(a, 1), hsinh(cp, p), hsinh(cq, q),
        fifth, hcosh(cp, p), hcosh(cq, q), const(c0),
    ]
    return Curve.from_components(
        Signature(8, 4), comps, FACTORY_DOMAIN, label=fam.label()
    )


def _build_ex82(fam, alt_pairing):
    a, b, p, q, r, s = (fam.params[k] for k in ("a", "b", "p", "q", "r", "s"))

    def half_coeffs(bb, pp, qq):
        al = math.sqrt(pp**2 + qq**2 - bb**2 * pp**2 * qq**2 - 2) / math.sqrt(
            (pp**2 - 1) * (qq**2 - 1)
        )
        be = math.sqrt(1 - pp**2 * (1 - bb**2)) / math.sqrt(
            (qq**2 - pp**2) * (qq**2 - 1)
        )
        ga = math.sqrt(qq**2 * (1 - bb**2) - 1) / math.sqrt(
            (qq**2 - pp**2) * (pp**2 - 1)
        )
        return al, be, ga

    al, be, ga = half_coeffs(b, p, q)
    de, ep, ze = half_coeffs(a, r, s)
    sig = Signature(14, 8)
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
    label = fam.label()
    return (
        Curve.from_components(sig, z, FACTORY_DOMAIN, label=label + ".z"),
        Curve.from_components(sig, w, FACTORY_DOMAIN, label=label + ".w"),
    )


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


def family_info(family_id: str) -> dict:
    """Public metadata of a built-in family (params, signature, arity)."""
    if family_id not in FAMILIES:
        raise InvalidInputError(f"unknown family {family_id!r}")
    info = FAMILIES[family_id]
    return {
        "family_id": family_id,
        "params": info["params"],
        "signature": info["signature"],
        "pair": info["pair"],
        "ambient": info["ambient"],
        "chain": info["chain"],
    }


def validate_family(fam: ParamFamily) -> FamilyValidation:
    """Numeric validation: every radicand >= 0, every denominator > 0.

    The quoted inequality chain is evaluated too, but only for reporting;
    it neither implies nor is implied by validity (one family's chain in
    fact forces a radicand negative).
    """
    info = FAMILIES[fam.family_id]
    args = [fam.params[k] for k in info["params"]]
    failures = []
    for name, value in fam.params.items():
        if not value > 0:
            failures.append(f"parameter {name} must be positive (= {value:g})")
    try:
        rads, dens = _coefficients(fam)
    except InvalidInputError as exc:
        rads, dens = {}, {}
        failures.append(str(exc))
    for name, value in dens.items():
        if not value > 0:
            failures.append(f"denominator {name} not positive (= {value:g})")
    for name, value in rads.items():
        if not value >= 0:  # NaN (an overflow inside the radicand) fails too
            failures.append(f"radicand {name} negative (= {value:g})")
    return FamilyValidation(
        family_id=fam.family_id,
        ok=not failures,
        radicands=rads,
        denominators=dens,
        failures=failures,
        chain_ok=_chain_holds(info["_chain"], args),
        chain=info["chain"],
    )


def _coefficients(fam: ParamFamily):
    """(radicands, denominators) of a parameter set; parameters whose
    squares leave the double range raise InvalidInputError."""
    info = FAMILIES[fam.family_id]
    try:
        return info["_coeffs"](*(fam.params[k] for k in info["params"]))
    except OverflowError as exc:
        raise InvalidInputError(f"{fam.label()}: parameters out of range ({exc})") from exc


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
    info = FAMILIES[fam.family_id]
    for name in info["params"]:
        if not fam.params[name] > 0:
            raise InvalidInputError(
                f"{fam.family_id}: parameter {name} must be positive, "
                f"got {fam.params[name]:g}"
            )
    rads, dens = _coefficients(fam)
    for name, value in dens.items():
        if not value > 0:
            raise ConstraintViolationError(name, value)
    for name, value in rads.items():
        if not value >= 0:
            raise ConstraintViolationError(name, value)
    try:
        return info["_build"](fam, alt_pairing)
    except (ZeroDivisionError, OverflowError) as exc:
        raise InvalidInputError(f"{fam.label()}: parameters out of range ({exc})") from exc


# ---------------------------------------------------------------------------
# named test curves addressable from the harness


def _builtin(signature, comps, label, domain=(-2.0, 2.0)):
    return lambda: Curve.from_components(signature, comps, domain, label=label)


BUILTIN_CURVES: dict[str, Callable[[], Curve]] = {
    # null lines in the Lorentz plane (totally geodesic translation plane)
    "line2": _builtin(Signature(2, 1), [poly(0, 1), poly(0, 1)], "line2"),
    "line2_rev": _builtin(Signature(2, 1), [poly(0, 1), poly(0, -1)], "line2_rev"),
    # circular null curve in E^3_1
    "trig3": _builtin(Signature(3, 1), [poly(0, 1), tsin(1), tcos(1)], "trig3"),
    # hyperbolic null curves in E^4_2
    "hyp4": _builtin(
        Signature(4, 2), [hcosh(1), poly(0, 1), hsinh(1), const(0)], "hyp4"
    ),
    "hyp4_mirror": _builtin(
        Signature(4, 2), [hcosh(1), poly(0, -1), const(0), hsinh(1)], "hyp4_mirror"
    ),
    "hyp4_conj": _builtin(
        Signature(4, 2), [hcosh(1), poly(0, 1), const(0), hsinh(-1)], "hyp4_conj"
    ),
    "line4": _builtin(
        Signature(4, 2), [const(0), poly(0, 1), const(0), poly(0, -1)], "line4"
    ),
    # circular null curves in E^4_2 (antipodal phases pair to <z',w'> < 0)
    "trig4": _builtin(
        Signature(4, 2), [poly(0, 1), const(0), tsin(1), tcos(1)], "trig4"
    ),
    "trig4_anti": _builtin(
        Signature(4, 2), [poly(0, 1), const(0), tsin(-1), tcos(-1)], "trig4_anti"
    ),
    # E^6_3 variants
    "hyp6": _builtin(
        Signature(6, 3),
        [hcosh(1), poly(0, 1), const(0), hsinh(1), const(0), const(0)],
        "hyp6",
    ),
    "trig6": _builtin(
        Signature(6, 3),
        [const(0), poly(0, 1), const(0), const(0), tsin(1), tcos(1)],
        "trig6",
    ),
    # quadratic light-cone curve: speed 2, <z'',z''> = 0, z''' = 0
    "quadratic3": _builtin(
        Signature(3, 1), [poly(1, 0, 1), poly(0, 2), poly(1, 0, -1)], "quadratic3"
    ),
    # halves of the quadratic curve; together they parametrize the unit
    # de Sitter surface through the sphere-family pair construction
    "half_quadratic": _builtin(
        Signature(3, 1),
        [poly(0.5, 0, 0.5), poly(0, 1), poly(0.5, 0, -0.5)],
        "half_quadratic",
    ),
    "half_quadratic_rev": _builtin(
        Signature(3, 1),
        [poly(0.5, 0, 0.5), poly(0, -1), poly(0.5, 0, -0.5)],
        "half_quadratic_rev",
    ),
    # light-cone curve in E^3_2 with speed^2 = -2 and jerk 2 z' (totally
    # geodesic boundary case of the hyperbolic classification)
    "ads_null": _builtin(
        Signature(3, 2),
        [hsinh(1, math.sqrt(2)), const(1), hcosh(1, math.sqrt(2))],
        "ads_null",
    ),
    "ads_null_open": _builtin(
        Signature(3, 2),
        [hsinh(1, math.sqrt(2)), const(0), hcosh(1, math.sqrt(2))],
        "ads_null_open",
    ),
    "unit_const32": _builtin(
        Signature(3, 2), [const(0), const(1), const(0)], "unit_const32"
    ),
}


def builtin_curve(name: str) -> Curve:
    if not isinstance(name, str) or name not in BUILTIN_CURVES:
        raise InvalidInputError(
            f"unknown builtin curve {name!r}; known: {sorted(BUILTIN_CURVES)}"
        )
    return BUILTIN_CURVES[name]()


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
    zc = Curve.from_components(sig, z, dom, label=label + ".z")
    wc = Curve.from_components(sig, w, dom, label=label + ".w")
    return zc, wc, flavor.endswith("_const")
