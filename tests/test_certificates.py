"""Symbolic certificates for the built-in curve families.

The term tables the package evaluates numerically are mapped term by term
to sympy.  They come from the package's own ``_exNN_coeffs`` and
``_build_exNN`` run at symbolic parameters (with ``sympy.sqrt``), so no
family formula is restated here.  An identity is proved by reducing it,
as a polynomial in the curve parameters x, y, t, the basis functions and
any free symbol, modulo cosh^2 - sinh^2 = 1 and cos^2 + sin^2 = 1, with
coefficients rational in the family parameters; it holds when the
remainder is zero.

The surface charts are certified too: the jet of ``surfaces._chart_maps``
against sympy's derivatives of a(x+y) Z + b Z' for a symbolic a, z and w,
and each chart's coefficients and immersion against 1/s and tanh(s/sqrt2).
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from lorentzmin import surfaces  # noqa: E402
from lorentzmin.curves import EX72_CHAIN_BOUNDS, FAMILIES, _ex72_chain_mid  # noqa: E402

t, x, y = sp.symbols("t x y", real=True)
BASES = {"cosh": sp.cosh, "sinh": sp.sinh, "cos": sp.cos, "sin": sp.sin}
#: sqrt2 tanh((x+y)/sqrt2), left free: an identity that holds for every U
#: holds in particular for this one
U = sp.Symbol("U")


def exact(value):
    return sp.Rational(value) if isinstance(value, float) else sp.sympify(value)


def vector(components, var):
    """A term table as a list of sympy expressions in var."""
    return [sum((exact(a) * (var**w if basis == "pow" else BASES[basis](exact(w) * var))
                 for basis, a, w in terms), sp.Integer(0)) for terms in components]


@functools.lru_cache(maxsize=None)
def family(family_id, alt_pairing=False):
    """(parameter symbols, signature, term tables) of a family at symbolic
    positive parameters."""
    info = FAMILIES[family_id]
    params = [sp.Symbol(name, positive=True) for name in info["params"]]
    rads, dens = info["_coeffs"](*params)
    tables = info["_build"](*params, rads, dens, alt_pairing, sp.sqrt)
    return params, info["signature"], tables


def dot(u, v, signature):
    return sum((-1 if i < signature.index else 1) * a * b for i, (a, b) in enumerate(zip(u, v)))


def diff(vec, var, k):
    return [sp.diff(c, var, k) for c in vec]


def vanishes(expr, params) -> bool:
    subs, relations = {}, []
    for f in expr.atoms(sp.cosh, sp.sinh, sp.cos, sp.sin):
        hyperbolic = isinstance(f, (sp.cosh, sp.sinh))
        even, odd = (sp.cosh, sp.sinh) if hyperbolic else (sp.cos, sp.sin)
        if even(f.args[0]) not in subs:
            c, s = sp.Dummy(), sp.Dummy()
            subs[even(f.args[0])], subs[odd(f.args[0])] = c, s
            relations.append(c**2 - s**2 - 1 if hyperbolic else c**2 + s**2 - 1)
    expr = expr.xreplace(subs)
    gens = sorted((expr.free_symbols - set(params)) | set(subs.values()), key=str)
    domain = sp.QQ.frac_field(*params)
    if not relations:
        return sp.Poly(expr, *gens, domain=domain).is_zero
    return sp.reduced(expr, relations, *gens, domain=domain)[1] == 0


@pytest.mark.parametrize("family_id, order, value", [
    ("Ex7_1", 0, 0), ("Ex7_1", 1, 4), ("Ex7_1", 2, 0),
    ("Ex8_1", 0, 0), ("Ex8_1", 1, -2), ("Ex8_1", 2, 4),
])
def test_single_curve_identity(family_id, order, value):
    # <z^(k), z^(k)> = value: light cone, speed and acceleration
    params, signature, (table,) = family(family_id)
    zk = diff(vector(table, t), t, order)
    assert vanishes(dot(zk, zk, signature) - value, params)


def pair(family_id):
    params, signature, (z_table, w_table) = family(family_id)
    z, w = vector(z_table, x), vector(w_table, y)
    zw = [a + b for a, b in zip(z, w)]
    zw1 = [a + b for a, b in zip(diff(z, x, 1), diff(w, y, 1))]
    return params, signature, z, w, zw, zw1


@pytest.mark.parametrize("condition", ["c.1", "c.2", "c.3"])
def test_ex72_sphere_conditions(condition):
    params, signature, z, w, zw, zw1 = pair("Ex7_2")
    s = x + y
    if condition == "c.1":  # <L, L> = 1, times (x+y)^2
        sL = [a - s * b / 2 for a, b in zip(zw, zw1)]
        expr = dot(sL, sL, signature) - s**2
    else:  # 2<z+w, c'''> = (x+y)<z'+w', c'''> for c = z, w
        c3 = diff(z, x, 3) if condition == "c.2" else diff(w, y, 3)
        expr = 2 * dot(zw, c3, signature) - s * dot(zw1, c3, signature)
    assert vanishes(expr, params)


@pytest.mark.parametrize("condition", ["iii.1", "iii.2", "iii.3"])
def test_ex82_hyperbolic_conditions(condition):
    params, signature, z, w, zw, zw1 = pair("Ex8_2")
    if condition == "iii.1":  # <L, L> = -1, with sqrt2 L = (z+w) U - (z'+w')
        L2 = [a * U - b for a, b in zip(zw, zw1)]
        expr = dot(L2, L2, signature) + 2
    else:  # sqrt2 <z+w, 2c'-c'''> tanh = <z'+w', 2c'-c'''> for c = z, w
        c, var = (z, x) if condition == "iii.2" else (w, y)
        ac = [2 * a - b for a, b in zip(diff(c, var, 1), diff(c, var, 3))]
        expr = dot(zw, ac, signature) * U - dot(zw1, ac, signature)
    assert vanishes(expr, params)


def test_ex72_chain_forces_radicand_negative():
    # the radicand is 4((315/4)p^2 - 4X) with X = 80+189r^2-64q^2, so the
    # chain's X > 35p^2 leaves at most 4(315/4 - 140)p^2 < 0
    p, q, r = family("Ex7_2")[0]
    rads, _ = FAMILIES["Ex7_2"]["_coeffs"](p, q, r)
    radicand = rads["315p^2+1024q^2-3024r^2-1280"]
    hi, lo = map(sp.Rational, EX72_CHAIN_BOUNDS)
    X = _ex72_chain_mid(q, r)
    assert sp.expand(radicand - 4 * (hi * p**2 - 4 * X)) == 0
    excess = sp.Symbol("excess", positive=True)  # X - 35p^2
    assert sp.expand(4 * (hi * p**2 - 4 * (lo * p**2 + excess))).is_negative


def test_false_identities_are_not_certified():
    params, signature, (table,) = family("Ex8_1", alt_pairing=True)
    z = vector(table, t)
    assert not vanishes(dot(z, z, signature), params)  # off the light cone for p != 1
    params, signature, (table,) = family("Ex7_1")
    z1 = diff(vector(table, t), t, 1)
    assert not vanishes(dot(z1, z1, signature) - 5, params)


#: the jet's fields by their orders in x and y
JET_ORDERS = {"L": (0, 0), "Lx": (1, 0), "Ly": (0, 1), "Lxx": (2, 0), "Lxy": (1, 1),
              "Lyy": (0, 2), "Lxxy": (2, 1), "Lxyy": (1, 2)}


@pytest.mark.parametrize("curves", [2, 1], ids=["pair", "single"])
def test_chart_jet_is_the_product_rule(curves):
    # every field of the chart jet, for a symbolic a(s), b and curves z, w
    a, b = sp.Function("a"), sp.Symbol("b")
    chart = surfaces._Chart(lambda Z, Z1, s: a(s) * Z + b * Z1,
                            lambda s: [sp.diff(a(t), t, k).subs(t, s) for k in range(4)], b)
    sources = [(sp.Function("z")(x), x), (sp.Function("w")(y), y)][:curves]
    L = a(x + y) * sum(c for c, _ in sources) + b * sum(sp.diff(c, v) for c, v in sources)
    d = [np.array([[sp.diff(c, v, k)] for k in range(4)], dtype=object) for c, v in sources]
    jet = surfaces._chart_maps(chart, *"zw"[:curves])[1](x, y, *d)
    for field, (i, j) in JET_ORDERS.items():
        assert sp.simplify((getattr(jet, field)[0] - sp.diff(L, x, i, y, j)).doit()) == 0, field


S = sp.Symbol("s", positive=True)


@pytest.mark.parametrize("chart, a", [("_SPHERE_CHART", 1 / S),
                                      ("_HYPERBOLIC_CHART", sp.tanh(S / sp.sqrt(2)))],
                         ids=["sphere", "hyperbolic"])
def test_chart_coefficients_and_immersion(monkeypatch, chart, a):
    # coefficients(s) are a and its first three derivatives, and
    # immersion(Z, Z', s) = a Z + b Z', with sympy's tanh and cosh and an
    # exact sqrt2 in place of numpy's
    chart = getattr(surfaces, chart)
    monkeypatch.setattr(surfaces, "np", SimpleNamespace(tanh=sp.tanh, cosh=sp.cosh))
    monkeypatch.setattr(surfaces, "SQRT2", sp.sqrt(2))
    for k, coefficient in enumerate(chart.coefficients(S)):
        assert sp.simplify(sp.nsimplify(coefficient) - sp.diff(a, S, k)) == 0, k
    b = sp.nsimplify(chart.b, [sp.sqrt(2)])
    assert abs(float(b) - chart.b) <= 2**-52
    Z, Z1 = sp.symbols("Z Z1")
    assert sp.simplify(chart.immersion(Z, Z1, S) - (a * Z + b * Z1)) == 0
