import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lorentzmin

from lorentzmin.curves import (
    BUILTIN_CURVES,
    Curve,
    ParamFamily,
    builtin_curve,
    const,
    derivative_inner,
    hcosh,
    hsinh,
    make_example,
    null_check,
    poly,
    seeded_null_pair,
    tcos,
    tsin,
    validate_family,
    PAIR_FLAVORS,
)
from lorentzmin.errors import (
    ConstraintViolationError,
    InvalidInputError,
    SignatureMismatchError,
)
from lorentzmin.indefinite import Signature

E21 = Signature(2, 1)

REF_82 = {"a": 1 / math.sqrt(2), "b": 1 / math.sqrt(2),
             "p": 1.1, "q": 1.5, "r": 1.1, "s": 1.5}


def fam71(a=1, p=3, q=1, r=2):
    return ParamFamily("Ex7_1", {"a": a, "p": p, "q": q, "r": r})


def fd_derivative_check(curve: Curve, t: float, order: int, step: float) -> float:
    """Max-norm relative gap between the exact order-th derivative and a
    Richardson-extrapolated central difference of the (order-1)-th one."""
    k = order - 1
    d1 = (curve.at(t + step, k) - curve.at(t - step, k)) / (2 * step)
    d2 = (curve.at(t + step / 2, k) - curve.at(t - step / 2, k)) / step
    fd = (4 * d2 - d1) / 3
    exact = curve.at(t, order)
    scale = max(1.0, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(fd - exact))) / scale


class TestEval:
    def test_constant_curve_derivative(self):
        c = Curve(E21, [const(1), const(1)])
        assert np.all(c.at(0.3, 1) == 0)

    def test_sinh_cosh_second_derivative(self):
        c = Curve(E21, [hsinh(1), hcosh(1)])
        np.testing.assert_allclose(c.at(0.0, 2), [0.0, 1.0], atol=1e-15)

    def test_order_out_of_range(self):
        c = builtin_curve("line2")
        with pytest.raises(InvalidInputError):
            c.at(0.0, 4)

    def test_t_outside_domain(self):
        c = builtin_curve("line2")  # domain [-2, 2], 10% pad
        with pytest.raises(InvalidInputError):
            c.at(3.0)

    def test_example_third_derivative_vs_position_differences(self):
        # oracle: third central difference of the position, Richardson
        # extrapolated once, entirely independent of the stored derivative
        z = make_example(fam71())
        t, h = 0.4, 4e-3

        def d3(hh):
            return (
                z.at(t + 2 * hh) - 2 * z.at(t + hh) + 2 * z.at(t - hh) - z.at(t - 2 * hh)
            ) / (2 * hh**3)

        oracle = (4 * d3(h / 2) - d3(h)) / 3
        exact = z.at(t, 3)
        rel = np.max(np.abs(oracle - exact)) / max(1.0, np.max(np.abs(exact)))
        assert rel < 1e-6


def every_curve():
    """Every builtin curve, every factory curve with and without alt_pairing,
    and both curves of every seeded pair flavor."""
    curves = [pytest.param(c, id=name) for name, c in BUILTIN_CURVES.items()]
    for family_id, params in (
        ("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}),
        ("Ex7_2", {"p": 3, "q": 1.5, "r": 1}),
        ("Ex8_1", {"a": 1, "b": 1.2, "p": 1.2, "q": 1.5}),
        ("Ex8_2", {"a": 0.6, "b": 0.7, "p": 1.15, "q": 1.45, "r": 1.2, "s": 1.3}),
    ):
        for alt_pairing in (False, True):
            built = make_example(ParamFamily(family_id, params), alt_pairing=alt_pairing)
            for c, half in zip(built if isinstance(built, tuple) else (built,), ("z", "w")):
                curves.append(pytest.param(c, id=f"{family_id}{'-alt' * alt_pairing}.{half}"))
    for flavor in PAIR_FLAVORS:
        z, w, _ = seeded_null_pair(np.random.default_rng(5), flavor)
        curves += [pytest.param(z, id=f"{flavor}.z"), pytest.param(w, id=f"{flavor}.w")]
    return curves


class TestTermTables:
    @pytest.mark.parametrize("curve", every_curve())
    def test_derivatives_equal_at_bit_for_bit(self, curve):
        lo, hi = curve.domain
        for t in (np.linspace(lo, hi, 17), np.linspace(lo, hi, 6)[:, None], 0.0, 0.3):
            stacked = curve.derivatives(t, range(4))
            assert stacked.shape == (4,) + np.shape(t) + (curve.signature.dim,)
            for k in range(4):
                assert stacked[k].tobytes() == curve.at(t, k).tobytes()
            picked = curve.derivatives(t, (3, 1))
            assert picked.tobytes() == stacked[[3, 1]].tobytes()

    @pytest.mark.parametrize("component", [
        (("tanh", 1.0, 1.0),),
        (("cosh", 1.0),),
        (("pow", 1.0, -1),),
        (("pow", 1.0, 1.5),),
        (("pow", 1.0, True),),
        (("cosh", "1", 1.0),),
        (("sin", 1.0, math.inf),),
        (("cos", math.nan, 1.0),),
        (("sinh", 1.0, 1e300),),  # its third-order factor overflows
        ("cosh", 1.0, 1.0),  # a bare term, not a component
        lambda t, k: 0.0,  # a closure component
    ], ids=["unknown-basis", "short", "negative-power", "fractional-power", "bool-power",
            "string-coefficient", "inf-frequency", "nan-coefficient", "overflow", "bare-term",
            "closure"])
    def test_malformed_term_rejected(self, component):
        with pytest.raises(InvalidInputError):
            Curve(E21, [hcosh(1), component])

    def test_component_count_must_match_signature(self):
        with pytest.raises(InvalidInputError):
            Curve(E21, [hcosh(1)])
        with pytest.raises(InvalidInputError):
            Curve(E21, [hcosh(1), hsinh(1), const(0)])

    def test_two_term_components_pass_fd_check(self):
        c = Curve(E21, [hcosh(0.5, 2) + poly(1, -1, 0.5), tsin(1, 3) + tcos(0.5, 1.5)])
        np.testing.assert_allclose(
            c.at(0.4), [0.5 * math.cosh(0.8) + 1 - 0.4 + 0.08,
                        math.sin(1.2) + 0.5 * math.cos(0.6)], rtol=1e-15)
        for order, step in ((1, 1e-5), (2, 1e-4), (3, 1e-3)):
            assert fd_derivative_check(c, 0.3, order, step) < 1e-8

    def test_curve_is_data(self):
        c = builtin_curve("trig3")
        assert c == Curve(Signature(3, 1), [poly(0, 1), tsin(1), tcos(1)], label="trig3")
        assert c.components[1] == (("sin", 1.0, 1.0),)
        assert not any(callable(getattr(c, f.name)) for f in dataclasses.fields(c))
        assert hash(c) == hash(Curve(c.signature, c.components, c.domain, c.label))

    def test_import_does_not_load_numpy_polynomial(self):
        # nor any other module that would lengthen the start of ``lms``
        heavy = ("numpy.polynomial", "numpy.random", "concurrent.futures",
                 "multiprocessing", "sympy")
        code = f"import sys, lorentzmin.cli; print([m for m in {heavy!r} if m in sys.modules])"
        src = str(pathlib.Path(lorentzmin.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"


class TestFdDerivativeCheck:
    def test_quadratic_exact(self):
        c = Curve(E21, [poly(1, 0, 1), poly(0, 2)])
        assert fd_derivative_check(c, 0.5, 1, 1e-3) < 1e-10

    def test_hyperbolic_pair_second_order(self):
        z, _ = make_example(ParamFamily("Ex8_2", REF_82))
        assert fd_derivative_check(z, 0.2, 2, 1e-4) < 1e-6

    def test_example_third_order(self):
        z = make_example(fam71())
        assert fd_derivative_check(z, 0.7, 3, 1e-3) < 1e-5

    def test_all_factory_curves_orders_1_to_3(self):
        rng = np.random.default_rng(7)
        curves = [
            make_example(fam71()),
            *make_example(ParamFamily("Ex7_2", {"p": 3, "q": 1.5, "r": 1})),
            make_example(ParamFamily("Ex8_1", {"a": 1, "b": 1.1, "p": 1, "q": 1.5})),
            *make_example(ParamFamily("Ex8_2", REF_82)),
        ]
        for curve in curves:
            lo, hi = curve.domain
            ts = rng.uniform(lo + 0.05, hi - 0.05, 20)
            for order, step in ((1, 1e-5), (2, 1e-4), (3, 1e-3)):
                worst = max(fd_derivative_check(curve, t, order, step) for t in ts)
                assert worst < 1e-6, (curve.label, order, worst)


class TestDerivativeInner:
    def test_example_71_constant_speed(self):
        z = make_example(fam71())
        for t in np.linspace(-1.1, 1.1, 7):
            assert derivative_inner(z, 1, z, 1, t, t) == pytest.approx(4.0, abs=1e-9)

    def test_example_81_constant_speed(self):
        z = make_example(ParamFamily("Ex8_1", {"a": 1, "b": 1.1, "p": 1, "q": 1.5}))
        for t in np.linspace(-1.1, 1.1, 7):
            assert derivative_inner(z, 1, z, 1, t, t) == pytest.approx(-2.0, abs=1e-9)

    def test_constant_curve_vanishes(self):
        c = Curve(E21, [const(2), const(1)])
        line = builtin_curve("line2")
        assert derivative_inner(c, 1, line, 1, 0.3, 0.4) == 0.0

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            derivative_inner(builtin_curve("line2"), 1, builtin_curve("trig3"), 1, 0, 0)


class TestNullCheck:
    def test_null_line(self):
        rep = null_check(builtin_curve("line2"))
        assert rep.passed and rep.max_residual == 0.0

    def test_circular_null_curve(self):
        rep = null_check(builtin_curve("trig3"))
        assert rep.passed and rep.max_residual < 1e-12

    def test_unit_hyperbola_fails(self):
        c = Curve(E21, [hsinh(1), hcosh(1)])
        rep = null_check(c)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(1.0, abs=1e-12)


class TestFamilies:
    def test_ex71_light_cone_and_null_acceleration(self):
        z = make_example(fam71())
        for t in np.linspace(*z.domain, 41):
            assert abs(derivative_inner(z, 0, z, 0, t, t)) < 1e-9
            assert abs(derivative_inner(z, 2, z, 2, t, t)) < 1e-9
            assert np.max(np.abs(z.at(t, 3))) > 1.0

    def test_ex81_premises(self):
        z = make_example(ParamFamily("Ex8_1", {"a": 1, "b": 1.1, "p": 1, "q": 1.5}))
        for t in np.linspace(*z.domain, 41):
            assert abs(derivative_inner(z, 0, z, 0, t, t)) < 1e-9
            assert abs(derivative_inner(z, 2, z, 2, t, t) - 4.0) < 1e-9
            assert np.max(np.abs(z.at(t, 3) - 2 * z.at(t, 1))) > 1e-9

    def test_ex72_structural_orthogonality(self):
        z, w = make_example(ParamFamily("Ex7_2", {"p": 3, "q": 1.5, "r": 1}))
        for t in np.linspace(-1.1, 1.1, 21):
            # identities hold to relative precision; scale by operand size
            def rel(k1, k2, c1=z, c2=z):
                scale = 1.0 + np.max(np.abs(c1.at(t, k1))) * np.max(np.abs(c2.at(t, k2)))
                return abs(derivative_inner(c1, k1, c2, k2, t, t)) / scale

            assert rel(0, 0, z, w) < 1e-12        # <z, w> = 0
            assert rel(0, 3) < 1e-12              # <z, z'''> = 0
            assert rel(1, 3) < 1e-12              # <z', z'''> = 0
            assert rel(2, 2) < 1e-12              # <z'', z''> = 0
            assert rel(2, 2, w, w) < 1e-12        # <w'', w''> = 0

    def test_ex72_chain_params_violate_radicand(self):
        # parameters satisfying the quoted chain make one radicand
        # negative, always; spot-check the factory error on one such triple
        q, r = 1.5, 1.0
        mid = 80 + 189 * r**2 - 64 * q**2
        p = math.sqrt(0.5 * (mid / 78.75 + mid / 35.0))
        with pytest.raises(ConstraintViolationError) as exc:
            make_example(ParamFamily("Ex7_2", {"p": p, "q": q, "r": r}))
        assert exc.value.radicand == "315p^2+1024q^2-3024r^2-1280"

    def test_chain_always_violates_radicand(self):
        rng = np.random.default_rng(42)
        count = 0
        while count < 300:
            q, r = rng.uniform(0.05, 3.0, 2)
            mid = 80 + 189 * r**2 - 64 * q**2
            if mid <= 0:
                continue
            p2 = rng.uniform(mid / 78.75, mid / 35.0)
            count += 1
            assert 315 * p2 + 1024 * q**2 - 3024 * r**2 - 1280 < 0

    def test_radicand_valid_params_violate_chain(self):
        report = validate_family(ParamFamily("Ex7_2", {"p": 3, "q": 1.5, "r": 1}))
        assert report.ok
        assert not report.chain_ok

    def test_zero_denominator_named_as_denominator(self):
        fam = fam71(q=2, r=2)
        assert validate_family(fam).failures == ["denominator r^2-q^2 not positive (= 0)"]
        with pytest.raises(ConstraintViolationError) as exc:
            make_example(fam)
        assert exc.value.radicand == "r^2-q^2"
        assert str(exc.value) == "denominator r^2-q^2 is not positive (= 0)"

    def test_ex71_chain_advisory(self):
        report = validate_family(fam71())
        assert report.ok and report.chain_ok
        assert set(report.denominators) == {"r^2-q^2"}

    def test_nonpositive_parameter(self):
        with pytest.raises(InvalidInputError):
            make_example(ParamFamily("Ex7_1", {"a": -1, "p": 3, "q": 1, "r": 2}))

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            ParamFamily("Ex9_9", {})

    def test_wrong_param_names(self):
        with pytest.raises(InvalidInputError):
            ParamFamily("Ex7_1", {"a": 1, "b": 3, "q": 1, "r": 2})

    def test_reference_parameters_accepted(self):
        report = validate_family(ParamFamily("Ex8_2", REF_82))
        assert report.ok and report.chain_ok
        z, w = make_example(ParamFamily("Ex8_2", REF_82))
        assert z.signature == Signature(14, 8) == w.signature

    def test_signatures(self):
        assert make_example(fam71()).signature == Signature(7, 3)
        z, w = make_example(ParamFamily("Ex7_2", {"p": 3, "q": 1.5, "r": 1}))
        assert z.signature == Signature(14, 6)
        z8 = make_example(ParamFamily("Ex8_1", {"a": 1, "b": 1.1, "p": 1, "q": 1.5}))
        assert z8.signature == Signature(8, 4)


class TestTypoVariants:
    def test_ex81_alt_pairing_fails_light_cone(self):
        params = {"a": 1, "b": 1.2, "p": 1.2, "q": 1.5}
        good = make_example(ParamFamily("Ex8_1", params))
        bad = make_example(ParamFamily("Ex8_1", params), alt_pairing=True)
        assert abs(derivative_inner(good, 0, good, 0, 0.5, 0.5)) < 1e-9
        assert abs(derivative_inner(bad, 0, bad, 0, 0.5, 0.5)) > 1e-2

    def test_ex81_variants_coincide_at_p_equal_1(self):
        params = {"a": 1, "b": 1.1, "p": 1, "q": 1.5}
        good = make_example(ParamFamily("Ex8_1", params))
        bad = make_example(ParamFamily("Ex8_1", params), alt_pairing=True)
        np.testing.assert_allclose(good.at(0.7), bad.at(0.7))

    def test_ex82_alt_pairing_fails_light_cone(self):
        params = {"a": 0.6, "b": 0.7, "p": 1.15, "q": 1.45, "r": 1.2, "s": 1.3}
        assert validate_family(ParamFamily("Ex8_2", params)).ok
        _, w_good = make_example(ParamFamily("Ex8_2", params))
        _, w_bad = make_example(ParamFamily("Ex8_2", params), alt_pairing=True)
        assert abs(derivative_inner(w_good, 0, w_good, 0, 0.5, 0.5)) < 1e-9
        assert abs(derivative_inner(w_bad, 0, w_bad, 0, 0.5, 0.5)) > 1e-3


class TestSeededPairs:
    @pytest.mark.parametrize("flavor", PAIR_FLAVORS)
    def test_pairs_are_null_with_negative_pairing(self, flavor):
        rng = np.random.default_rng(11)
        z, w, constant = seeded_null_pair(rng, flavor)
        assert null_check(z).passed and null_check(w).passed
        vals = [
            derivative_inner(z, 1, w, 1, x, y)
            for x in np.linspace(-1, 1, 9)
            for y in np.linspace(-1, 1, 9)
        ]
        assert max(vals) < 0
        if constant:
            assert max(vals) - min(vals) < 1e-12
        else:
            assert max(vals) - min(vals) > 1e-3
