import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzmin.errors import InvalidInputError
from lorentzmin.indefinite import Ambient, Signature, indefinite_dot

E21 = Signature(2, 1)
E42 = Signature(4, 2)


def dot(u, v, sig):
    return indefinite_dot(np.asarray(u, dtype=float), np.asarray(v, dtype=float), sig.index)


# independent evaluation of the first sphere-family example curve, written
# straight from the coefficient formulas (no lorentzmin.curves involved)
def example_curve_71(t, a=1.0, p=3.0, q=1.0, r=2.0):
    d = math.sqrt(r**2 - q**2)
    c2 = math.sqrt(4 * r**2 + a**2 * p**2 * (p**2 - r**2)) / (q * d)
    c3 = math.sqrt(4 * q**2 + a**2 * p**2 * (p**2 - q**2)) / (r * d)
    c4 = math.sqrt(4 * (q**2 + r**2) + a**2 * (p**2 - r**2) * (p**2 - q**2)) / (q * r)
    return np.array([
        a * math.cosh(p * t), c2 * math.cosh(q * t), c3 * math.sinh(r * t),
        a * math.sinh(p * t), c2 * math.sinh(q * t), c3 * math.cosh(r * t), c4,
    ])


def example_curve_71_d1(t, a=1.0, p=3.0, q=1.0, r=2.0):
    d = math.sqrt(r**2 - q**2)
    c2 = math.sqrt(4 * r**2 + a**2 * p**2 * (p**2 - r**2)) / (q * d)
    c3 = math.sqrt(4 * q**2 + a**2 * p**2 * (p**2 - q**2)) / (r * d)
    return np.array([
        a * p * math.sinh(p * t), c2 * q * math.sinh(q * t), c3 * r * math.cosh(r * t),
        a * p * math.cosh(p * t), c2 * q * math.cosh(q * t), c3 * r * math.sinh(r * t), 0.0,
    ])


class TestSignature:
    def test_valid(self):
        s = Signature(7, 3)
        assert s.dim == 7 and s.index == 3
        assert str(s) == "E^7_3"

    @pytest.mark.parametrize("dim,index", [(0, 0), (3, -1), (3, 4)])
    def test_invalid(self, dim, index):
        with pytest.raises(InvalidInputError):
            Signature(dim, index)


class TestInner:
    def test_orthogonal_basis_vectors(self):
        assert dot([1, 0], [0, 1], E21) == 0.0

    def test_null_diagonal(self):
        assert dot([1, 1], [1, 1], E21) == 0.0

    def test_e42_value(self):
        u = [1, 2, 3, 4]
        assert dot(u, u, E42) == pytest.approx(-1 - 4 + 9 + 16)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def signature_and_vectors(draw, count=2, elements=finite):
    dim = draw(st.integers(min_value=1, max_value=8))
    index = draw(st.integers(min_value=0, max_value=dim))
    sig = Signature(dim, index)
    vecs = [
        np.array([draw(elements) for _ in range(dim)]) for _ in range(count)
    ]
    return sig, vecs


class TestInnerProperties:
    @given(signature_and_vectors(count=3), finite, finite)
    @settings(max_examples=100)
    def test_bilinearity(self, data, alpha, beta):
        sig, (u, w, v) = data
        lhs = dot(alpha * u + beta * w, v, sig)
        rhs = alpha * dot(u, v, sig) + beta * dot(w, v, sig)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-12

    @given(signature_and_vectors(count=2))
    @settings(max_examples=100)
    def test_symmetry(self, data):
        sig, (u, v) = data
        assert dot(u, v, sig) == dot(v, u, sig)

    @given(st.lists(finite, min_size=1, max_size=8))
    def test_euclidean_reduction(self, comps):
        sig = Signature(len(comps), 0)
        assert dot(comps, comps, sig) == pytest.approx(float(np.dot(comps, comps)), rel=1e-12)


class TestAmbient:
    def test_flat(self):
        amb = Ambient.flat(E42)
        assert amb.curvature == 0.0
        assert amb.embedding_signature == E42

    def test_sphere_embedding(self):
        amb = Ambient.sphere(Signature(6, 3))
        assert amb.curvature == 1.0
        assert amb.embedding_signature == Signature(7, 3)
        assert "S^6_3(1)" in amb.describe()

    def test_hyperbolic_embedding(self):
        amb = Ambient.hyperbolic(Signature(7, 3))
        assert amb.curvature == -1.0
        assert amb.embedding_signature == Signature(8, 4)


class TestQuadricResidual:
    def test_sphere_family_surface_point(self):
        # L(0.3, 0.5) of the first sphere-family construction, evaluated
        # by the inline oracle above, lies on <x,x> = 1
        x, y = 0.3, 0.5
        L = example_curve_71(x) / (x + y) - example_curve_71_d1(x) / 2
        amb = Ambient.sphere(Signature(6, 3))
        assert abs(dot(L, L, amb.embedding_signature) - 1 / amb.curvature) < 1e-9


class TestLightConeResidual:
    def test_example_curve_point(self):
        z = example_curve_71(0.7)
        assert abs(dot(z, z, Signature(7, 3))) < 1e-9
