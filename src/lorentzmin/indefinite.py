"""Pseudo-Euclidean linear algebra.

The space E^m_s carries the indefinite inner product

    <u, v> = -(u_1 v_1 + ... + u_s v_s) + u_{s+1} v_{s+1} + ... + u_m v_m,

i.e. the s timelike coordinates come first.  On top of that sit the two
hyperquadrics of unit curvature,

    S^k_s(1)  = { x in E^{k+1}_s     : <x,x> =  1 }   (pseudo-sphere)
    H^k_s(-1) = { x in E^{k+1}_{s+1} : <x,x> = -1 }   (pseudo-hyperbolic)

and the light cone { x : <x,x> = 0 }.  Everything here is an immutable
value; every operation is a pure function and safe to share across
threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import InvalidInputError, SignatureMismatchError

__all__ = [
    "Signature",
    "PseudoVector",
    "AmbientKind",
    "Ambient",
    "CausalCharacter",
    "inner",
    "indefinite_dot",
    "causal_character",
    "quadric_residual",
    "light_cone_residual",
]

DEFAULT_CAUSAL_TOL = 1e-9


@dataclass(frozen=True)
class Signature:
    """Dimension m and index s (number of timelike coordinates) of E^m_s."""

    dim: int
    index: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError(f"dim must be positive, got {self.dim}")
        if not 0 <= self.index <= self.dim:
            raise InvalidInputError(
                f"index must lie in [0, {self.dim}], got {self.index}"
            )

    def __str__(self):
        return f"E^{self.dim}_{self.index}"


@lru_cache(maxsize=None)
def _metric_diagonal(dim: int, index: int) -> np.ndarray:
    d = np.ones(dim)
    d[:index] = -1.0
    d.setflags(write=False)
    return d


def indefinite_dot(a: np.ndarray, b: np.ndarray, index: int):
    """<a, b> over the last axis of raw arrays, broadcasting the leading
    axes; a float for two vectors.  The fast path of the geometry layers."""
    a = np.asarray(a)
    return np.matmul(a * b, _metric_diagonal(a.shape[-1], index))


@dataclass(frozen=True)
class PseudoVector:
    """A coordinate vector of E^m_s together with its signature."""

    components: np.ndarray
    signature: Signature

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        if comps.ndim != 1 or len(comps) != self.signature.dim:
            raise InvalidInputError(
                f"expected {self.signature.dim} components, got shape {comps.shape}"
            )
        comps = comps.copy()
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)

    @classmethod
    def of(cls, components: Iterable[float], signature: Signature) -> "PseudoVector":
        return cls(np.asarray(list(components), dtype=float), signature)


class AmbientKind(enum.Enum):
    FLAT = "flat"
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"


class CausalCharacter(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


@dataclass(frozen=True)
class Ambient:
    """One of the three constant-curvature ambients a surface can map into.

    ``surface_signature`` describes the space form itself (its dimension
    and index); ``embedding_signature`` the flat space carrying it.  For
    the flat ambient the two coincide; the pseudo-sphere S^k_s sits in
    E^{k+1}_s and the pseudo-hyperbolic space H^k_s in E^{k+1}_{s+1}.
    """

    kind: AmbientKind
    surface_signature: Signature
    curvature: float
    embedding_signature: Signature = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        expected = {
            AmbientKind.FLAT: (0.0, self.surface_signature),
            AmbientKind.SPHERE: (
                1.0,
                Signature(self.surface_signature.dim + 1, self.surface_signature.index),
            ),
            AmbientKind.HYPERBOLIC: (
                -1.0,
                Signature(self.surface_signature.dim + 1, self.surface_signature.index + 1),
            ),
        }[self.kind]
        if self.embedding_signature is None:
            object.__setattr__(self, "embedding_signature", expected[1])
        if self.curvature != expected[0] or self.embedding_signature != expected[1]:
            raise InvalidInputError(
                f"inconsistent ambient: kind={self.kind}, c={self.curvature}, "
                f"embedding={self.embedding_signature}"
            )

    @classmethod
    def flat(cls, signature: Signature) -> "Ambient":
        return cls(AmbientKind.FLAT, signature, 0.0)

    @classmethod
    def sphere(cls, surface_signature: Signature) -> "Ambient":
        return cls(AmbientKind.SPHERE, surface_signature, 1.0)

    @classmethod
    def hyperbolic(cls, surface_signature: Signature) -> "Ambient":
        return cls(AmbientKind.HYPERBOLIC, surface_signature, -1.0)

    def describe(self) -> str:
        k, s = self.surface_signature.dim, self.surface_signature.index
        return {
            AmbientKind.FLAT: f"E^{k}_{s}",
            AmbientKind.SPHERE: f"S^{k}_{s}(1) in E^{k + 1}_{s}",
            AmbientKind.HYPERBOLIC: f"H^{k}_{s}(-1) in E^{k + 1}_{s + 1}",
        }[self.kind]


def inner(u: PseudoVector, v: PseudoVector) -> float:
    """Indefinite inner product; raises on signature mismatch."""
    if u.signature != v.signature:
        raise SignatureMismatchError(
            f"signatures differ: {u.signature} vs {v.signature}"
        )
    return indefinite_dot(u.components, v.components, u.signature.index)


def causal_character(
    v: PseudoVector, tol: float = DEFAULT_CAUSAL_TOL
) -> CausalCharacter:
    """Classify v as spacelike / timelike / lightlike / zero.

    Lightlike means <v,v> vanishes (within tol) while v itself does not;
    the classification is scale-invariant for vectors whose |<v,v>|
    clears tol before and after scaling.
    """
    if tol < 0:
        raise InvalidInputError(f"tol must be >= 0, got {tol}")
    vv = inner(v, v)
    if vv > tol:
        return CausalCharacter.SPACELIKE
    if vv < -tol:
        return CausalCharacter.TIMELIKE
    if np.max(np.abs(v.components)) > tol:
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.ZERO


def quadric_residual(x: PseudoVector, ambient: Ambient) -> float:
    """<x,x> - 1/c: zero exactly when x lies on the ambient hyperquadric."""
    if ambient.kind is AmbientKind.FLAT:
        raise InvalidInputError("flat ambient carries no quadric")
    if x.signature != ambient.embedding_signature:
        raise SignatureMismatchError(
            f"expected embedding signature {ambient.embedding_signature}, "
            f"got {x.signature}"
        )
    return inner(x, x) - 1.0 / ambient.curvature


def light_cone_residual(x: PseudoVector) -> float:
    """<x,x>: zero exactly when x lies on the light cone."""
    return inner(x, x)
