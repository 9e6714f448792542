"""Pseudo-Euclidean linear algebra.

The space E^m_s carries the indefinite inner product

    <u, v> = -(u_1 v_1 + ... + u_s v_s) + u_{s+1} v_{s+1} + ... + u_m v_m,

i.e. the s timelike coordinates come first.  On top of that sit the two
hyperquadrics of unit curvature,

    S^k_s(1)  = { x in E^{k+1}_s     : <x,x> =  1 }   (pseudo-sphere)
    H^k_s(-1) = { x in E^{k+1}_{s+1} : <x,x> = -1 }   (pseudo-hyperbolic)

and the light cone { x : <x,x> = 0 }.  ``indefinite_dot`` evaluates the
product on numpy arrays of vectors; ``Ambient`` names the space form a
surface maps into.  Everything here is an immutable value or a pure
function, safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Signature",
    "AmbientKind",
    "Ambient",
    "indefinite_dot",
]


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
    axes; a float for two vectors.  The product is made contiguous, so
    each node sums in one order whatever the layout and its position."""
    a = np.asarray(a)
    return np.matmul(np.ascontiguousarray(a * b), _metric_diagonal(a.shape[-1], index))


class AmbientKind(enum.Enum):
    FLAT = "flat"
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Ambient:
    """One of the three constant-curvature ambients a surface can map into.

    ``surface_signature`` describes the space form itself (its dimension
    and index); ``embedding_signature`` the flat space carrying it.  For
    the flat ambient the two coincide; the pseudo-sphere S^k_s sits in
    E^{k+1}_s and the pseudo-hyperbolic space H^k_s in E^{k+1}_{s+1}.
    The curvature and the embedding signature follow from the kind.
    """

    kind: AmbientKind
    surface_signature: Signature

    @property
    def curvature(self) -> float:
        """c = 0, 1 or -1 for the flat, pseudo-sphere and pseudo-hyperbolic kinds."""
        return {AmbientKind.FLAT: 0.0, AmbientKind.SPHERE: 1.0,
                AmbientKind.HYPERBOLIC: -1.0}[self.kind]

    @property
    def embedding_signature(self) -> Signature:
        if self.kind is AmbientKind.FLAT:
            return self.surface_signature
        k, s = self.surface_signature.dim, self.surface_signature.index
        return Signature(k + 1, s + (self.kind is AmbientKind.HYPERBOLIC))

    @classmethod
    def flat(cls, signature: Signature) -> "Ambient":
        return cls(AmbientKind.FLAT, signature)

    @classmethod
    def sphere(cls, surface_signature: Signature) -> "Ambient":
        return cls(AmbientKind.SPHERE, surface_signature)

    @classmethod
    def hyperbolic(cls, surface_signature: Signature) -> "Ambient":
        return cls(AmbientKind.HYPERBOLIC, surface_signature)

    def describe(self) -> str:
        """E^k_s, S^k_s(1) in E^{k+1}_s or H^k_s(-1) in E^{k+1}_{s+1}."""
        if self.kind is AmbientKind.FLAT:
            return str(self.surface_signature)
        k, s = self.surface_signature.dim, self.surface_signature.index
        name = "S" if self.kind is AmbientKind.SPHERE else "H"
        return f"{name}^{k}_{s}({self.curvature:g}) in {self.embedding_signature}"
