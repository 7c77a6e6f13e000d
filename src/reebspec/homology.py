"""Degree-dimension bookkeeping for positive S^1-equivariant symplectic
homology of star-shaped domains.

Two independent routes to the same degree pattern:

  * the closed formula: dimension 1 exactly in degrees m + 2j - 1 for
    j = 1, 2, ..., and 0 elsewhere;
  * orbit counting: one generator per good geometrically distinct Reeb
    orbit in its Conley-Zehnder degree, licensed by the lacunarity of the
    index set (both hypotheses are re-checked, as a regression guard).

Their agreement on [0, m - 1 + 2N] is equivalent to the Tamura sets of the
same weights tiling [1..N]; `compare` reports equality or the first
differing degree.  A DegreeVector is an int64 array of multiplicities over
its whole window: the formula fills every other slot, orbit counting is a
bincount of the indices, and the first difference is the first slot where
the two arrays differ.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .ellipsoid import _spectrum_columns, check_goodness_and_lacunarity

__all__ = [
    "DegreeVector",
    "sh_dims_formula",
    "sh_dims_gutt",
    "first_difference",
    "compare",
    "ShComparison",
]


@dataclass
class DegreeVector:
    """Multiplicities per degree over the closed window [0, k_max].

    counts[k] is the multiplicity in degree k, an int64 array of length
    k_max + 1 (zeros when not given).  Degrees outside the window are
    undefined, not zero; comparisons must use matching windows.
    """

    k_max: int
    counts: np.ndarray = None

    def __post_init__(self):
        self.k_max = operator.index(self.k_max)
        if self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")
        if self.counts is None:
            self.counts = np.zeros(self.k_max + 1, dtype=np.int64)
        if not isinstance(self.counts, np.ndarray) or self.counts.dtype != np.int64:
            raise TypeError(f"counts must be an int64 ndarray, got {type(self.counts)}")
        if self.counts.shape != (self.k_max + 1,) or (self.counts < 0).any():
            raise ValueError(f"[0, {self.k_max}] needs {self.k_max + 1} counts, each >= 0")

    def __eq__(self, other):
        if not isinstance(other, DegreeVector):
            return NotImplemented
        return self.k_max == other.k_max and np.array_equal(self.counts, other.counts)

    def _check(self, k):
        if not 0 <= operator.index(k) <= self.k_max:
            raise ValueError(f"degree {k} outside window [0, {self.k_max}]")
        return operator.index(k)

    def multiplicity(self, k):
        return int(self.counts[self._check(k)])

    def support_rows(self):
        """support() as a (k, 2) int64 array of (degree, multiplicity) rows."""
        degrees = np.flatnonzero(self.counts)
        return np.column_stack((degrees, self.counts[degrees]))

    def support(self):
        """Sorted (degree, multiplicity) pairs with nonzero multiplicity."""
        return list(map(tuple, self.support_rows().tolist()))

    def add(self, k, mult=1):
        if operator.index(mult) < 0:
            raise ValueError(f"multiplicity must be >= 0, got {mult}")
        self.counts[self._check(k)] += operator.index(mult)


def sh_dims_formula(m, k_max):
    """Dimension 1 at k = m + 2j - 1 for j >= 1, else 0, on [0, k_max]."""
    m = operator.index(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    vec = DegreeVector(k_max)
    vec.counts[m + 1::2] = 1
    return vec


def sh_dims_gutt(e, k_max):
    """Dimensions by counting good distinct Reeb orbits per degree: once the
    guard licenses it, the bincount of the cz column of spectrum(e, k_max)."""
    k_max = operator.index(k_max)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    guard = check_goodness_and_lacunarity(e, k_max)
    if not guard.passed:
        # cannot happen for irrational ellipsoids; guards against regressions
        raise RuntimeError(f"orbit counting not licensed: good={guard.all_good}, "
                           f"lacunary={guard.lacunary}")
    del guard  # its index list holds one Python int per degree
    (degrees,) = _spectrum_columns(e, k_max, ("cz",))
    return DegreeVector(k_max, np.bincount(degrees, minlength=k_max + 1))


def first_difference(v1, v2):
    """Smallest degree where the vectors differ, with both multiplicities."""
    if v1.k_max != v2.k_max:
        raise ValueError(
            f"window mismatch: [0, {v1.k_max}] vs [0, {v2.k_max}]")
    differ = np.flatnonzero(v1.counts != v2.counts)
    if not differ.size:
        return None
    k = int(differ[0])
    return (k, int(v1.counts[k]), int(v2.counts[k]))


@dataclass
class ShComparison:
    m: int
    k_max: int
    formula: DegreeVector
    orbits: DegreeVector
    first_difference: tuple | None

    @property
    def equal(self):
        return self.first_difference is None


def compare(e, k_max):
    """Match orbit counting against the closed formula on [0, k_max].

    Equality is exactly the statement that the Tamura sets of the weights
    tile the degree ladder with multiplicity one.
    """
    formula = sh_dims_formula(e.m, k_max)
    orbits = sh_dims_gutt(e, k_max)
    return ShComparison(
        m=e.m, k_max=formula.k_max, formula=formula, orbits=orbits,
        first_difference=first_difference(formula, orbits),
    )
