import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import assert_integer_bound, random_weights
from reebspec import Ellipsoid, HypothesisViolation
from reebspec.homology import (
    DegreeVector,
    compare,
    first_difference,
    sh_dims_formula,
    sh_dims_gutt,
)
from reebspec.partitions import verify_partition


# ---------------------------------------------------------------------------
# the closed formula side
# ---------------------------------------------------------------------------

def test_formula_examples():
    assert sh_dims_formula(2, 9).support() == [(3, 1), (5, 1), (7, 1), (9, 1)]
    assert sh_dims_formula(3, 8).support() == [(4, 1), (6, 1), (8, 1)]
    assert sh_dims_formula(1, 1).support() == []


def test_formula_validation():
    with pytest.raises(ValueError):
        sh_dims_formula(0, 5)
    with pytest.raises(ValueError):
        sh_dims_formula(2, -1)


@pytest.mark.parametrize("entry", [lambda e, k: sh_dims_formula(e.m, k), sh_dims_gutt, compare],
                         ids=["sh_dims_formula", "sh_dims_gutt", "compare"])
def test_k_max_must_be_an_integer(e3, entry):
    assert_integer_bound(lambda k: entry(e3, k))


def test_m_must_be_an_integer():
    # m is a count: a float is refused before it becomes a slice start
    assert_integer_bound(lambda m: sh_dims_formula(m, 10), value=1)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sh_dims_formula(Fraction(1), 10)


def test_degree_vector_window():
    vec = sh_dims_formula(2, 9)
    assert vec.multiplicity(3) == 1
    assert vec.multiplicity(4) == 0
    with pytest.raises(ValueError):
        vec.multiplicity(10)
    with pytest.raises(ValueError):
        vec.multiplicity(-1)


def test_degree_vector_reads_integers():
    # a float degree, multiplicity or window is refused, not truncated
    assert_integer_bound(lambda k_max: DegreeVector(k_max))
    assert_integer_bound(lambda k: sh_dims_formula(2, 11).multiplicity(k), value=5)

    def added(k=4, mult=1):
        vec = DegreeVector(10)
        vec.add(k, mult)
        return vec.support()

    assert_integer_bound(lambda k: added(k=k))
    assert_integer_bound(lambda mult: added(mult=mult))
    assert added(4, 2) == [(4, 2)] and added(4, 0) == []


def test_degree_vector_refuses_negative_windows_and_multiplicities():
    with pytest.raises(ValueError, match="k_max must be >= 0, got -1"):
        DegreeVector(-1)
    assert DegreeVector(0).support() == []
    vec = sh_dims_formula(2, 9)
    with pytest.raises(ValueError, match="multiplicity must be >= 0, got -3"):
        vec.add(5, -3)
    assert vec == sh_dims_formula(2, 9)
    with pytest.raises(ValueError, match="needs 4 counts, each >= 0"):
        DegreeVector(3, np.array([0, 1, -1, 0], np.int64))


@pytest.mark.parametrize("counts", [
    np.array([0.0, 0.0, 0.0, 1.5]),
    np.array([False, True, False, True]),
    np.array([0, 0, 0, 127], np.int8),   # add(3) would wrap to -128
    [0, 0, 0, 1],
    (0, 0, 0, 1),
], ids=["float", "bool", "int8", "list", "tuple"])
def test_degree_vector_counts_must_be_an_int64_array(counts):
    with pytest.raises(TypeError, match="counts must be an int64 ndarray"):
        DegreeVector(3, counts)


@pytest.mark.parametrize("counts", [np.zeros(3, np.int64), np.zeros((1, 4), np.int64)],
                         ids=["short", "2-d"])
def test_degree_vector_counts_must_fill_the_window(counts):
    with pytest.raises(ValueError, match=r"\[0, 3\] needs 4 counts"):
        DegreeVector(3, counts)


def test_degree_vector_keeps_its_counts_array():
    counts = np.array([0, 0, 0, 1], np.int64)
    vec = DegreeVector(3, counts)
    assert vec.counts is counts and vec.support() == [(3, 1)]


# ---------------------------------------------------------------------------
# the orbit-counting side
# ---------------------------------------------------------------------------

def test_gutt_examples(e2, e3):
    assert sh_dims_gutt(e2, 9).support() == [(3, 1), (5, 1), (7, 1), (9, 1)]
    assert sh_dims_gutt(e3, 6).support() == [(4, 1), (6, 1)]


def test_support_rows_are_the_support_as_an_array(e2):
    vec = sh_dims_gutt(e2, 9)
    vec.add(4, 2)
    rows = vec.support_rows()
    assert rows.dtype == np.int64 and rows.shape == (5, 2)
    assert list(map(tuple, rows.tolist())) == vec.support() == [
        (3, 1), (4, 2), (5, 1), (7, 1), (9, 1)]
    empty = sh_dims_gutt(e2, e2.m).support_rows()
    assert empty.dtype == np.int64 and empty.shape == (0, 2)


def test_gutt_below_minimal_degree(e2, e3):
    assert sh_dims_gutt(e2, e2.m).support() == []
    assert sh_dims_gutt(e3, e3.m).support() == []


def test_gutt_multiplicity_at_most_one():
    rng = random.Random(47)
    for _ in range(8):
        e = Ellipsoid(random_weights(rng, rng.choice((2, 5)), rng.randint(1, 3)))
        vec = sh_dims_gutt(e, 400)
        assert all(mult <= 1 for _, mult in vec.support())


def test_gutt_propagates_hypothesis(ctx2):
    with pytest.raises(HypothesisViolation):
        Ellipsoid([ctx2.element(1), ctx2.element(3)])


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_compare_equal(e2, e3):
    assert compare(e2, 201).equal
    assert compare(e3, 202).equal


def test_degree_vectors_compare_by_value(e2):
    assert sh_dims_gutt(e2, 41) == sh_dims_formula(e2.m, 41)
    assert sh_dims_formula(e2.m, 41) != sh_dims_formula(e2.m, 43)
    shifted = sh_dims_formula(e2.m, 41)
    shifted.add(4)
    assert shifted != sh_dims_formula(e2.m, 41)


def test_window_mismatch_rejected():
    with pytest.raises(ValueError):
        first_difference(sh_dims_formula(2, 9), sh_dims_formula(2, 11))


def test_fault_injection_reports_first_difference(e2):
    formula = sh_dims_formula(e2.m, 41)
    corrupted = sh_dims_gutt(e2, 41)
    corrupted.add(7)  # duplicate generator in degree 7
    diff = first_difference(formula, corrupted)
    assert diff == (7, 1, 2)


def test_fault_injection_detects_missing_degree(e2):
    formula = sh_dims_formula(e2.m, 41)
    broken = sh_dims_gutt(e2, 41)
    broken.counts[9] = 0
    assert first_difference(formula, broken) == (9, 1, 0)


def test_equivalence_bridge():
    # sh-compare verdict and partition verdict must agree, tuple by tuple
    rng = random.Random(58)
    for _ in range(8):
        weights = random_weights(rng, rng.choice((2, 5)), rng.randint(1, 3))
        e = Ellipsoid(weights)
        n = 120
        sh_equal = compare(e, e.m - 1 + 2 * n).equal
        tiles = verify_partition(weights, n).ok
        assert sh_equal == tiles
        assert sh_equal  # both verdicts are affirmative: the theorem holds


def test_bridge_degree_arithmetic(e3):
    # orbit of Tamura element t lands in degree m - 1 + 2t: the vectors
    # correspond exactly on the shared ladder
    n = 40
    vec = sh_dims_gutt(e3, e3.m - 1 + 2 * n)
    report = verify_partition(list(e3.weights), n, collect_owners=True)
    covered = {k for k, mult in vec.support() if mult == 1}
    expected = {e3.m - 1 + 2 * t for t in range(1, n + 1) if report.owners[t]}
    assert covered == expected
