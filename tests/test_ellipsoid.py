import random
from fractions import Fraction

import pytest

import reebspec.ellipsoid as ell
from helpers import random_weights
from reebspec import (
    Ellipsoid,
    FieldContext,
    HypothesisViolation,
    check_goodness_and_lacunarity,
    cross_check_index,
    orbit_index,
    spectrum,
)
from reebspec.errors import FlatCrossingError
from reebspec.partitions import TamuraFamily


# ---------------------------------------------------------------------------
# construction and hypothesis
# ---------------------------------------------------------------------------

def test_weights_must_be_positive(ctx2):
    with pytest.raises(ValueError):
        Ellipsoid([ctx2.element(1), ctx2.element(0)])
    with pytest.raises(ValueError):
        Ellipsoid([ctx2.element(1) - ctx2.sqrt_d()])


def test_hypothesis_flag(e2, ctx2):
    assert e2.hypothesis_ok
    rational = Ellipsoid([ctx2.element(1), ctx2.element(2)])
    assert not rational.hypothesis_ok
    with pytest.raises(HypothesisViolation) as info:
        orbit_index(rational, 1, 1)
    assert info.value.ratio == ctx2.element(Fraction(1, 2))


def test_violation_matches_tamura_family(ctx2, ctx5):
    # the deferred violation carries the pair and ratio TamuraFamily reports
    for weights in ([ctx2.element(1), ctx2.element(2)],
                    [ctx2.element(1, 1), ctx2.sqrt_d(), ctx2.element(2, 2)],
                    [ctx5.sqrt_d(), ctx5.element(3), ctx5.element(0, Fraction(2, 3))]):
        with pytest.raises(HypothesisViolation) as expected:
            TamuraFamily(weights)
        e = Ellipsoid(weights)
        for _ in range(2):
            with pytest.raises(HypothesisViolation) as info:
                e.require_hypothesis()
            got, want = info.value, expected.value
            assert (got.j, got.k, got.ratio) == (want.j, want.k, want.ratio)


def test_index_formula_refused_without_hypothesis(ctx2):
    # parallel pair: (2+2sqrt2)/(1+sqrt2) = 2 is rational
    bad = Ellipsoid([ctx2.element(1, 1), ctx2.element(2, 2)])
    with pytest.raises(HypothesisViolation):
        spectrum(bad, 10)


# ---------------------------------------------------------------------------
# the index formula
# ---------------------------------------------------------------------------

def test_orbit_index_examples(e2, e3):
    assert orbit_index(e2, 1, 1) == 3
    assert orbit_index(e2, 2, 1) == 5
    assert orbit_index(e3, 1, 1) == 4


def test_orbit_index_validation(e2):
    with pytest.raises(ValueError):
        orbit_index(e2, 0, 1)
    with pytest.raises(ValueError):
        orbit_index(e2, 3, 1)
    with pytest.raises(ValueError):
        orbit_index(e2, 1, 0)


def test_index_monotone_in_iterates():
    rng = random.Random(31)
    for _ in range(10):
        e = Ellipsoid(random_weights(rng, rng.choice((2, 5)), rng.randint(1, 3)))
        for j in range(1, e.m + 1):
            prev = orbit_index(e, j, 1)
            for n in range(2, 30):
                cur = orbit_index(e, j, n)
                assert cur >= prev + 2
                prev = cur


def test_index_parity():
    rng = random.Random(32)
    for _ in range(10):
        e = Ellipsoid(random_weights(rng, rng.choice((2, 5)), rng.randint(1, 4)))
        for j in range(1, e.m + 1):
            for n in (1, 2, 7, 19):
                assert orbit_index(e, j, n) % 2 == (e.m - 1) % 2


def test_index_injective_over_window():
    rng = random.Random(33)
    for _ in range(10):
        e = Ellipsoid(random_weights(rng, rng.choice((2, 5)), rng.randint(2, 3)))
        orbits = spectrum(e, 300)
        indices = [o.cz for o in orbits]
        assert len(indices) == len(set(indices))


# ---------------------------------------------------------------------------
# spectrum enumeration
# ---------------------------------------------------------------------------

def test_spectrum_example(e2):
    assert [(o.j, o.n, o.cz) for o in spectrum(e2, 7)] == [
        (1, 1, 3), (2, 1, 5), (1, 2, 7)]


def test_spectrum_single_weight(ctx5):
    e = Ellipsoid([ctx5.element(1)])
    assert [(o.j, o.n, o.cz) for o in spectrum(e, 5)] == [(1, 1, 2), (1, 2, 4)]


def test_spectrum_below_minimal_degree_is_empty(e2, e3):
    # the minimal degree is m + 1
    assert spectrum(e2, e2.m) == []
    assert spectrum(e3, e3.m) == []


def test_spectrum_sorted_and_complete(e3):
    orbits = spectrum(e3, 60)
    czs = [o.cz for o in orbits]
    assert czs == sorted(czs)
    # every orbit with index within the bound is present
    for j in range(1, e3.m + 1):
        n = 1
        while True:
            cz = orbit_index(e3, j, n)
            if cz > 60:
                break
            assert (j, n, cz) in [(o.j, o.n, o.cz) for o in orbits]
            n += 1


def test_spectrum_matches_brute_force():
    # every (j, n) that can reach the bound (cz >= m - 1 + 2n, since the
    # k = j floor alone is n), indexed one by one, filtered and sorted
    rng = random.Random(34)
    for m in range(1, 5):
        for _ in range(3):
            e = Ellipsoid(random_weights(rng, rng.choice((2, 5)), m))
            for k_max in (m - 1, m, m + 1, 2 * m + 7):
                expected = []
                for j in range(1, m + 1):
                    for n in range(1, (k_max - m + 1) // 2 + 1):
                        cz = orbit_index(e, j, n)
                        if cz <= k_max:
                            expected.append((cz, j, n))
                expected.sort()
                orbits = spectrum(e, k_max)
                assert [(o.cz, o.j, o.n) for o in orbits] == expected
                assert all(o.weight == e.weights[o.j - 1] for o in orbits)


def test_period_coefficient(e2):
    orbit = [o for o in spectrum(e2, 7) if (o.j, o.n) == (1, 2)][0]
    assert orbit.period_coefficient() == e2.weights[0] * 2


# ---------------------------------------------------------------------------
# goodness / lacunarity guard
# ---------------------------------------------------------------------------

def test_goodness_examples(e2, e3, ctx5):
    rep = check_goodness_and_lacunarity(e2, 41)
    assert rep.passed and rep.all_good and rep.lacunary
    assert all(k % 2 == 1 for k in rep.indices)

    rep = check_goodness_and_lacunarity(e3, 40)
    assert rep.passed
    assert all(k % 2 == 0 for k in rep.indices)

    rep = check_goodness_and_lacunarity(Ellipsoid([ctx5.element(1)]), 10)
    assert rep.passed
    assert rep.indices == [2, 4, 6, 8, 10]


# ---------------------------------------------------------------------------
# numeric cross-check
# ---------------------------------------------------------------------------

def test_cross_check_small_orbits(e2):
    for j, n, expected in ((1, 1, 3), (2, 1, 5), (1, 10, 35)):
        record = cross_check_index(e2, j, n)
        assert not record.inconclusive
        assert record.formula == expected
        assert record.numeric == expected
        assert record.agree


def test_cross_check_three_weights(e3):
    record = cross_check_index(e3, 3, 2)
    assert record.agree and record.formula == orbit_index(e3, 3, 2)


def test_cross_check_inconclusive_is_reported(e2, monkeypatch):
    def boom(path, **kwargs):
        raise FlatCrossingError("synthetic ambiguity")

    monkeypatch.setattr(ell, "cz_index", boom)
    record = cross_check_index(e2, 1, 1)
    assert record.inconclusive
    assert record.numeric is None and record.agree is None
    assert "synthetic" in record.note
