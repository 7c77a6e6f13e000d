import contextlib
import dataclasses
import gc
import math
import random
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reebspec.ellipsoid as ell
from helpers import (FRACTIONS, HUGE_D, assert_integer_bound, fresh_python, goodness_by_dicts,
                     merged_spectrum, random_weights)
from reebspec import (
    Ellipsoid,
    FieldContext,
    HypothesisViolation,
    check_goodness_and_lacunarity,
    cross_check_family,
    cross_check_index,
    czindex,
    orbit_index,
    spectrum,
)
from reebspec.errors import FlatCrossingError, NonIsolatedCrossingError
from reebspec.homology import sh_dims_gutt
from reebspec.partitions import TamuraFamily
from reebspec.quadfield import QuadIrrational, _near_fraction, pairwise_rational_ratio


# ---------------------------------------------------------------------------
# construction and hypothesis
# ---------------------------------------------------------------------------

def test_weights_must_be_positive(ctx2):
    with pytest.raises(ValueError):
        Ellipsoid([ctx2.element(1), ctx2.element(0)])
    with pytest.raises(ValueError):
        Ellipsoid([ctx2.element(1) - ctx2.sqrt_d()])


def test_hypothesis_flag(e2, ctx2):
    # an Ellipsoid is its weights' TamuraFamily, so a rational ratio raises
    # at construction
    assert isinstance(e2, TamuraFamily)
    with pytest.raises(HypothesisViolation) as info:
        Ellipsoid([ctx2.element(1), ctx2.element(2)])
    assert info.value.ratio == ctx2.element(Fraction(1, 2))


def test_violation_matches_tamura_family(ctx2, ctx5):
    # the violation carries the pair and ratio TamuraFamily reports
    for weights in ([ctx2.element(1), ctx2.element(2)],
                    [ctx2.element(1, 1), ctx2.sqrt_d(), ctx2.element(2, 2)],
                    [ctx5.sqrt_d(), ctx5.element(3), ctx5.element(0, Fraction(2, 3))]):
        with pytest.raises(HypothesisViolation) as expected:
            TamuraFamily(weights)
        with pytest.raises(HypothesisViolation) as info:
            Ellipsoid(weights)
        got, want = info.value, expected.value
        assert (got.j, got.k, got.ratio) == (want.j, want.k, want.ratio)


def test_index_formula_refused_without_hypothesis(ctx2):
    # parallel pair: (1+sqrt2)/(2+2sqrt2) = 1/2 is rational, so no Ellipsoid
    # exists to hand to spectrum
    with pytest.raises(HypothesisViolation) as info:
        Ellipsoid([ctx2.element(1, 1), ctx2.element(2, 2)])
    assert info.value.ratio == ctx2.element(Fraction(1, 2))


@settings(max_examples=80)
@given(d=st.sampled_from([2, 3, 5]),
       draws=st.lists(st.tuples(st.sampled_from((False, False, True)),
                                FRACTIONS, FRACTIONS.filter(bool)),
                      min_size=1, max_size=4))
def test_ellipsoid_is_the_tamura_family_of_its_weights(d, draws):
    # each weight is p + q*sqrt(d), or, when `multiple` is drawn (one time in
    # three), q times an earlier weight, whose ratio to it is rational
    weights = []
    for multiple, p, q in draws:
        w = (weights[p.numerator % len(weights)] * q if multiple and weights
             else QuadIrrational(p, q, d))
        weights.append(w if w.sign() > 0 else -w)
    try:
        family = TamuraFamily(weights)
    except HypothesisViolation as want:
        with pytest.raises(HypothesisViolation) as got:
            Ellipsoid(weights)
        assert (got.value.j, got.value.k, got.value.ratio) == (want.j, want.k, want.ratio)
        return
    e = Ellipsoid(weights)
    assert isinstance(e, TamuraFamily)
    for j in range(1, len(weights) + 1):
        assert e.elements(j, 200).tolist() == family.elements(j, 200).tolist()


@pytest.mark.parametrize("entry", [spectrum, ell.spectrum_sets, check_goodness_and_lacunarity])
def test_max_degree_must_be_an_integer(e3, entry):
    assert_integer_bound(lambda n: entry(e3, n))


def test_orbit_index_takes_an_integer_label(e3):
    assert_integer_bound(lambda j: orbit_index(e3, j, 1), value=1)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        orbit_index(e3, Fraction(1), 1)


def test_cross_check_sample_count_must_be_an_integer(e3):
    # a grid size is a count: 5000.5 is refused, not truncated to 5000
    assert_integer_bound(lambda s: cross_check_index(e3, 1, 3, sample_count=s),
                         value=5000)


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
    orbits = spectrum(e2, 7)
    assert type(orbits) is list
    assert all(type(o) is ell.ReebOrbit for o in orbits)
    assert [(o.j, o.n, o.cz) for o in orbits] == [
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


# Coefficients near 10**12 put every ratio to the big weight outside the
# kernel's int64 guard, so the element arrays of sets 1 and 2 are object
# arrays, and set 3 has no element below any degree bound used here.
BIG_WEIGHTS = (2, ("1", "sqrt(2)", "1000000000000+sqrt(2)"))


def big_ellipsoid():
    d, exprs = BIG_WEIGHTS
    context = FieldContext(d)
    return Ellipsoid([context.parse(x) for x in exprs])


def test_big_coefficients_give_object_element_arrays():
    family = big_ellipsoid()
    assert family.elements(1, 1000).dtype == object
    assert family.elements(2, 1000).dtype == object
    assert family.elements(3, 1000).size == 0


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
       d=st.sampled_from((2, 3, 5)), max_degree=st.integers(0, 3000))
@example(seed=0, m=4, d=3, max_degree=3000)
def test_spectrum_equals_the_merge_reference(seed, m, d, max_degree):
    e = Ellipsoid(random_weights(random.Random(seed), d, m))
    orbits = spectrum(e, max_degree)
    assert [(o.j, o.n, o.cz) for o in orbits] == merged_spectrum(e, max_degree)
    assert all(o.weight == e.weights[o.j - 1] for o in orbits)
    assert all(type(x) is int for o in orbits for x in (o.j, o.n, o.cz))
    report = check_goodness_and_lacunarity(e, max_degree)
    assert repr(report) == repr(goodness_by_dicts(e, orbits, max_degree))


@pytest.mark.parametrize("max_degree", [0, 3, 4, 5, 77, 3000])
def test_object_array_spectrum_equals_the_merge_reference(max_degree):
    e = big_ellipsoid()
    orbits = spectrum(e, max_degree)
    assert [(o.j, o.n, o.cz) for o in orbits] == merged_spectrum(e, max_degree)
    assert all(type(o.cz) is int for o in orbits)


def _orbit_by_orbit(e, max_degree):
    # every (j, n) indexed on its own, while cz (rising with n) is in range
    out = []
    for j in range(1, e.m + 1):
        n = 1
        while (cz := orbit_index(e, j, n)) <= max_degree:
            out.append((cz, j, n))
            n += 1
    return sorted(out)


# W3's Tamura sets tile the naturals, so to degree 2c + 2 it has exactly c
# orbits: these counts fall on both sides of one and of two chunks.  The big
# family's 4999 orbits, past one chunk, come from object element arrays.
@pytest.mark.parametrize("family, max_degree, count", [
    *[("W3", 2 * c + 2, c) for c in (ell._CHUNK - 1, ell._CHUNK, ell._CHUNK + 1,
                                     2 * ell._CHUNK + 1)],
    ("big", 10000, 4999), ("below m", 2, 0)])
def test_spectrum_equals_the_orbit_by_orbit_reference(e3, family, max_degree, count):
    e = big_ellipsoid() if family == "big" else e3
    orbits = spectrum(e, max_degree)
    assert [(o.cz, o.j, o.n) for o in orbits] == _orbit_by_orbit(e, max_degree)
    assert len(orbits) == count
    assert all(type(x) is int for o in orbits for x in (o.j, o.n, o.cz))
    # each weight is the Ellipsoid's own object, not a copy
    assert all(o.weight is e.weights[o.j - 1] for o in orbits)


def test_spectrum_orbits_keeps_no_full_length_temporaries(e3):
    # beside its result, the build holds two full-length index arrays (16
    # bytes per orbit) and one chunk; full-length j, n and cz lists and
    # arrays took 56 bytes per orbit
    sets = ell.spectrum_sets(e3, 200002)
    tracemalloc.start()
    try:
        orbits = ell.spectrum_orbits(e3, sets)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(orbits) == 100000
    assert peak - live < 32 * len(orbits)


@pytest.mark.parametrize("raises", [False, True], ids=["built", "raised"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_spectrum_leaves_the_collector_as_it_found_it(e3, monkeypatch, enabled, raises):
    if raises:
        # tuple.__new__(int, ...) raises: int is not a subtype of tuple
        monkeypatch.setattr(ell, "ReebOrbit", int)
    # each entry with the spectrum calls it makes through the module global
    # (spectrum makes none); a raise in the guard's call ends sh_dims_gutt
    for call, calls in [(spectrum, 0), (check_goodness_and_lacunarity, 1),
                        (sh_dims_gutt, 1 if raises else 2)]:
        seen = []   # the collector's state at each call

        def spy(e, max_degree):
            seen.append(gc.isenabled())
            return spectrum(e, max_degree)

        monkeypatch.setattr(ell, "spectrum", spy)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(TypeError) if raises else contextlib.nullcontext():
                call(e3, 61)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False] * calls


def test_sh_ladder_runs_no_full_collection():
    # with the collector running while spectrum builds its tuples, this sh
    # runs 2 generation-2 collections
    proc = fresh_python(
        "import contextlib, gc, io\n"
        "from reebspec.cli import main\n"
        "before = gc.get_stats()[2]['collections']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['sh', '--d', '2', '--weights', '1; sqrt(2); 1+sqrt(2)',\n"
        "                   '--max-degree', '200002'])\n"
        "print(status, gc.isenabled(), gc.get_stats()[2]['collections'] - before)\n")
    assert proc.stdout == "0 True 0\n", proc.stderr


def test_sh_compare_runs_no_collection():
    # with the collector running while the orbit lists of compare's two
    # spectrum calls are read, this runs 2 generation-0 collections
    proc = fresh_python(
        "import gc\n"
        "from reebspec import Ellipsoid, FieldContext\n"
        "from reebspec.homology import compare\n"
        "ctx = FieldContext(2)\n"
        "w3 = Ellipsoid([ctx.parse(x) for x in ('1', 'sqrt(2)', '1+sqrt(2)')])\n"
        "gc.collect()\n"
        "before = [g['collections'] for g in gc.get_stats()]\n"
        "equal = compare(w3, 200002).equal\n"
        "print(equal, gc.isenabled(), [g['collections'] - b\n"
        "                              for g, b in zip(gc.get_stats(), before)])\n")
    assert proc.stdout == "True True [0, 0, 0]\n", proc.stderr


@pytest.mark.parametrize("family, max_degree", [
    ("W3", 2001), ("d=5", 1001), ("big", 3000), ("below m", 2)])
def test_sh_dims_gutt_counts_the_spectrum_orbit_by_orbit(e3, family, max_degree):
    e = {"W3": e3, "below m": e3, "big": big_ellipsoid(),
         "d=5": Ellipsoid(random_weights(random.Random(5), 5, 4))}[family]
    counts = [0] * (max_degree + 1)
    for orbit in spectrum(e, max_degree):
        counts[orbit.cz] += 1
    vec = sh_dims_gutt(e, max_degree)
    assert vec.counts.dtype == np.int64
    assert vec.counts.tolist() == counts
    assert (sum(counts) == 0) == (family == "below m")


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


# (j, n, cz) rows handed to the guard of e2, whose simple orbits have odd
# indices 3 and 5, in place of its spectrum
CRAFTED = {
    "bad parity": [(1, 1, 3), (2, 1, 5), (1, 2, 7), (2, 2, 10)],
    # gamma_2 claims an even index, so 3 and 4 are both good but consecutive
    "consecutive": [(1, 1, 3), (2, 1, 4), (1, 2, 7), (2, 2, 8)],
    # no simple orbit listed: the parities come from orbit_index
    "no simple orbits": [(1, 2, 7), (2, 2, 12)],
    "beyond int64": [(1, 1, 3), (2, 1, 2**70 + 1), (1, 2, 2**70 + 2)],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_guard_equals_the_dict_reference(e2, monkeypatch, name):
    orbits = [ell.ReebOrbit(j, n, e2.weights[j - 1], cz)
              for j, n, cz in CRAFTED[name]]
    monkeypatch.setattr(ell, "spectrum", lambda e, max_degree: orbits)
    report = check_goodness_and_lacunarity(e2, 50)
    reference = goodness_by_dicts(e2, orbits, 50)
    # repr also tells a numpy scalar from a Python int
    assert repr(report) == repr(reference)
    assert report.passed == (name == "empty")


# ---------------------------------------------------------------------------
# numeric cross-check
# ---------------------------------------------------------------------------

def _assert_flow_is_rounded_from_mpmath(weights, ns, dps=50):
    """_reeb_freqs and _periods against an mpmath evaluation at dps digits,
    rounded to double."""
    e = Ellipsoid(weights)
    with mpmath.workdps(dps):
        a = [mpmath.mpf(w.p.numerator) / w.p.denominator
             + mpmath.mpf(w.q.numerator) / w.q.denominator * mpmath.sqrt(w.d)
             for w in weights]
        assert ell._reeb_freqs(e) == [float(2 / x) for x in a]
        for j in range(1, len(weights) + 1):
            periods = ell._periods(e, j, ns)
            assert periods == [float(n * mpmath.pi * a[j - 1]) for n in ns]


@given(d=st.sampled_from([2, 3, 5]),
       coefficients=st.lists(st.tuples(FRACTIONS, FRACTIONS.filter(bool)),
                             min_size=1, max_size=4))
def test_reeb_flow_is_the_50_digit_flow_rounded(d, coefficients):
    # q != 0 makes each weight nonzero; a negative one is flipped
    weights = [QuadIrrational(p, q, d) for p, q in coefficients]
    weights = [w if w.sign() > 0 else -w for w in weights]
    assume(pairwise_rational_ratio(weights) is None)
    _assert_flow_is_rounded_from_mpmath(weights, [1, 2, 3, 10, 997, 10**6])


def test_reeb_flow_of_a_320_digit_radicand():
    ctx = FieldContext(HUGE_D)
    root = ctx.sqrt_d()
    weights = [ctx.element(1), root, 1 + root, root - 10**160]
    # root - 10**160 is about 5e-161, so 50 correct digits of it need
    # 50 + 2*161 working digits
    _assert_flow_is_rounded_from_mpmath(weights, [1, 7, 10**6], dps=400)


@pytest.mark.parametrize("seed", range(11))
def test_periods_are_the_fraction_route_rounded(seed):
    # n*num/den divides exact integers, correctly rounded, so it is bitwise
    # float(n * Fraction(num, den)) for every n
    rng = random.Random(seed)
    d = rng.choice((2, 5))
    e = Ellipsoid(random_weights(rng, d, 3))
    ns = range(1, 10**4 + 1)
    for j in (1, 2, 3):
        pi_a = ell._PI * _near_fraction(e.weights[j - 1])
        want = [float(n * pi_a) for n in ns]
        assert np.array(ell._periods(e, j, ns)).tobytes() == np.array(want).tobytes()


def test_pi_literal():
    with mpmath.workdps(80):
        pi = mpmath.mpf(ell._PI.numerator) / ell._PI.denominator
        assert 0 <= mpmath.pi - pi < mpmath.mpf(10) ** -50


# a_1 = 10**-400 and a_2 = 10**400*sqrt(2): 2/a_1 overflows a double, n*pi*a_1
# and 2/a_2 underflow to 0
FAR_WEIGHTS = [(("1/1" + "0" * 400, "sqrt(2)"), 1),
               (("1", "1" + "0" * 400 + "*sqrt(2)"), 2)]


@pytest.mark.parametrize("exprs, l", FAR_WEIGHTS, ids=["tiny_a_1", "huge_a_2"])
def test_cross_checks_name_a_weight_outside_the_double_range(exprs, l):
    context = FieldContext(2)
    e = Ellipsoid([context.parse(x) for x in exprs])
    named = f"weight a_{l} = {exprs[l - 1]} is outside the numeric engine's range"
    with pytest.raises(ValueError, match=re.escape(named)):
        cross_check_index(e, 1, 1)
    with pytest.raises(ValueError, match=re.escape(named)):
        cross_check_family(e, {1: e.elements(1, e.element(1, 3))})


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


# ---------------------------------------------------------------------------
# the family route: one crossing search for the whole spectrum (catenation)
# ---------------------------------------------------------------------------

# W3 and the held-out benchmark family (1; (1+sqrt 5)/2; (1+3 sqrt 5)/2)
FAMILIES = {
    "W3": (2, ("1", "sqrt(2)", "1+sqrt(2)")),
    "seed1": (5, ("1", "1/2+1/2*sqrt(5)", "1/2+3/2*sqrt(5)")),
}


def family_ellipsoid(name):
    d, exprs = FAMILIES[name]
    context = FieldContext(d)
    return Ellipsoid([context.parse(x) for x in exprs])


def iterates(e, max_degree):
    """{j: the largest n with gamma_j^n in the spectrum to max_degree}."""
    n_max = {}
    for o in spectrum(e, max_degree):
        n_max[o.j] = max(n_max.get(o.j, 0), o.n)
    return n_max


def prefixes(e, n_max):
    """{j: the array A_j(1), ..., A_j(n_max[j])}: the elements
    cross_check_family reads its formula values from."""
    return {j: e.elements(j, e.element(j, n)) for j, n in n_max.items()}


def per_orbit(e, j, n_max):
    return [cross_check_index(e, j, n) for n in range(1, n_max + 1)]


def spy(monkeypatch, name):
    """Record the positional arguments of every call of ell.<name>, which
    still runs."""
    real, calls = getattr(ell, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ell, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_route_equals_the_per_orbit_oracle(name, monkeypatch):
    # catenation: every prefix index read from the one path's crossings is
    # the index the engine computes on the prefix path alone
    e = family_ellipsoid(name)
    n_max = iterates(e, 160)
    searches = spy(monkeypatch, "find_crossings")
    checks = cross_check_family(e, prefixes(e, n_max))
    assert len(searches) == 1
    assert sorted(checks) == sorted(n_max)
    for j, family in checks.items():
        assert family == per_orbit(e, j, n_max[j])
        assert all(c.agree for c in family)
    assert sum(map(len, checks.values())) == 79


def test_family_route_matches_the_formula_to_degree_1000():
    e = family_ellipsoid("W3")
    n_max = iterates(e, 1000)
    checks = cross_check_family(e, prefixes(e, n_max))
    assert sorted(checks) == sorted(n_max)
    for j, family in checks.items():
        assert len(family) == n_max[j]
        for n, check in enumerate(family, start=1):
            assert (check.j, check.n) == (j, n)
            assert not check.inconclusive
            assert check.numeric == check.formula == orbit_index(e, j, n)
    assert sum(map(len, checks.values())) == 499


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_formulas_equal_orbit_index(name):
    # the family route reads A_j(1..n_max) in one block, not per orbit
    e = family_ellipsoid(name)
    n_max = iterates(e, 300)
    checks = cross_check_family(e, prefixes(e, n_max))
    assert sorted(checks) == sorted(n_max)
    for j, family in checks.items():
        assert [c.n for c in family] == list(range(1, n_max[j] + 1))
        assert [c.formula for c in family] == [
            orbit_index(e, j, n) for n in range(1, n_max[j] + 1)]
        assert not any(c.inconclusive for c in family)


def block_closed_form_grids(monkeypatch):
    """Read every sample grid of a RotationPath as the engine read it before
    its grid took the half-angle route: from the block entries (cos, -sin,
    sin, cos) of alpha_l t, checked by their determinants, through the block
    closed form.  Returns the list of grid sizes read so."""
    real, grids = czindex._sigma_min_many, []

    def block_grid(path, ts, lapack=False, check_symplectic=False):
        if not check_symplectic:
            return real(path, ts, lapack=lapack)
        angles = np.multiply.outer(ts, path.freqs)
        c, s = np.cos(angles), np.sin(angles)
        assert czindex._stack_defect(None, (c, -s, s, c)) <= czindex.TOL_SYMPLECTIC
        grids.append(len(ts))
        return czindex._sigma_min_blocks((c, -s, s, c))

    monkeypatch.setattr(czindex, "_sigma_min_many", block_grid)
    return grids


@pytest.mark.parametrize("max_degree", [160, 1000])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_half_angle_grid_finds_the_block_closed_form_crossings(name, max_degree,
                                                              monkeypatch):
    # the grid steers by the half-angle sines; read from the block closed form
    # instead, the family search finds the same times and signatures
    e = family_ellipsoid(name)
    searches = spy(monkeypatch, "find_crossings")
    cross_check_family(e, prefixes(e, iterates(e, max_degree)))
    (path,), = searches
    want = [(c.t, c.signature) for c in czindex.find_crossings(path)]
    grids = block_closed_form_grids(monkeypatch)
    assert [(c.t, c.signature) for c in czindex.find_crossings(path)] == want
    assert grids == [path.sample_count]


def test_family_falls_back_when_the_long_search_raises(e3, monkeypatch):
    def refuse(path):
        raise NonIsolatedCrossingError("synthetic: the long path is refused")

    monkeypatch.setattr(ell, "find_crossings", refuse)
    calls = spy(monkeypatch, "cross_check_index")
    checks = cross_check_family(e3, prefixes(e3, {3: 4, 1: 4}))
    # every family goes to the oracle, in (j, n) order
    assert [c[1:] for c in calls] == [(j, n) for j in (1, 3) for n in range(1, 5)]
    assert checks == {j: per_orbit(e3, j, 4) for j in (1, 3)}

    # every orbit is then run on its own path, so each note names its own
    # duration n*pi*a_j
    def flat(path):
        raise FlatCrossingError(repr(path.b))

    monkeypatch.setattr(ell, "cz_index", flat)
    checks = cross_check_family(e3, prefixes(e3, {1: 4, 3: 4}))
    for j, a_j in ((1, 1.0), (3, 1.0 + math.sqrt(2.0))):
        assert [c.n for c in checks[j]] == [1, 2, 3, 4]
        for n, c in enumerate(checks[j], start=1):
            assert c.inconclusive and c.numeric is None and c.agree is None
            assert float(c.note) == pytest.approx(n * math.pi * a_j, rel=1e-12)


def test_family_checks_its_input_before_the_search(e3, ctx2, monkeypatch):
    def refuse(path):
        raise AssertionError("a crossing search ran")

    monkeypatch.setattr(ell, "find_crossings", refuse)
    three, none = np.arange(1, 4), np.arange(1, 1)
    for elements in ({0: three}, {4: three}, {1: none}, {1: three, 4: three},
                     {2: three, 1: none}):
        with pytest.raises(ValueError):
            cross_check_family(e3, elements)
    with pytest.raises(HypothesisViolation):
        cross_check_family(Ellipsoid([ctx2.element(1), ctx2.element(2)]), {1: three})
    # an empty spectrum asks for nothing and runs no search
    assert cross_check_family(e3, {}) == {}


def _near(crossings, t):
    return min(range(len(crossings)), key=lambda k: abs(crossings[k].t - t))


def _drop(crossings, t):
    out = list(crossings)
    del out[_near(out, t)]
    return out


def _double(crossings, t):
    # a second crossing within the isolation gap of the first
    k = _near(crossings, t)
    twin = dataclasses.replace(crossings[k], t=crossings[k].t + 1e-7 * t)
    return crossings[:k + 1] + [twin] + crossings[k + 1:]


def _degenerate(crossings, t):
    k = _near(crossings, t)
    return (crossings[:k] + [dataclasses.replace(crossings[k], degenerate=True)]
            + crossings[k + 1:])


@pytest.mark.parametrize("edit", [_drop, _double, _degenerate])
def test_family_never_guesses_an_unmatched_end(e3, monkeypatch, edit):
    # T_2 = 2*pi*a_1 of gamma_1^2 loses its crossing, shares the gap with a
    # second one, or its crossing turns degenerate.  The shared list is then
    # wrong near 2*pi, and family 3, whose later ends lie past 2*pi, would
    # sum its signatures over that spot: every family falls back to one
    # cross_check_index per orbit, and every record is the oracle's.
    real_find = ell.find_crossings
    monkeypatch.setattr(ell, "find_crossings",
                        lambda path: edit(real_find(path), 2 * math.pi))
    searches = spy(monkeypatch, "find_crossings")
    calls = spy(monkeypatch, "cross_check_index")
    n_max = {1: 5, 3: 4}
    checks = cross_check_family(e3, prefixes(e3, n_max))
    assert len(searches) == 1
    assert [c[1:] for c in calls] == [
        (j, n) for j in (1, 3) for n in range(1, n_max[j] + 1)]
    monkeypatch.undo()
    assert checks == {j: per_orbit(e3, j, n) for j, n in n_max.items()}
