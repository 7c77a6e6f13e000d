import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (assert_integer_bound, beatty_stream, merged_cover, random_quad,
                     random_weights, tamura_streams)
from reebspec import (FieldContext, HypothesisViolation, QuadIrrational, floor_product,
                      pairwise_rational_ratio)
from reebspec.partitions import (
    PartitionReport,
    TamuraFamily,
    _WINDOW,
    _beatty_generator,
    _floor_blocks,
    beatty_set,
    rayleigh_conjugate,
    rayleigh_pair,
    uspensky_scan,
    verify_partition,
)


def phi(ctx5):
    return ctx5.element(Fraction(1, 2), Fraction(1, 2))


# ---------------------------------------------------------------------------
# Tamura elements
# ---------------------------------------------------------------------------

def test_tamura_element_examples(w2, w3):
    assert TamuraFamily(w2).element(1, 3) == 5       # 3 + floor(3/sqrt2)
    assert TamuraFamily(w2).element(2, 2) == 4       # floor(2*sqrt2) + 2
    assert TamuraFamily(w3).element(3, 1) == 4       # 2 + 1 + 1


def test_generator_rejects_bad_label(w3):
    fam = TamuraFamily(w3)
    for j in (0, -1, 4):
        with pytest.raises(ValueError):
            fam.generator(j, 10)


def test_tamura_generators_strictly_increasing(w3):
    fam = TamuraFamily(w3)
    for j in (1, 2, 3):
        values = [v for v, _, _ in fam.generator(j, 500)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_elements_reject_bad_label(w3):
    for j in (0, 4):
        with pytest.raises(ValueError):
            TamuraFamily(w3).elements(j, 10)


@pytest.mark.parametrize("call", [
    lambda family, j: family.element(j, 10),
    lambda family, j: family.elements(j, 10).tolist(),
    lambda family, j: list(family.generator(j, 10)),
], ids=["element", "elements", "generator"])
def test_set_labels_must_be_integers(call, w3):
    # a label is an index: 1.0 is refused, not range-checked and then indexed
    family = TamuraFamily(w3)
    assert_integer_bound(lambda j: call(family, j), value=1)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(family, Fraction(1))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
       d=st.sampled_from((2, 3, 5)), limit=st.integers(-2, 5000))
def test_elements_equal_the_generator(seed, m, d, limit):
    family = TamuraFamily(random_weights(random.Random(seed), d, m))
    for j in range(1, m + 1):
        values = family.elements(j, limit)
        assert values.tolist() == [v for v, _, _ in family.generator(j, limit)]


def test_object_elements_equal_the_generator():
    # ratios to 10**12 + sqrt(2) leave the kernel's int64 guard
    context = FieldContext(2)
    family = TamuraFamily([context.element(1), context.element(10**12, 1)])
    values = family.elements(1, 3000)
    assert values.dtype == object
    assert values.tolist() == [v for v, _, _ in family.generator(1, 3000)]
    assert family.elements(2, 3000).size == 0


def test_floor_blocks_stop_after_the_first_block_past_the_limit(w3):
    triples = TamuraFamily(w3)._triples(1)
    # A_1(n) is about 2.12 n, so 5000 is passed at n = 2358
    blocks = list(_floor_blocks(triples, 2, 5000))
    assert [n_lo for n_lo, _ in blocks] == [1, 65, 193, 449, 961, 1985]
    assert [len(values) for _, values in blocks] == [64, 128, 256, 512, 1024, 2048]
    assert all(values[-1] <= 5000 for _, values in blocks[:-1])
    assert blocks[-1][1][-1] > 5000


BOUND_CALLS = {
    "verify_partition": lambda w3, a, n: verify_partition(w3, n),
    "rayleigh_pair": lambda w3, a, n: rayleigh_pair(a, n),
    "uspensky_scan": lambda w3, a, n: uspensky_scan([a, a * a, a + 3], n),
    "beatty_set": lambda w3, a, n: beatty_set(a, n),
    "elements": lambda w3, a, n: TamuraFamily(w3).elements(1, n),
}


@pytest.mark.parametrize("name", BOUND_CALLS)
def test_limits_must_be_integers(name, w3, ctx5):
    assert_integer_bound(lambda n: BOUND_CALLS[name](w3, phi(ctx5), n))


def test_generator_refuses_a_non_integer_limit_when_called(w3):
    # the TypeError comes from the call, not from the first next()
    family = TamuraFamily(w3)
    assert_integer_bound(lambda n: family.generator(1, n), read=list)


@pytest.mark.parametrize("call", [
    lambda: uspensky_scan([1, 2, 3], 10),
    lambda: rayleigh_pair(3, 10),
    lambda: beatty_set(3, 10),
    lambda: rayleigh_conjugate(3),
], ids=["uspensky_scan", "rayleigh_pair", "beatty_set", "rayleigh_conjugate"])
def test_weights_of_another_type_raise_tamura_familys_type_error(call):
    with pytest.raises(TypeError) as want:
        TamuraFamily([3])
    with pytest.raises(TypeError) as got:
        call()
    assert str(got.value) == str(want.value) == "weights must be QuadIrrational, got int"


def test_tamura_hypothesis_checked(ctx2):
    with pytest.raises(HypothesisViolation):
        TamuraFamily([ctx2.element(1), ctx2.element(2)])


def _pairwise_irrational(ctx2, m):
    return [ctx2.parse(w) for w in ("1", "sqrt(2)", "1+sqrt(2)", "2+sqrt(2)")[:m]]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tamura_family_divides_each_ordered_pair_once(ctx2, monkeypatch, m):
    weights = _pairwise_irrational(ctx2, m)
    old_table = [[(aj / ak).scaled_triple() for ak in weights] for aj in weights]
    calls = []
    divide = QuadIrrational.__truediv__

    def spy(self, other):
        calls.append((self, other))
        return divide(self, other)

    monkeypatch.setattr(QuadIrrational, "__truediv__", spy)
    family = TamuraFamily(weights)
    assert len(calls) == m * (m - 1)
    assert all(a is not b for a, b in calls)
    assert family._ratio_triples == old_table


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tamura_family_reports_the_rational_pair_pairwise_rational_ratio_finds(ctx2, m):
    base = _pairwise_irrational(ctx2, m)
    cases = [[*base[:k], base[j] * Fraction(3, 2), *base[k + 1:]]
             for j in range(m) for k in range(m) if j != k]
    cases.append([ctx2.element(n) for n in range(1, m + 1)])   # every pair is rational
    for weights in cases:
        j, k, ratio = pairwise_rational_ratio(weights)
        with pytest.raises(HypothesisViolation) as caught:
            TamuraFamily(weights)
        err = caught.value
        assert (err.j, err.k, err.ratio) == (j, k, ratio)
        assert str(err) == str(HypothesisViolation.rational_ratio(j, k, ratio))


# ---------------------------------------------------------------------------
# partition verification
# ---------------------------------------------------------------------------

def test_partition_small_two_weights(w2):
    report = verify_partition(w2, 9, collect_owners=True)
    assert report.ok
    assert report.members(1) == [1, 3, 5, 6, 8]
    assert report.members(2) == [2, 4, 7, 9]


def test_partition_small_three_weights(w3):
    report = verify_partition(w3, 4, collect_owners=True)
    assert report.ok
    assert report.members(1) == [1, 3]
    assert report.members(2) == [2]
    assert report.members(3) == [4]


def test_partition_rational_ratio_raises(ctx2):
    with pytest.raises(HypothesisViolation):
        verify_partition([ctx2.element(1), ctx2.element(2)], 10)


def test_partition_m1_is_trivial(ctx5):
    report = verify_partition([ctx5.element(Fraction(7, 3))], 50,
                              collect_owners=True)
    assert report.ok
    assert report.members(1) == list(range(1, 51))


def test_partition_desk_scale(w2, w3):
    assert verify_partition(w2, 20_000).ok
    assert verify_partition(w3, 20_000).ok


def test_partition_random_tuples_always_tile():
    rng = random.Random(2718)
    for _ in range(12):
        ws = random_weights(rng, rng.choice((2, 5)), rng.randint(2, 4))
        assert verify_partition(ws, 700).ok


def test_partition_owner_table_vs_bitset(w3):
    # independent route: bit-set coverage over [1..N] built directly from
    # the generators, never through the report machinery
    n = 2000
    fam = TamuraFamily(w3)
    seen = 0
    total = 0
    for j in (1, 2, 3):
        for value, _, _ in fam.generator(j, n):
            bit = 1 << value
            assert not seen & bit, f"value {value} produced twice"
            seen |= bit
            total += 1
    assert seen == ((1 << (n + 1)) - 2)  # bits 1..n all set
    report = verify_partition(w3, n)
    assert report.ok and sum(report.counts.values()) == total


def test_partition_scaling_invariance(w2):
    report_a = verify_partition(w2, 500, collect_owners=True)
    scaled = [w * Fraction(3, 7) for w in w2]
    report_b = verify_partition(scaled, 500, collect_owners=True)
    assert report_a.ok and report_b.ok
    assert report_a.owners == report_b.owners


def test_gap_witness_shape(ctx2):
    # sparse naive sets leave 1 uncovered immediately
    ws = [ctx2.element(3), ctx2.element(5), ctx2.element(7, 1)]
    report = uspensky_scan(ws, 20)
    assert report.verdict == "gap"
    assert report.value == 1


# ---------------------------------------------------------------------------
# Beatty sets and the Rayleigh pair
# ---------------------------------------------------------------------------

def test_beatty_wythoff(ctx5):
    assert beatty_set(phi(ctx5), 8) == [1, 3, 4, 6, 8]


def test_beatty_matches_tamura_reduction(ctx2, w2):
    # A_1 of (1, sqrt2) is the Beatty set of 1 + 1/sqrt2
    alpha = ctx2.element(1) + ctx2.element(1) / ctx2.sqrt_d()
    fam = TamuraFamily(w2)
    a1 = [v for v, _, _ in fam.generator(1, 60)]
    assert beatty_set(alpha, 60) == a1
    # and A_2 is the Beatty set of 1 + sqrt2
    beta = ctx2.element(1, 1)
    a2 = [v for v, _, _ in fam.generator(2, 60)]
    assert beatty_set(beta, 60) == a2


def test_beatty_sqrt2_accepted(ctx2):
    assert beatty_set(ctx2.sqrt_d(), 9) == [1, 2, 4, 5, 7, 8, 9]


def test_beatty_rejects_bad_slopes(ctx2):
    with pytest.raises(HypothesisViolation):
        beatty_set(ctx2.element(Fraction(3, 2)), 10)  # rational
    with pytest.raises(HypothesisViolation):
        beatty_set(ctx2.element(0, Fraction(1, 2)), 10)  # sqrt2/2 < 1


def test_rayleigh_conjugate_golden_ratio(ctx5):
    alpha = phi(ctx5)
    beta = rayleigh_conjugate(alpha)
    assert beta == ctx5.element(Fraction(3, 2), Fraction(1, 2))  # phi^2 = phi+1
    assert beta == alpha * alpha
    one = ctx5.element(1)
    assert one / alpha + one / beta == one


def test_rayleigh_pair_wythoff(ctx5):
    report = rayleigh_pair(phi(ctx5), 10, collect_owners=True)
    assert report.ok
    assert report.members(1) == [1, 3, 4, 6, 8, 9]
    assert report.members(2) == [2, 5, 7, 10]


def test_rayleigh_pair_matches_tamura(ctx2, w2):
    alpha = ctx2.element(1) + ctx2.element(1) / ctx2.sqrt_d()
    assert rayleigh_conjugate(alpha) == ctx2.element(1, 1)
    pair = rayleigh_pair(alpha, 9, collect_owners=True)
    tamura = verify_partition(w2, 9, collect_owners=True)
    assert pair.ok and tamura.ok
    assert pair.owners == tamura.owners


def test_rayleigh_pair_rejects_rational(ctx2):
    with pytest.raises(HypothesisViolation):
        rayleigh_pair(ctx2.element(Fraction(3, 2)), 10)


def test_rayleigh_random_slopes():
    rng = random.Random(161803)
    for _ in range(10):
        d = rng.choice((2, 5))
        while True:
            alpha = random_quad(rng, d, positive=True)
            if not alpha.is_rational() and alpha > 1:
                break
        assert rayleigh_pair(alpha, 800).ok


# ---------------------------------------------------------------------------
# Uspensky scanner
# ---------------------------------------------------------------------------

def test_uspensky_needs_three_sets(ctx5):
    with pytest.raises(ValueError):
        uspensky_scan([phi(ctx5), phi(ctx5) * phi(ctx5)], 100)


def test_uspensky_golden_triple(ctx5):
    # (phi, phi^2) already tile by Rayleigh, so any third set collides
    a = phi(ctx5)
    report = uspensky_scan([a, a * a, ctx5.element(5)], 100)
    assert report.verdict == "collision"
    assert report.value == 5  # floor(2*phi^2)=5 meets floor(1*5)=5
    assert report.first == (2, 2)
    assert report.second == (3, 1)


def test_uspensky_tamura_weights_fail_naively(ctx2):
    # the naive Beatty family of (1+1/sqrt2, 1+sqrt2, 5): the first two
    # tile the integers, the third collides with them
    alpha = ctx2.element(1) + ctx2.element(1) / ctx2.sqrt_d()
    report = uspensky_scan([alpha, ctx2.element(1, 1), ctx2.element(5)], 100)
    assert report.verdict in ("collision", "gap")
    assert report.value <= 100


def test_uspensky_small_weights_dedupe(ctx2):
    # weights below 1 make floor(n*a) repeat; repeats within one set are
    # not collisions, the set simply contains the value once
    ws = [ctx2.element(Fraction(1, 2)) * ctx2.sqrt_d(),
          ctx2.element(Fraction(1, 3)) * ctx2.sqrt_d(),
          ctx2.element(1, 1)]
    report = uspensky_scan(ws, 200)
    assert report.verdict == "collision"


def test_slopes_below_one_stream_each_value_once(ctx2, ctx5):
    # the stream against {floor(n*a)} & [1..N], floored one n at a time
    rng = random.Random(577)
    slopes = [ctx2.element(0, Fraction(1, 2)), ctx5.element(Fraction(1, 3))]
    while len(slopes) < 8:
        a = random_quad(rng, rng.choice((2, 5)), positive=True)
        if a < 1:
            slopes.append(a)
    limit = 300
    for a in slopes:
        expected = set()
        n = 1
        while (value := floor_product(n, a)) <= limit:
            expected.add(value)
            n += 1
        expected.discard(0)
        stream = list(_beatty_generator(a, 7, limit))
        values = [v for v, _, _ in stream]
        assert values == sorted(expected)
        assert values[0] >= 1
        assert all(y > x for x, y in zip(values, values[1:]))
        assert all(label == 7 and floor_product(n, a) == v
                   for v, label, n in stream)


def test_uspensky_random_triples_find_witness():
    rng = random.Random(1917)
    for _ in range(10):
        ws = random_weights(rng, rng.choice((2, 5)), 3)
        report = uspensky_scan(ws, 1000)
        assert report.verdict in ("collision", "gap"), \
            f"no witness below 1000 for {[str(w) for w in ws]}"


# ---------------------------------------------------------------------------
# the windowed cover against the merge
# ---------------------------------------------------------------------------

# the cover's windows end at multiples of its width
WINDOW_EDGES = [edge + offset for edge in (_WINDOW, 2 * _WINDOW)
                for offset in (-1, 0, 1)]
limits = st.one_of(st.integers(1, 5000), st.sampled_from(WINDOW_EDGES))


def assert_same_report(got, expected):
    for f in dataclasses.fields(PartitionReport):
        assert getattr(got, f.name) == getattr(expected, f.name), f.name


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
       d=st.sampled_from((2, 3, 5)), limit=limits)
@example(seed=0, m=3, d=2, limit=1)
def test_tamura_cover_equals_the_merge(seed, m, d, limit):
    weights = random_weights(random.Random(seed), d, m)
    streams = tamura_streams(weights, limit)
    assert_same_report(verify_partition(weights, limit, collect_owners=True),
                       merged_cover(streams, limit, collect_owners=True))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from((2, 3, 5)),
       limit=limits)
def test_beatty_pair_cover_equals_the_merge(seed, d, limit):
    rng = random.Random(seed)
    while True:
        alpha = random_quad(rng, d, positive=True)
        if not alpha.is_rational() and alpha > 1:
            break
    streams = [beatty_stream(alpha, 1, limit),
               beatty_stream(rayleigh_conjugate(alpha), 2, limit)]
    assert_same_report(rayleigh_pair(alpha, limit, collect_owners=True),
                       merged_cover(streams, limit, collect_owners=True))


def naive_weight(d):
    """A positive (a + b*sqrt(d))/c with small terms: rational when b = 0,
    and below 1 for many draws."""
    def positive(a, b, c):
        w = QuadIrrational(Fraction(a, c), Fraction(b, c), d)
        return w if w.sign() > 0 else -w

    return st.builds(positive, st.integers(1, 12), st.integers(-3, 3),
                     st.integers(1, 7))


@settings(max_examples=150)
@given(data=st.data(), d=st.sampled_from((2, 3, 5)), m=st.integers(3, 5),
       limit=limits, paired=st.booleans())
def test_uspensky_cover_equals_the_merge(data, d, m, limit, paired):
    weights = data.draw(st.lists(naive_weight(d), min_size=m, max_size=m))
    if paired:
        # a Rayleigh pair tiles, and a nudged one tiles for a while, so the
        # witness often lies windows later: where the pair drifts apart or
        # where the sparse sets that follow first land
        alpha = 1 + QuadIrrational(0, 1, d) * weights[0]
        nudge = Fraction(data.draw(st.integers(-3, 3)), 2000)
        scale = data.draw(st.integers(1, 2000))
        weights = [alpha, rayleigh_conjugate(alpha) + nudge,
                   *(w * scale for w in weights[2:])]
    streams = [beatty_stream(a, j, limit) for j, a in enumerate(weights, 1)]
    assert_same_report(uspensky_scan(weights, limit),
                       merged_cover(streams, limit))


C2 = FieldContext(2)


@pytest.mark.parametrize("weights, report", [
    # 1/2 covers every integer, at n = 2v, and meets the even set 2 at 2
    ((C2.element(Fraction(1, 2)), C2.element(2), C2.element(3)),
     ("collision", 2, (1, 4), (2, 1), {1: 2, 2: 1})),
    # (1 + sqrt 2)/7 = 0.345 covers every integer and first reaches 1001,
    # the first value of 1000 + sqrt 2, at n = 2903
    ((C2.element(Fraction(1, 7), Fraction(1, 7)), C2.element(1000, 1),
      C2.element(2000, 1)),
     ("collision", 1001, (1, 2903), (2, 1), {1: 1001, 2: 1})),
    # sqrt 2 and 2 + sqrt 2 are a Rayleigh pair; 10**6 has no value in range
    ((C2.sqrt_d(), C2.element(2, 1), C2.element(10**6)),
     ("partition", None, None, None, {1: 2122, 2: 878})),
])
def test_uspensky_witnesses_of_rational_and_slow_slopes(weights, report):
    got = uspensky_scan(weights, 3000)
    streams = [beatty_stream(a, j, 3000) for j, a in enumerate(weights, 1)]
    assert_same_report(got, merged_cover(streams, 3000))
    assert (got.verdict, got.value, got.first, got.second, got.counts) == report
    if got.verdict == "collision":
        j, n = got.first
        assert floor_product(n, weights[j - 1]) == got.value
        assert floor_product(n - 1, weights[j - 1]) < got.value


def test_cover_memory_does_not_grow_with_the_limit(w3):
    # the cover peaks near 0.84 MB here (844-850 kB traced at 2 * 10**5 and
    # at 10**6), whatever the limit; one that pulls a chunk of every stream
    # per window, so that the sparse set runs ahead, carries 1.5 MB at
    # 2 * 10**5 and more as the limit grows
    verify_partition(w3, 1000)       # imports and caches outside the peak
    tracemalloc.start()
    try:
        report = verify_partition(w3, 2 * 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2**20
