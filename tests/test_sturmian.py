"""The float-free stream route quadfield._slope_blocks, against the int64
certificate tests/helpers.certified_floors and the scalar floor
quadfield._floor_exact; the route calls neither, at any n.

An irrational slope x takes its floors from the characteristic Sturmian
word of {x}, built from the continued fraction of x, at every n: int64
blocks within the int64 guard and Python ints past it.  A rational slope
divides exactly.  The slopes are drawn where a word is hardest to get
right: surd parts of either sign, slopes below 1, {x} above 1/2 (a_1 = 1),
large floor(x), partial quotients past int64, radicands past a float, and
streams that leave the int64 guard partway through or at n = 1.
"""

import tracemalloc
from fractions import Fraction
from itertools import chain, islice, repeat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    HUGE_D,
    NON_SQUARES,
    certified_floors,
    count_exact_calls,
    reference_stream,
)
from reebspec.partitions import (
    TamuraFamily,
    _block_bounds,
    _floor_blocks,
    _floor_stream,
    rayleigh_pair,
    uspensky_scan,
    verify_partition,
)
from reebspec.quadfield import (
    QuadIrrational,
    _WORD_MAX,
    _continued_fraction,
    _floor_exact,
    _int64_bound,
    _slope_blocks,
    _sturmian_letters,
)


def positive(p, q, c, d):
    """(p, q, c), or (-p, -q, c) when (p + q*sqrt(d))/c is negative."""
    if QuadIrrational(Fraction(p, c), Fraction(q, c), d).sign() < 0:
        return -p, -q, c
    return p, q, c


def guarded_dtype(triples, d, n_lo, n_hi):
    """The dtype of a block under the kernel's rule: object where the int64
    guard fails for one of the slopes."""
    inside = all(_int64_bound(p, q, c, d, n_lo, n_hi) is not None
                 for p, q, c in triples)
    return np.dtype(np.int64) if inside else np.dtype(object)


nonzero = st.integers(-100, 100).filter(bool)
small_slopes = st.tuples(st.integers(-1000, 1000), nonzero, st.integers(1, 1000))
large_floors = st.tuples(st.integers(10**5, 10**6), nonzero, st.integers(1, 10))


# ---------------------------------------------------------------------------
# the continued fraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, q, c, d, head", [
    (0, 1, 1, 2, [1, 2, 2, 2, 2, 2]),               # sqrt 2
    (1, 1, 2, 5, [1, 1, 1, 1, 1, 1]),               # golden ratio
    (0, 1, 1, 3, [1, 1, 2, 1, 2, 1]),               # sqrt 3
    (99, -70, 1, 2, [0, 197, 1, 196, 1, 196]),      # 1/(99 + 70 sqrt 2)
    (-1, 1, 10**6, 2, [0, 2414213, 1, 1, 3, 1]),    # (sqrt 2 - 1)/10**6
])
def test_known_continued_fractions(p, q, c, d, head):
    assert list(islice(_continued_fraction(p, q, c, d), len(head))) == head


@given(slope=st.one_of(small_slopes, large_floors), d=st.sampled_from((2, 3, 5)))
def test_convergents_alternate_around_the_slope(slope, d):
    # h_k/k_k lies on alternate sides of x, within 1/k_k**2, decided exactly
    p, q, c = slope
    x = QuadIrrational(Fraction(p, c), Fraction(q, c), d)
    h, k, h_prev, k_prev = 1, 0, 0, 1
    for i, a in enumerate(islice(_continued_fraction(p, q, c, d), 12)):
        h, k, h_prev, k_prev = a * h + h_prev, a * k + k_prev, h, k
        gap = x - Fraction(h, k) if i % 2 == 0 else Fraction(h, k) - x
        assert 0 < gap < Fraction(1, k * k)


# ---------------------------------------------------------------------------
# Sturmian letters against the standard words built by their definition
# ---------------------------------------------------------------------------

def first_letters(quotients, length):
    """The first `length` letters of _sturmian_letters."""
    parts, have = [], 0
    for piece in _sturmian_letters(iter(quotients)):
        parts.append(piece)
        have += len(piece)
        if have >= length:
            return np.concatenate(parts)[:length]


def standard_word(quotients, length):
    """The first standard word s_k, k >= 1, with at least `length` letters,
    built by concatenation: s_1 = 0^(a_1 - 1) 1, s_k = s_{k-1}^(a_k) s_{k-2}."""
    quotients = iter(quotients)
    prev, word = [0], [0] * (next(quotients) - 1) + [1]
    while len(word) < length:
        prev, word = word, word * next(quotients) + prev
    return word


@pytest.mark.parametrize("head", [
    [1, 1], [2, 2], [3000], [2, 10**5, 3], [1, 5000, 2, 70], [2, 3, 4, 700],
    [2047], [2048], [2049], [1, 2048, 1, 1],
])
def test_letters_equal_the_standard_words(head):
    # each long quotient is met at a different depth of the descent
    quotients = list(chain(head, repeat(1, 40)))
    length = 3 * 10**5
    letters = first_letters(quotients, length + 1)
    assert letters[0] == 0                # floor(alpha) - floor(0)
    expected = standard_word(quotients, length)[:length]
    assert letters[1:length + 1].tolist() == expected


@pytest.mark.parametrize("head", [[3000, 10**6], [1, 1], [2, 10**5, 3], [2**40]])
def test_long_partial_quotients_come_out_tiled(head):
    # the work is one array per piece, and a piece averages at least a
    # quarter of the longest held word, whatever the partial quotients
    letters = pieces = 0
    for piece in _sturmian_letters(chain(head, repeat(1))):
        pieces += 1
        letters += len(piece)
        if letters > 5 * 10**6:
            break
    assert pieces <= 4 * letters // _WORD_MAX + 64


# ---------------------------------------------------------------------------
# stream blocks against the kernel and the scalar floor
# ---------------------------------------------------------------------------

@settings(max_examples=80)
@given(slope=st.one_of(small_slopes, large_floors), d=st.sampled_from((2, 3, 5)),
       count=st.integers(1, 30), picks=st.lists(st.integers(0, 2**32), max_size=16))
@example(slope=(1, 1, 2), d=5, count=40, picks=[])         # a_1 = 1
@example(slope=(99, -70, 1), d=2, count=40, picks=[])      # q < 0, below 1
@example(slope=(10**6, 1, 1), d=2, count=8, picks=[])      # leaves the guard
@example(slope=(-1, 1, 10**6), d=2, count=40, picks=[])    # a_1 = 2414213
@example(slope=(7, 0, 3), d=3, count=12, picks=[])         # rational
def test_stream_blocks_equal_the_kernel_and_the_exact_floor(slope, d, count, picks):
    # every int64 block is certified whole; past the guard the blocks are
    # Python ints, checked at the picks like the rest
    p, q, c = positive(*slope, d)
    stream = _slope_blocks(p, q, c, d, _block_bounds())
    blocks = list(islice(zip(_block_bounds(), stream), count))
    for (n_lo, n_hi), floors in blocks:
        assert floors.dtype == guarded_dtype([(p, q, c)], d, n_lo, n_hi)
        assert len(floors) == n_hi - n_lo
        if floors.dtype == np.int64:
            assert certified_floors(p, q, c, d, n_lo, floors)
    n_end = blocks[-1][0][1]
    floors = np.concatenate([floors for _, floors in blocks])
    for n in [1, n_end - 1] + [1 + k % (n_end - 1) for k in picks]:
        assert floors[n - 1] == _floor_exact(n * p, n * q, c, d)


@given(p=st.integers(-10**12, 10**12), q=st.integers(-10**6, 10**6),
       c=st.integers(1, 10**6), d=st.sampled_from(NON_SQUARES + [HUGE_D]))
@example(p=10**6, q=1, c=1, d=2)                # leaves the guard near n = 1500
@example(p=-10**12, q=-10**6, c=1, d=HUGE_D)    # negative, past a float
def test_every_n_streams_the_exact_floor(p, q, c, d):
    # in and past the int64 guard, at every one of the first 5,000 n
    stream = _slope_blocks(p, q, c, d, _block_bounds())
    for (n_lo, n_hi), floors in zip(_block_bounds(), stream):
        assert floors.dtype == guarded_dtype([(p, q, c)], d, n_lo, n_hi)
        assert floors.tolist() == [_floor_exact(n * p, n * q, c, d)
                                   for n in range(n_lo, n_hi)]
        if n_hi > 5000:
            break


@pytest.mark.parametrize("p", (0, -2**75), ids=("sqrt_d", "sqrt_d_minus_2_75"))
def test_partial_quotients_past_int64(p):
    # sqrt(2**150 + 1) = [2**75; 2**76, 2**76, ...], so a run of the
    # Sturmian word has more copies than an int64 counts
    d = 2**150 + 1
    assert list(islice(_continued_fraction(0, 1, 1, d), 3)) == [2**75, 2**76, 2**76]
    floors = next(_slope_blocks(p, 1, 1, d, [(1, 5001)]))
    assert floors.dtype == object
    assert floors.tolist() == [_floor_exact(n * p, n, 1, d) for n in range(1, 5001)]


def test_one_plus_sqrt2_to_ten_million():
    # the int64 certificate checks the route a chunk of about 2**20 n at a
    # time
    parts, n_start = [], 1
    blocks = zip(_block_bounds(), _slope_blocks(1, 1, 1, 2, _block_bounds()))
    while n_start <= 10**7:
        (_, n_hi), floors = next(blocks)
        parts.append(floors)
        if n_hi - n_start >= 2**20 or n_hi > 10**7:
            assert certified_floors(1, 1, 1, 2, n_start, np.concatenate(parts))
            parts, n_start = [], n_hi


def test_slow_slope_stream_stays_small():
    # (sqrt 2 - 1)/10**6 starts with a run of 2414212 zeros: the stream
    # tiles it from one held word, so nothing it holds grows with the run
    triples = [(-1, 1, 10**6)]
    list(_floor_stream(triples, 2, 1, 1))      # caches outside the peak
    tracemalloc.start()
    try:
        got = list(_floor_stream(triples, 2, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == list(reference_stream(triples, 2, 1, 2))
    assert got == [(1, 1, 2414214), (2, 1, 4828428)]
    assert peak < 2**17


def test_stream_across_the_int64_guard():
    # 10**6 + sqrt 2 leaves the guard near n = 1500 and sqrt 2 never does:
    # the first blocks are Sturmian and int64, the later ones object, and
    # the values run on across the handover
    triples = [(10**6, 1, 1), (0, 1, 1)]
    limit = 5000 * 10**6
    kinds = []
    for n_lo, values in _floor_blocks(triples, 2, limit):
        n_hi = n_lo + len(values)
        assert values.dtype == guarded_dtype(triples, 2, n_lo, n_hi)
        assert values.tolist() == [
            sum(_floor_exact(n * p, n * q, c, 2) for p, q, c in triples)
            for n in range(n_lo, n_hi)]
        kinds.append(values.dtype)
    assert kinds[:4] == [np.dtype(np.int64)] * 4
    assert kinds[4:] == [np.dtype(object)] * (len(kinds) - 4)
    assert (list(_floor_stream(triples, 2, 1, limit))
            == list(reference_stream(triples, 2, 1, limit)))


# ---------------------------------------------------------------------------
# a scan within int64 takes no scalar floor
# ---------------------------------------------------------------------------

def test_scan_makes_no_proposal_and_no_scalar_floor(monkeypatch, w3):
    # every floor of the scan comes from a Sturmian word or exact division
    family = TamuraFamily(w3)
    dtypes = {values.dtype for j in (1, 2, 3)
              for _, values in _floor_blocks(family._triples(j), 2, 10**5)}
    assert dtypes == {np.dtype(np.int64)}
    expected = verify_partition(w3, 10**5, collect_owners=True)
    calls = count_exact_calls(monkeypatch)
    assert verify_partition(w3, 10**5, collect_owners=True) == expected
    assert calls == []


def test_streams_past_the_guard_take_no_scalar_floor(monkeypatch, ctx2):
    # every ratio of these weights but 1 leaves the guard within the first
    # 1,520 n, and the reciprocals of the large weights at n = 1: the
    # streams run on their Sturmian words there too
    weights = [ctx2.element(1), ctx2.element(10**6, 1), ctx2.element(10**6, 2)]
    calls = count_exact_calls(monkeypatch)
    assert verify_partition(weights, 10**5).ok
    ones = TamuraFamily(weights).elements(1, 10**5)
    assert ones.dtype == object
    assert ones.tolist() == list(range(1, 10**5 + 1))    # A_1(n) = n below 10**6
    assert rayleigh_pair(weights[1], 10**5).ok
    report = uspensky_scan(weights, 2 * 10**6)
    assert (report.verdict, report.value) == ("collision", 10**6 + 1)
    assert (report.first, report.second) == ((1, 10**6 + 1), (2, 1))
    assert calls == []
