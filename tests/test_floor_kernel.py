"""Adversarial checks of the exact floor routes of quadfield.

The scalar exact routine quadfield._floor_exact is compared entry by entry
with the interval oracle, which shares no code with it, and so are the
stream route _slope_blocks (Sturmian words for an irrational slope) and
its rational division _floor_scaled, where a stream from n = 1 reaches the
window.  The windows are drawn where a floor is hardest to get right:
slopes with negative parts, Pell convergents that sit next to integers,
blocks at the edge of the int64 guard, n past 2**63, and streams that end
at a block boundary.  The int64 certificate of tests/helpers.certified_floors,
which checks the Sturmian blocks, is itself checked here to reject wrong
floors.  The random-access readers (floor_product, TamuraFamily.element,
orbit_index) take one scalar exact floor per slope and an integral n only.
"""

import ast
import inspect
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    HUGE_D,
    NON_SQUARES,
    certified_floors,
    count_exact_calls,
    reference_stream,
)
from interval_oracle import interval_floor_product
from reebspec import Ellipsoid, quadfield
from reebspec.cli import main
from reebspec.ellipsoid import cross_check_index, orbit_index
from reebspec.partitions import TamuraFamily, _floor_stream
from reebspec.quadfield import (
    FieldContext,
    QuadIrrational,
    _floor_exact,
    _floor_scaled,
    _int64_bound,
    _slope_blocks,
    floor_product,
)

INT64_LIMIT = 2**63


def exact_block(p, q, c, d, n_lo, n_hi):
    return [_floor_exact(n * p, n * q, c, d) for n in range(n_lo, n_hi)]


def oracle_block(p, q, c, d, n_lo, n_hi):
    if q == 0:      # a rational n*x can be an integer, which no interval decides
        return [n * p // c for n in range(n_lo, n_hi)]
    x = QuadIrrational(Fraction(p, c), Fraction(q, c), d)
    return [interval_floor_product(n, x) for n in range(n_lo, n_hi)]


def pell_convergents(q_max):
    """(p_k, q_k) with p_k/q_k -> sqrt(2) and q_k <= q_max."""
    p, q = 1, 1
    out = []
    while q <= q_max:
        out.append((p, q))
        p, q = p + 2 * q, p + q
    return out


# ---------------------------------------------------------------------------
# drawn blocks
# ---------------------------------------------------------------------------

starts = st.one_of(st.integers(0, 10**7), st.integers(2**28, 2**40))


@given(p=st.integers(-10**6, 10**6), q=st.integers(-10**4, 10**4),
       c=st.integers(1, 10**4), d=st.sampled_from(NON_SQUARES),
       n_lo=starts, length=st.integers(0, 24))
@example(p=-1, q=1, c=1, d=2, n_lo=1, length=24)       # sqrt(2) - 1 in W3
@example(p=-1, q=-1, c=1, d=2, n_lo=1, length=24)      # a negative slope
@example(p=5, q=0, c=3, d=2, n_lo=0, length=24)        # a rational slope
def test_block_matches_exact_and_oracle(p, q, c, d, n_lo, length):
    got = exact_block(p, q, c, d, n_lo, n_lo + length)
    assert len(got) == length
    assert got == oracle_block(p, q, c, d, n_lo, n_lo + length)
    if q == 0:
        assert _floor_scaled(p, c, d, n_lo, n_lo + length).tolist() == got


# ---------------------------------------------------------------------------
# Pell convergents: slopes and products next to integers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pk, qk", pell_convergents(2**40))
def test_pell_convergent_blocks(pk, qk):
    triples = [
        (pk, -qk, 1),      # p_k - q_k*sqrt(2) = +-1/(p_k + q_k*sqrt(2))
        (-pk, qk, 1),
        (pk, qk, 1),       # p_k + q_k*sqrt(2), next to 2*p_k
        (pk, qk, 2),
        (pk, qk, 7),
    ]
    for p, q, c in triples:
        want = oracle_block(p, q, c, 2, 1, 40)
        assert exact_block(p, q, c, 2, 1, 40) == want
        assert next(_slope_blocks(p, q, c, 2, [(1, 40)])).tolist() == want
    # n*sqrt(2) is within 1/(2*q_k) of p_k at n = q_k
    lo, hi = max(qk - 3, 0), qk + 3
    assert exact_block(0, 1, 1, 2, lo, hi) == oracle_block(0, 1, 1, 2, lo, hi)


@pytest.mark.parametrize("p, c, n_lo, n_hi", [
    (5, 3, 1, 300),
    (-7, 3, 0, 300),
    (10**6, 1, 10**3, 10**3 + 300),
])
def test_rational_slopes_divide_exactly(monkeypatch, p, c, n_lo, n_hi):
    # q = 0 within the guard: exact int64 division, with no scalar floor
    calls = count_exact_calls(monkeypatch)
    got = _floor_scaled(p, c, 2, n_lo, n_hi)
    assert got.dtype == np.int64
    assert got.tolist() == [n * p // c for n in range(n_lo, n_hi)]
    assert calls == []


@pytest.mark.parametrize("name", ("_sign_int", "_floor_exact", "_int64_bound",
                                  "_floor_scaled", "_continued_fraction",
                                  "_sturmian_letters", "_slope_blocks"))
def test_no_exact_floor_route_evaluates_a_float(name):
    # no true division, float literal, square root or float floor, and no
    # call out to a float proposal
    tree = ast.parse(inspect.getsource(getattr(quadfield, name)))
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Div)
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float))
        named = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        assert named not in ("sqrt", "float", "float64", "floor", "_propose_floors")


# ---------------------------------------------------------------------------
# the int64 certificate that checks the Sturmian blocks
# ---------------------------------------------------------------------------

def sqrt2_block(n_lo, n_hi):
    return np.array(exact_block(0, 1, 1, 2, n_lo, n_hi), dtype=np.int64)


def test_certificate_accepts_the_exact_floors():
    pk, qk = 131836323, 93222358      # pk**2 - 2*qk**2 = 1
    floors = sqrt2_block(qk - 2, qk + 3)
    # qk*sqrt(2) lies 2.7e-10 below the integer pk
    assert floors[2] == pk - 1
    assert certified_floors(0, 1, 1, 2, qk - 2, floors)
    assert certified_floors(-1, 1, 1, 2, 1, exact_block(-1, 1, 1, 2, 1, 300))
    assert certified_floors(5, 0, 3, 2, 0, [5 * n // 3 for n in range(300)])
    assert certified_floors(0, 1, 1, 2, 1, [])


@pytest.mark.parametrize("shift", (1, -1))
@pytest.mark.parametrize("at", (0, 2, 4))
def test_certificate_rejects_a_floor_off_by_one(shift, at):
    pk, qk = 131836323, 93222358
    floors = sqrt2_block(qk - 2, qk + 3)
    floors[at] += shift
    assert not certified_floors(0, 1, 1, 2, qk - 2, floors)
    rational = np.array([5 * n // 3 for n in range(1, 6)])
    rational[at] += shift
    assert not certified_floors(5, 0, 3, 2, 1, rational)


def test_certificate_rejects_a_floor_past_the_guard_bound():
    n_lo, n_hi = 1, 300
    bound = _int64_bound(0, 1, 1, 2, n_lo, n_hi)
    # unchecked, the huge floors would wrap f*c and a*a around in int64
    for wrong in (bound + 1, -bound - 1, 2**62, -2**62, 2**63 - 1):
        floors = sqrt2_block(n_lo, n_hi)
        floors[-1] = wrong
        assert not certified_floors(0, 1, 1, 2, n_lo, floors)


def test_certificate_refuses_a_block_outside_the_guard():
    end = last_guarded_end(0, 1, 1, 2, 8)
    with pytest.raises(ValueError, match="int64 guard"):
        certified_floors(0, 1, 1, 2, end - 7, exact_block(0, 1, 1, 2, end - 7, end + 1))


# ---------------------------------------------------------------------------
# random access: one scalar exact floor per slope, for an integral n only
# ---------------------------------------------------------------------------

def test_random_access_takes_one_scalar_floor_per_slope(monkeypatch, w3, ctx2):
    family, e = TamuraFamily(w3), Ellipsoid(w3)
    expected = (family.element(2, 10**15), orbit_index(e, 3, 10**9),
                floor_product(10**15, ctx2.element(1, 1)))
    calls = count_exact_calls(monkeypatch)
    blocks = []
    monkeypatch.setattr(quadfield, "_floor_scaled",
                        lambda *args: blocks.append(args))
    assert family.element(2, 10**15) == expected[0]
    assert len(calls) == 3
    assert orbit_index(e, 3, 10**9) == expected[1]
    assert len(calls) == 6
    assert floor_product(10**15, ctx2.element(1, 1)) == expected[2]
    assert calls[6:] == [(10**15, 10**15, 1, 2)]
    assert blocks == []


def test_a_numpy_n_does_not_overflow(w3):
    n = 3456025388713226321
    assert TamuraFamily(w3).element(2, np.int64(n)) == 10368076166139678962
    assert TamuraFamily(w3).element(2, n) == 10368076166139678962
    assert sum(interval_floor_product(n, w3[1] / a) for a in w3) == 10368076166139678962


def test_a_numpy_n_floors_as_the_python_int(ctx2):
    rng = random.Random(20)
    slopes = [ctx2.sqrt_d(), ctx2.element(1, 1), ctx2.element(-1, 1),
              ctx2.element(Fraction(3, 7), Fraction(5, 11))]
    for _ in range(500):
        x = rng.choice(slopes)
        n = rng.randint(1, 2**63 - 1)
        want = interval_floor_product(n, x)
        for kind in (np.int64, np.uint64, int):
            assert floor_product(kind(n), x) == want
    for kind in (np.int8, np.int32, np.uint16):
        assert floor_product(kind(100), ctx2.sqrt_d()) == 141


@pytest.mark.parametrize("n", (2.5, Fraction(5, 2), 3.0, np.float64(3.0)),
                         ids=("float", "fraction", "whole_float", "numpy_float"))
def test_a_non_integral_n_is_refused(n, ctx2, w3):
    e = Ellipsoid(w3)
    with pytest.raises(TypeError):
        floor_product(n, ctx2.sqrt_d())
    with pytest.raises(TypeError):
        TamuraFamily(w3).element(2, n)
    with pytest.raises(TypeError):
        orbit_index(e, 2, n)
    with pytest.raises(TypeError):
        cross_check_index(e, 2, n)


def test_cross_check_index_takes_a_numpy_n(w3):
    e = Ellipsoid(w3)
    record = cross_check_index(e, 2, np.int64(3))
    assert record == cross_check_index(e, 2, 3)
    assert type(record.n) is int
    assert record.agree


# ---------------------------------------------------------------------------
# the int64 guard
# ---------------------------------------------------------------------------

@given(p=st.integers(-2**40, 2**40), q=st.integers(-2**40, 2**40),
       c=st.integers(1, 2**40), d=st.sampled_from(NON_SQUARES + [2**61 - 1]),
       n_lo=st.integers(0, 2**40), length=st.integers(1, 2048))
def test_guard_keeps_every_certificate_product_in_int64(p, q, c, d, n_lo, length):
    bound = _int64_bound(p, q, c, d, n_lo, n_lo + length)
    if bound is None:
        return
    for n in (n_lo, n_lo + length - 1):
        true_floor = _floor_exact(n * p, n * q, c, d)
        assert abs(true_floor) <= bound
        assert n * q * n * q * d < INT64_LIMIT
        for f in (-bound, true_floor, bound):
            for a in (n * p - f * c, n * p - (f + 1) * c):
                assert abs(n * p) < INT64_LIMIT and abs(f * c) < INT64_LIMIT
                assert a * a < INT64_LIMIT


def last_guarded_end(p, q, c, d, length):
    """Largest n_hi with the block [n_hi - length, n_hi) inside the guard."""
    lo, hi = length, 2**40      # inside, outside
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _int64_bound(p, q, c, d, mid - length, mid) is None:
            hi = mid
        else:
            lo = mid
    return lo


@pytest.mark.parametrize("p, q, c, d", [
    (10**6, 1, 1, 2),                   # 10**6 + sqrt 2
    (-10**5, 10**5, 1, 2),              # 10**5 * (sqrt 2 - 1)
    (10**6, -10**5, 3, 13),             # a negative surd part
    (-1, 1, 2**21, 2**40 + 1),          # below 1, a radicand near 2**40
    (5, 0, 3, 2),                       # rational
])
def test_blocks_either_side_of_the_guard(p, q, c, d):
    # an irrational slope streams from n = 1 through the guard's edge, so
    # the edge lies within 10**4 n; a rational one divides at the edge
    end = last_guarded_end(p, q, c, d, 8)
    if q:
        assert end <= 10**4
        _, inside, outside = _slope_blocks(p, q, c, d, [(1, end - 8), (end - 8, end),
                                                        (end, end + 8)])
    else:
        inside = _floor_scaled(p, c, d, end - 8, end)
        outside = _floor_scaled(p, c, d, end, end + 8)
    assert inside.dtype == np.int64
    assert outside.dtype == object
    assert inside.tolist() == exact_block(p, q, c, d, end - 8, end)
    assert outside.tolist() == exact_block(p, q, c, d, end, end + 8)
    assert inside.tolist()[-3:] == oracle_block(p, q, c, d, end - 3, end)
    assert outside.tolist()[:3] == oracle_block(p, q, c, d, end, end + 3)


def test_n_beyond_int64(ctx2):
    n = 2**64 + 3
    assert floor_product(n, ctx2.sqrt_d()) == interval_floor_product(n, ctx2.sqrt_d())
    lo, hi = 2**63 - 2, 2**63 + 2
    assert exact_block(-1, 1, 1, 2, lo, hi) == oracle_block(-1, 1, 1, 2, lo, hi)
    got = _floor_scaled(-7, 3, 2, lo, hi)
    assert got.dtype == object
    assert got.tolist() == exact_block(-7, 0, 3, 2, lo, hi)
    assert got.tolist() == oracle_block(-7, 0, 3, 2, lo, hi)


def test_radicand_too_big_for_a_float():
    ctx = FieldContext(HUGE_D)
    for n in (1, 2, 1000):
        assert floor_product(n, ctx.sqrt_d()) == math.isqrt(n * n * HUGE_D)
    # a rational slope never needs sqrt(d), but d alone is past the guard
    got = _floor_scaled(5, 3, HUGE_D, 1, 50)
    assert got.tolist() == [5 * n // 3 for n in range(1, 50)]


def test_partition_with_a_320_digit_radicand(capsys):
    weights = f"1; sqrt({HUGE_D}); 1+sqrt({HUGE_D})"
    code = main(["partition", "--d", str(HUGE_D), "--weights", weights,
                 "--limit", "500"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "partition"


# ---------------------------------------------------------------------------
# stream edges
# ---------------------------------------------------------------------------

# the stream's blocks end at n = 64, 192, 448, 960, 1984, 4032, 6080, ...:
# 4032 and 6080 end the first two blocks of the 2048 cap
BLOCK_ENDS = (64, 192, 448, 960, 1984, 4032, 6080)


@pytest.mark.parametrize("end", BLOCK_ENDS)
@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_beatty_stream_limit_at_a_block_boundary(end, offset):
    triples = [(0, 1, 1)]
    for n in (end, end + 1):
        limit = _floor_exact(n, n, 1, 2) + offset
        assert (list(_floor_stream(triples, 2, 1, limit))
                == list(reference_stream(triples, 2, 1, limit)))


@pytest.mark.parametrize("end", BLOCK_ENDS)
def test_tamura_stream_limit_at_a_block_boundary(w3, end):
    family = TamuraFamily(w3)
    for j in (1, 2, 3):
        for limit in (family.element(j, end) + k for k in (-1, 0, 1)):
            assert (list(family.generator(j, limit))
                    == list(reference_stream(family._triples(j), 2, j, limit)))


def test_limit_below_the_first_value():
    triples = [(1, 1, 1)]      # 1 + sqrt(2): first value 2
    assert list(_floor_stream(triples, 2, 1, 0)) == []
    assert list(_floor_stream(triples, 2, 1, 1)) == []
    assert list(_floor_stream(triples, 2, 1, 2)) == [(2, 1, 1)]


@pytest.mark.parametrize("triple, limit", [
    ((-1, 1, 1), 1000),        # sqrt(2) - 1 = 0.414...
    ((99, -70, 1), 12),        # 99 - 70*sqrt(2) = 0.00505...
    ((1, 1, 7), 700),          # (1 + sqrt(2))/7 = 0.345...
    ((-1, 1, 1), 3000),        # n = 7243: two cap-sized blocks masked whole
])
def test_slopes_below_one_span_many_blocks(triple, limit):
    got = list(_floor_stream([triple], 2, 1, limit))
    assert got == list(reference_stream([triple], 2, 1, limit))
    assert [value for value, _, _ in got] == list(range(1, limit + 1))
    assert got[-1][2] > BLOCK_ENDS[2]
