import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from interval_oracle import interval_compare, interval_sign
from helpers import FRACTIONS, random_quad
from reebspec.errors import ExprSyntaxError, RadicandError
from reebspec.quadfield import (
    FieldContext,
    QuadIrrational,
    floor_product,
    pairwise_rational_ratio,
    parse_expr,
    render,
)


# ---------------------------------------------------------------------------
# context validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [0, 1, 4, 9, 16, -2])
def test_bad_radicands_rejected(d):
    with pytest.raises(RadicandError):
        FieldContext(d)


def test_non_integer_radicand_rejected():
    with pytest.raises(RadicandError):
        FieldContext(2.5)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10])
def test_good_radicands_accepted(d):
    assert FieldContext(d).d == d


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_add_componentwise(ctx2):
    assert ctx2.element(1) + ctx2.sqrt_d() == ctx2.element(1, 1)
    a = ctx2.element(Fraction(1, 3), Fraction(2, 3))
    b = ctx2.element(Fraction(2, 3), Fraction(1, 3))
    assert a + b == ctx2.element(1, 1)


def test_add_cancellation(ctx5):
    a = ctx5.element(Fraction(1, 2), 1)
    b = ctx5.element(Fraction(1, 2), -1)
    assert a + b == ctx5.element(1, 0)


def test_mul_sqrt_squared(ctx2):
    assert ctx2.sqrt_d() * ctx2.sqrt_d() == ctx2.element(2)


def test_mul_norm_form(ctx2):
    assert ctx2.element(1, 1) * ctx2.element(1, -1) == ctx2.element(-1)


def test_mul_scalar(ctx5):
    assert ctx5.element(1, 1) * ctx5.element(2) == ctx5.element(2, 2)


def test_div_rationalizes(ctx2):
    one, s2 = ctx2.element(1), ctx2.sqrt_d()
    assert s2 / (one + s2) == ctx2.element(2, -1)
    assert (one + s2) / s2 == ctx2.element(1, Fraction(1, 2))


def test_div_self_is_one(ctx2):
    rng = random.Random(7)
    for _ in range(30):
        x = random_quad(rng, 2)
        if not x:
            continue
        assert x / x == ctx2.element(1)


def test_div_by_zero(ctx2):
    with pytest.raises(ZeroDivisionError):
        ctx2.element(1, 1) / ctx2.element(0)


BIG_FRACTIONS = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
# a surd part of 0 makes a rational element
SURD_PARTS = st.one_of(st.just(Fraction(0)), FRACTIONS, BIG_FRACTIONS)


def textbook_quotient(x, y):
    """x / y as x * conj(y) / N(y), with x and y in Q(sqrt(d))."""
    num, norm = x * y.conjugate(), y.norm()
    return QuadIrrational(num.p / norm, num.q / norm, x.d)


@given(d=st.sampled_from([2, 3, 5]),
       x=st.tuples(st.one_of(FRACTIONS, BIG_FRACTIONS), SURD_PARTS),
       y=st.tuples(st.one_of(FRACTIONS, BIG_FRACTIONS), SURD_PARTS),
       plain=st.sampled_from([None, "x int", "x Fraction", "y int", "y Fraction"]))
def test_div_equals_the_textbook_quotient(d, x, y, plain):
    # an int or Fraction operand on either side, through __rtruediv__ on the left
    x, y = QuadIrrational(*x, d), QuadIrrational(*y, d)
    a, b = x, y
    if plain is not None:
        side, kind = plain.split()
        value = (x if side == "x" else y).p
        value = int(value) if kind == "int" else value
        if side == "x":
            a, x = value, QuadIrrational(value, 0, d)
        else:
            b, y = value, QuadIrrational(value, 0, d)
    if not y:
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    got, want = a / b, textbook_quotient(x, y)
    assert (got, str(got), hash(got)) == (want, str(want), hash(want))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_div_by_zero_raises_for_every_operand_type(d):
    x = QuadIrrational(Fraction(-10**30, 7), Fraction(3, 10**30), d)
    zero = QuadIrrational(0, 0, d)
    for a, b in ((x, zero), (x, 0), (x, Fraction(0)), (1, zero), (Fraction(2, 3), zero)):
        with pytest.raises(ZeroDivisionError):
            a / b


def test_mismatched_radicand(ctx2, ctx5):
    with pytest.raises(RadicandError):
        ctx2.sqrt_d() + ctx5.sqrt_d()
    with pytest.raises(RadicandError):
        ctx2.sqrt_d() * ctx5.sqrt_d()


def test_field_axioms_exact():
    rng = random.Random(42)
    for d in (2, 5):
        one = QuadIrrational(1, 0, d)
        zero = QuadIrrational(0, 0, d)
        for _ in range(200):
            x = random_quad(rng, d)
            y = random_quad(rng, d)
            z = random_quad(rng, d)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == zero
            if x:
                assert x * (one / x) == one


# ---------------------------------------------------------------------------
# exact ordering
# ---------------------------------------------------------------------------

def test_compare_examples(ctx2):
    one, s2 = ctx2.element(1), ctx2.sqrt_d()
    assert (one + s2 - ctx2.element(2)).sign() == 1      # 2.414 > 2
    assert (s2 - s2).sign() == 0
    assert (s2 - ctx2.element(Fraction(3, 2))).sign() == -1  # sqrt(2) < 3/2


def test_compare_matches_interval_oracle():
    rng = random.Random(2024)
    for _ in range(10_000):
        d = rng.choice((2, 5))
        x = random_quad(rng, d)
        y = random_quad(rng, d)
        assert (x - y).sign() == interval_compare(x, y)


def test_sign_matches_interval_oracle():
    rng = random.Random(99)
    for _ in range(2000):
        x = random_quad(rng, rng.choice((2, 3, 5, 7)))
        assert x.sign() == interval_sign(x)


def test_total_order_transitive():
    rng = random.Random(5)
    for _ in range(300):
        xs = sorted(random_quad(rng, 5) for _ in range(3))
        assert xs[0] <= xs[1] <= xs[2]
        assert xs[0] <= xs[2]


# ---------------------------------------------------------------------------
# certified floors
# ---------------------------------------------------------------------------

def test_floor_product_examples(ctx2, ctx5):
    assert floor_product(1, ctx2.sqrt_d()) == 1
    phi = ctx5.element(Fraction(1, 2), Fraction(1, 2))
    assert floor_product(5, phi) == 8
    three = ctx2.element(3)
    for n in (1, 7, 123):
        assert floor_product(n, three) == 3 * n


def test_floor_product_certificate():
    # f <= n*x < f+1, assertable exactly in the field itself
    rng = random.Random(11)
    for _ in range(500):
        d = rng.choice((2, 5))
        x = random_quad(rng, d, positive=True)
        n = rng.randint(1, 10**6)
        f = floor_product(n, x)
        nx = n * x
        assert nx >= f
        assert nx < f + 1


def test_floor_product_near_integer_values(ctx2):
    # 99/70 is a continued-fraction convergent: 99/70 - sqrt(2) ~ 7e-5
    x = ctx2.element(Fraction(99, 70), -1)  # tiny positive
    assert x.sign() == 1
    assert floor_product(70, x) == 0  # 70*x = 99 - 70*sqrt(2) ~ 0.005
    y = ctx2.sqrt_d()
    assert floor_product(70, y) == 98  # 70*sqrt(2) = 98.994...
    assert floor_product(5, ctx2.element(Fraction(7, 5))) == 7  # exact integer hit


def test_floor_product_preconditions(ctx2):
    with pytest.raises(ValueError):
        floor_product(0, ctx2.sqrt_d())
    with pytest.raises(ValueError):
        floor_product(3, ctx2.element(0) - ctx2.sqrt_d())


# ---------------------------------------------------------------------------
# rationality
# ---------------------------------------------------------------------------

def test_is_rational(ctx2):
    assert ctx2.element(Fraction(3, 7)).is_rational()
    assert not ctx2.sqrt_d().is_rational()
    ratio = ctx2.element(1, 1) / ctx2.element(2, 2)
    assert ratio.is_rational()
    assert ratio == ctx2.element(Fraction(1, 2))


def test_pairwise_rational_ratio(ctx2):
    ws = [ctx2.element(1), ctx2.sqrt_d(), ctx2.element(1, 1)]
    assert pairwise_rational_ratio(ws) is None
    ws = [ctx2.element(1), ctx2.element(2)]
    j, k, ratio = pairwise_rational_ratio(ws)
    assert (j, k) == (1, 2)
    assert ratio == ctx2.element(Fraction(1, 2))
    # parallel irrational pair: (1+sqrt2)/(2+2sqrt2) = 1/2
    ws = [ctx2.element(1, 1), ctx2.element(2, 2), ctx2.sqrt_d()]
    j, k, ratio = pairwise_rational_ratio(ws)
    assert (j, k) == (1, 2)


# ---------------------------------------------------------------------------
# parsing / rendering
# ---------------------------------------------------------------------------

def test_parse_examples(ctx2, ctx5):
    assert parse_expr("1+sqrt(2)", ctx2) == ctx2.element(1, 1)
    assert parse_expr("3/2 - 1/2*sqrt(5)", ctx5) == ctx5.element(
        Fraction(3, 2), Fraction(-1, 2))
    assert parse_expr("7/3", ctx2) == ctx2.element(Fraction(7, 3))
    assert parse_expr("2*sqrt(5)", ctx5) == ctx5.element(0, 2)
    assert parse_expr("-1+sqrt(2)", ctx2) == ctx2.element(-1, 1)


def test_parse_perfect_square_radicand(ctx2):
    with pytest.raises(RadicandError):
        parse_expr("sqrt(4)", ctx2)


def test_parse_radicand_mismatch(ctx2):
    with pytest.raises(RadicandError):
        parse_expr("1+sqrt(3)", ctx2)


def test_parse_syntax_errors_carry_position(ctx2):
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("1+", ctx2)
    assert info.value.position == 2
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("1 # 2", ctx2)
    assert info.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse_expr("sqrt(2", ctx2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/0", ctx2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("", ctx2)


def test_render_suppresses_zero_terms(ctx2):
    assert render(ctx2.element(0)) == "0"
    assert render(ctx2.element(0, 1)) == "sqrt(2)"
    assert render(ctx2.element(0, -1)) == "-sqrt(2)"
    assert render(ctx2.element(Fraction(3, 2), Fraction(-1, 2))) == "3/2-1/2*sqrt(2)"
    assert render(ctx2.element(2, 3)) == "2+3*sqrt(2)"


def test_parse_render_roundtrip():
    rng = random.Random(314)
    for _ in range(300):
        d = rng.choice((2, 5))
        x = random_quad(rng, d)
        assert parse_expr(render(x), FieldContext(d)) == x


# ---------------------------------------------------------------------------
# misc surface
# ---------------------------------------------------------------------------

def test_equality_and_hash(ctx2):
    x = ctx2.element(Fraction(1, 2), Fraction(3, 4))
    y = ctx2.element(Fraction(2, 4), Fraction(6, 8))
    assert x == y and hash(x) == hash(y)
    assert ctx2.element(5) == 5
    assert ctx2.element(Fraction(1, 2)) == Fraction(1, 2)
    assert {x: "v"}[y] == "v"


def test_float_conversion(ctx2):
    assert abs(float(ctx2.element(1, 1)) - 2.414213562) < 1e-8


@pytest.mark.parametrize("d, a", [(2, 1), (5, 2)])
def test_float_of_a_small_unit_is_its_rounded_value(d, a):
    # (sqrt(d) - a)**k is P + Q*sqrt(d) with |P| and |Q|*sqrt(d) near
    # (sqrt(d) + a)**k / 2, so adding their doubles cancels away digits;
    # mpmath evaluates the power itself, with no cancellation
    ctx = FieldContext(d)
    unit = ctx.sqrt_d() - a
    x = ctx.element(1)
    for k in range(1, 41):
        x = x * unit
        with mpmath.workdps(50):
            assert float(x) == float((mpmath.sqrt(d) - a) ** k), k


@given(p=FRACTIONS, q=FRACTIONS, d=st.sampled_from([2, 3, 5, 7, 13]))
def test_float_is_the_50_digit_value_rounded(p, q, d):
    # |P + Q*sqrt(d)| >= 1/(|P| + |Q|*sqrt(d)) with |P|, |Q| at most 10**9,
    # so 50 digits keep about 30 after any cancellation
    with mpmath.workdps(50):
        expected = float(mpmath.mpf(p.numerator) / p.denominator
                         + mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(d))
    assert float(QuadIrrational(p, q, d)) == expected


def test_scaled_triple(ctx2):
    x = ctx2.element(Fraction(3, 4), Fraction(-5, 6))
    p, q, c = x.scaled_triple()
    assert c > 0
    assert Fraction(p, c) == x.p and Fraction(q, c) == x.q
