import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebspec import czindex
from reebspec.czindex import (
    RotationPath,
    SymplecticPath,
    crossing_form,
    cz_index,
    cz_rotation_analytic,
    direct_sum,
    find_crossings,
    min_rotation_samples,
    standard_j,
    symplectic_defect,
)
from helpers import (
    candidate_runs,
    constant,
    loop_candidate_times,
    random_rotation_pair,
    reference_crossing,
    rots,
    split_at_peaks,
)
from reebspec.errors import (
    CrossingError,
    DegenerateCrossingError,
    FlatCrossingError,
    NonIsolatedCrossingError,
    NotACrossingError,
)

TWO_PI = 2.0 * math.pi


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_noninteger_pair(rng, margin=1e-3):
    """(alpha, T) with alpha, T in [0.1, 10] and dist(T*alpha, Z) > margin."""
    while True:
        alpha = rng.uniform(0.1, 10.0)
        big_t = rng.uniform(0.1, 10.0)
        prod = alpha * big_t
        if abs(prod - round(prod)) > margin:
            return alpha, big_t


# ---------------------------------------------------------------------------
# structure: J, symplecticity
# ---------------------------------------------------------------------------

def test_standard_j_squares_to_minus_one():
    for n in (1, 2, 3):
        j = standard_j(n)
        assert np.allclose(j @ j, -np.eye(2 * n))
        assert np.allclose(j.T, -j)


def test_symplectic_defect_and_matrix():
    assert symplectic_defect(rot(0.7)) < 1e-15
    assert symplectic_defect(np.diag([2.0, 0.5])) < 1e-15
    assert symplectic_defect(np.diag([2.0, 2.0])) > 1


def test_path_samples_are_symplectic():
    path = RotationPath([1.0, 3.0], 5.0)
    for t in np.linspace(0, 5, 50):
        assert symplectic_defect(path.evaluate(t)) <= 1e-9
    assert symplectic_defect(path.evaluate(1.234)) <= 1e-9


def test_non_symplectic_path_rejected():
    bad = SymplecticPath(0.0, 1.0, lambda ts: (1.0 + ts)[:, None, None] * np.eye(2))
    with pytest.raises(ValueError, match="leaves Sp"):
        find_crossings(bad)


def test_evaluator_that_ignores_its_times_is_rejected_at_construction():
    with pytest.raises(ValueError, match="expected \\(1, 2n, 2n\\)"):
        SymplecticPath(0.0, 1.0, lambda ts: np.eye(2))


def test_fixed_length_stack_is_rejected_at_the_grid():
    # one matrix fits the one-time probe, but would broadcast over a chunk
    path = SymplecticPath(0.0, 1.0, lambda ts: np.diag([2.0, 0.5])[None])
    with pytest.raises(ValueError, match="expected \\(4096, 2, 2\\)"):
        find_crossings(path)
    # the same holds for the derivative stack, read at the two crossings
    path = SymplecticPath(0.0, TWO_PI, rots, derivative=lambda ts: np.eye(2)[None])
    with pytest.raises(ValueError, match="expected \\(2, 2, 2\\)"):
        find_crossings(path)


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------

def test_crossings_of_one_and_a_half_turns():
    crossings = find_crossings(RotationPath([1.0], TWO_PI * 1.5))
    assert [round(c.t, 8) for c in crossings] == [0.0, round(TWO_PI, 8)]
    assert all(c.signature == 2 for c in crossings)
    assert all(c.kernel_dim == 2 for c in crossings)
    assert not any(c.degenerate for c in crossings)


def test_half_turn_crosses_only_at_start():
    crossings = find_crossings(RotationPath([1.0], math.pi))
    assert [c.t for c in crossings] == [0.0]


def test_identity_path_is_non_isolated():
    ident = SymplecticPath(0.0, 1.0, constant(np.eye(2)))
    with pytest.raises(NonIsolatedCrossingError):
        find_crossings(ident)


def test_kernel_basis_is_orthonormal():
    crossings = find_crossings(RotationPath([1.0, 2.0], TWO_PI * 1.2))
    for c in crossings:
        z = c.kernel_basis
        assert np.allclose(z.T @ z, np.eye(z.shape[1]), atol=1e-10)


# ---------------------------------------------------------------------------
# crossing form
# ---------------------------------------------------------------------------

def test_form_is_alpha_identity():
    path = RotationPath([2.0], TWO_PI)
    f0 = crossing_form(path, 0.0)
    assert np.allclose(f0, 2.0 * np.eye(2), atol=1e-9)
    # any interior crossing looks the same
    f_mid = crossing_form(path, math.pi)
    assert np.allclose(np.linalg.eigvalsh(f_mid), [2.0, 2.0], atol=1e-9)


def test_form_block_diagonal_at_identity():
    path = RotationPath([1.0, 3.0], 1.0)
    f0 = crossing_form(path, 0.0)
    assert np.allclose(sorted(np.linalg.eigvalsh(f0)), [1.0, 1.0, 3.0, 3.0],
                       atol=1e-9)


def test_form_requires_a_crossing():
    path = RotationPath([1.0], TWO_PI)
    with pytest.raises(NotACrossingError):
        crossing_form(path, 1.0)


# ---------------------------------------------------------------------------
# the index
# ---------------------------------------------------------------------------

def test_index_basic_values():
    assert cz_index(RotationPath([1.0], TWO_PI * 1.5)) == 3
    assert cz_index(RotationPath([1.0], TWO_PI)) == 2
    const = SymplecticPath(0.0, 1.0, constant(np.diag([2.0, 0.5])))
    assert cz_index(const) == 0


def test_analytic_values():
    assert cz_rotation_analytic([1.0], 3 * math.pi) == 3
    assert cz_rotation_analytic([1.0, 1.0], math.pi) == 2
    assert cz_rotation_analytic([1.0], TWO_PI) == 2


def test_analytic_rejects_non_finite_turns():
    with pytest.raises(ValueError, match="not finite"):
        cz_rotation_analytic([1.0], math.inf)
    with pytest.raises(ValueError, match="not finite"):
        cz_rotation_analytic([1e308], 1e308)


def test_rotation_path_rejects_an_under_resolved_grid():
    # 1000/(2*pi) = 159.2 turns need ceil(8 * 159.2) + 16 = 1290 samples
    assert min_rotation_samples([1.0], 1000.0) == 1290
    assert min_rotation_samples([0.25, 1.0], 1000.0) == 1290
    with pytest.raises(ValueError, match="need at least 1290"):
        RotationPath([1.0], 1000.0, sample_count=1289)
    # at the default 4096 samples the engine returned 301 here, not 31831
    with pytest.raises(ValueError, match="need at least 127340"):
        RotationPath([1.0], 100000.0)
    assert cz_index(RotationPath([1.0], 1000.0, sample_count=1290)) == 319
    with pytest.raises(ValueError, match="not finite"):
        min_rotation_samples([1e308], 1e308)


def test_numeric_matches_analytic_on_random_rotations():
    rng = random.Random(1729)
    for _ in range(40):
        alpha, big_t = random_noninteger_pair(rng)
        path = RotationPath([alpha], TWO_PI * big_t)
        assert cz_index(path) == cz_rotation_analytic([alpha], TWO_PI * big_t)


def test_integer_rotation_number_gives_twice():
    for k in (1, 2, 3):
        assert cz_index(RotationPath([1.0], TWO_PI * k)) == 2 * k


def test_index_is_integer_on_rotation_paths():
    rng = random.Random(55)
    for _ in range(20):
        alpha, big_t = random_noninteger_pair(rng)
        value = cz_index(RotationPath([alpha], TWO_PI * big_t))
        assert isinstance(value, Fraction) and value.denominator == 1


def test_multifrequency_index():
    # freqs (1, 2) over 1.3 turns of the slow block
    duration = TWO_PI * 1.3
    expected = (1 + 2 * 1) + (1 + 2 * 2)
    assert cz_index(RotationPath([1.0, 2.0], duration)) == expected
    assert cz_rotation_analytic([1.0, 2.0], duration) == expected


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------

def test_direct_sum_matches_rotation_path():
    p = direct_sum(RotationPath([1.0], math.pi), RotationPath([2.0], math.pi))
    q = RotationPath([1.0, 2.0], math.pi)
    for t in np.linspace(0, math.pi, 17):
        assert np.allclose(p.evaluate(t), q.evaluate(t), atol=1e-14)
        assert np.allclose(p.derivative_at(t), q.derivative_at(t), atol=1e-12)


def test_direct_sum_domain_mismatch():
    with pytest.raises(ValueError, match="domain"):
        direct_sum(RotationPath([1.0], 1.0), RotationPath([1.0], 2.0))


def test_direct_sum_additivity():
    rng = random.Random(4321)
    for _ in range(25):
        a1, a2, duration = random_rotation_pair(rng)
        p1 = RotationPath([a1], duration)
        p2 = RotationPath([a2], duration)
        assert cz_index(direct_sum(p1, p2)) == cz_index(p1) + cz_index(p2)


def test_direct_sum_with_constant_factor_adds_zero():
    p = RotationPath([1.0], TWO_PI * 1.5)
    const = SymplecticPath(p.a, p.b, constant(np.diag([2.0, 0.5])))
    assert cz_index(direct_sum(p, const)) == cz_index(p) == 3


def test_direct_sum_with_identity_factor_is_non_isolated():
    # a constant identity block makes every t a crossing for the numeric
    # engine; the analytic engine handles the rotation factor alone
    p = RotationPath([1.0], TWO_PI * 1.5)
    ident = SymplecticPath(p.a, p.b, constant(np.eye(2)))
    with pytest.raises(NonIsolatedCrossingError):
        cz_index(direct_sum(p, ident))
    assert cz_rotation_analytic([1.0], TWO_PI * 1.5) == 3


# ---------------------------------------------------------------------------
# reparametrization invariance
# ---------------------------------------------------------------------------

def reparametrized_rotation(alpha, duration, with_derivative):
    """R(alpha * phi(s)) on [0, 1] with phi monotone, phi' > 0."""
    def phi(s):
        return duration * (s * s + s) / 2.0

    def dphi(s):
        return duration * (2.0 * s + 1.0) / 2.0

    k = np.array([[0.0, -1.0], [1.0, 0.0]])
    evaluator = lambda s: rots(alpha * phi(s))
    derivative = None
    if with_derivative:
        derivative = lambda s: (alpha * dphi(s))[:, None, None] * (k @ rots(alpha * phi(s)))
    return SymplecticPath(0.0, 1.0, evaluator, derivative=derivative)


@pytest.mark.parametrize("with_derivative", [True, False])
def test_reparametrization_invariance(with_derivative):
    rng = random.Random(86)
    for _ in range(8):
        alpha, big_t = random_noninteger_pair(rng, margin=5e-3)
        duration = TWO_PI * big_t
        straight = cz_index(RotationPath([alpha], duration))
        bent = cz_index(reparametrized_rotation(alpha, duration, with_derivative))
        assert bent == straight


def test_finite_differences_match_the_analytic_derivative():
    # forward within h of a, central inside, backward within h of b
    exact = reparametrized_rotation(1.3, TWO_PI * 1.7, with_derivative=True)

    def inside(ts):
        assert np.all((ts >= exact.a) & (ts <= exact.b)), "sampled outside [a, b]"
        return exact.evaluate_batch(ts)

    approx = SymplecticPath(exact.a, exact.b, inside)
    h = 1e-6 * (approx.b - approx.a)
    times = [approx.a, approx.a + h / 2, (approx.a + approx.b) / 2,
             approx.b - h / 2, approx.b]
    for t in times:
        assert np.abs(approx.derivative_at(t) - exact.derivative_at(t)).max() <= 1e-5
    assert np.abs(approx.derivative_batch(times)
                  - exact.derivative_batch(times)).max() <= 1e-5


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def squared_rotation():
    """R(t^2) on [0, 1]: zero derivative at its t = 0 crossing."""
    k = np.array([[0.0, -1.0], [1.0, 0.0]])
    return SymplecticPath(
        0.0, 1.0,
        lambda ts: rots(ts * ts),
        derivative=lambda ts: (2.0 * ts)[:, None, None] * (k @ rots(ts * ts)),
    )


def test_degenerate_crossing_raises():
    path = squared_rotation()
    crossings = find_crossings(path)
    assert len(crossings) == 1 and crossings[0].degenerate
    with pytest.raises(DegenerateCrossingError):
        cz_index(path)


def test_flat_crossing_raises():
    # rotation stops just short of a full turn: sigma_min dips to ~2e-4
    delta = 2e-4
    k = np.array([[0.0, -1.0], [1.0, 0.0]])

    def f(ts):
        return (TWO_PI - delta) * np.sin(ts)

    def df(ts):
        return (TWO_PI - delta) * np.cos(ts)

    path = SymplecticPath(
        0.0, math.pi,
        lambda ts: rots(f(ts)),
        derivative=lambda ts: df(ts)[:, None, None] * (k @ rots(f(ts))),
    )
    with pytest.raises(FlatCrossingError):
        find_crossings(path)


def test_short_of_crossing_at_endpoint_is_flat():
    # T*alpha = 0.99998: the missing crossing sits just beyond b
    path = RotationPath([1.0], TWO_PI * 0.99998)
    with pytest.raises(FlatCrossingError):
        cz_index(path)


def test_near_endpoint_interior_crossing_is_clean():
    # T*alpha = 1.00002: the crossing is interior, close to b; the small
    # endpoint sigma must not be mistaken for an ambiguous crossing
    path = RotationPath([1.0], TWO_PI * 1.00002)
    assert cz_index(path) == 3


# ---------------------------------------------------------------------------
# closed-form sigma_min of block-diagonal stacks
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def oracle_sigma_min(mat):
    """sigma_min(mat - id) of a block-diagonal matrix at 40 digits.

    Works on the float entries of mat - id, the matrix both routes see.  Per
    2x2 block M = [[a, b], [c, d]], sigma_max = (|z_1| + |z_2|) / 2 with
    z_1 = (a + d) + i(c - b), z_2 = (a - d) + i(c + b), and
    sigma_min = |det M| / sigma_max; the smallest block value is returned.
    """
    shifted = mat - np.eye(mat.shape[0])
    values = []
    with mpmath.workdps(40):
        for l in range(0, mat.shape[0], 2):
            a, b, c, d = (mpmath.mpf(x) for x in
                          shifted[l:l + 2, l:l + 2].ravel().tolist())
            total = mpmath.hypot(a + d, c - b) + mpmath.hypot(a - d, c + b)
            values.append(2 * abs(a * d - b * c) / total if total else mpmath.mpf(0))
        return float(min(values))


def _magnitude(draw):
    return draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))


@st.composite
def sp2_blocks(draw):
    """A 2x2 symplectic block of one of four kinds, at scales 1e-3 to 1e3."""
    kind = draw(st.sampled_from(["rotation", "hyperbolic", "shear", "random"]))
    if kind == "rotation":
        # near-identity turn, possibly after whole turns
        theta = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-14.0, -2.0))
        return rot(2.0 * math.pi * draw(st.integers(0, 5)) + theta)
    if kind == "hyperbolic":
        k = 10.0 ** draw(st.floats(-3.0, 3.0))
        phi = draw(st.floats(0.0, math.pi))
        return rot(phi) @ np.diag([k, 1.0 / k]) @ rot(-phi)
    if kind == "shear":
        shear = np.array([[1.0, _magnitude(draw)], [0.0, 1.0]])
        return shear.T if draw(st.booleans()) else shear
    p, q, r = (_magnitude(draw) for _ in range(3))
    return np.array([[p, q], [r, (1.0 + q * r) / p]])


@st.composite
def block_diagonal_stacks(draw):
    n = draw(st.integers(1, 3))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        mat = np.zeros((2 * n, 2 * n))
        for l in range(n):
            mat[2 * l:2 * l + 2, 2 * l:2 * l + 2] = draw(sp2_blocks())
        mats.append(mat)
    return np.array(mats)


def steering_sigma_min(mats):
    """The steering sigma_min of each matrix of a stack, read by
    _sigma_min_many from a path whose value at t = i is mats[i]."""
    path = SymplecticPath(0.0, len(mats), lambda ts: mats[ts.astype(int)])
    return czindex._sigma_min_many(path, np.arange(len(mats), dtype=float))


@given(block_diagonal_stacks())
def test_closed_form_sigma_min_matches_lapack_and_oracle(mats):
    closed = steering_sigma_min(mats)
    singular = np.linalg.svd(mats - np.eye(mats.shape[-1]), compute_uv=False)
    for value, s, mat in zip(closed, singular, mats):
        scale = EPS * s[0]
        assert abs(value - s[-1]) <= 4.0 * scale
        # LAPACK itself is off by up to about 1.9 * scale on such blocks
        assert abs(value - oracle_sigma_min(mat)) <= 3.0 * scale


def test_any_off_block_entry_takes_the_lapack_branch(monkeypatch):
    mats = RotationPath([1.0, 2.0, 3.0], 7.0).evaluate_batch(np.linspace(0.0, 7.0, 64))
    mats[17, 0, 5] = 1e-300
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    got = steering_sigma_min(mats)
    assert calls == [(64, 6, 6)]
    want = svd(mats - np.eye(6), compute_uv=False)[:, -1]
    assert got.tobytes() == want.tobytes()


def test_closed_form_of_identity_blocks_is_zero_without_warning():
    one_block = np.array([np.eye(2), rot(1.0)])
    two_blocks = np.zeros((1, 4, 4))
    two_blocks[0, :2, :2] = rot(0.5)
    two_blocks[0, 2:, 2:] = np.eye(2)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        single = steering_sigma_min(one_block)
        pair = steering_sigma_min(two_blocks)
    assert single[0] == 0.0
    assert single[1] == pytest.approx(2.0 * math.sin(0.5), rel=1e-15)
    assert pair.tolist() == [0.0]


def one_at_a_time_defects(mats):
    """(block, matmul) Sp(2n) defect of every matrix of a block-diagonal
    stack, each read by czindex._stack_defect from a one-matrix stack."""
    out = []
    for i in range(len(mats)):
        one = mats[i:i + 1]
        blocks = [one[:, r::2, c::2].diagonal(axis1=1, axis2=2) for r in (0, 1) for c in (0, 1)]
        out.append((czindex._stack_defect(one, blocks), czindex._stack_defect(one, None)))
    return out


def defect_reads(monkeypatch):
    """Record, for every _stack_defect call, whether it read block entries."""
    real, reads = czindex._stack_defect, []

    def spy(mats, blocks):
        reads.append("blocks" if blocks is not None else "matmul")
        return real(mats, blocks)

    monkeypatch.setattr(czindex, "_stack_defect", spy)
    return reads


@given(block_diagonal_stacks())
def test_block_defect_matches_the_matmul_defect(mats):
    # max_l |det B_l - 1| and max |Psi^T J Psi - J| differ by rounding only:
    # within 4e-16 on unit-scale blocks, scaled by the largest entry squared
    scale = max(1.0, float(np.abs(mats).max())) ** 2
    for block, matmul in one_at_a_time_defects(mats):
        assert abs(block - matmul) <= 4e-16 * scale


def test_block_defect_matches_the_matmul_defect_on_rotation_paths():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        freqs = rng.uniform(0.1, 10.0, n).tolist()
        mats = RotationPath(freqs, 1e3, sample_count=20000).evaluate_batch(
            rng.uniform(0.0, 1e3, 256))
        for block, matmul in one_at_a_time_defects(mats):
            assert abs(block - matmul) <= 4e-16


def test_grid_reads_the_block_defect_of_a_rotation_path(monkeypatch):
    reads = defect_reads(monkeypatch)
    path = RotationPath([1.0, 2.0, 3.0], TWO_PI * 3.3, sample_count=10000)
    assert cz_index(path) == cz_rotation_analytic([1.0, 2.0, 3.0], TWO_PI * 3.3)
    assert reads == ["blocks"] * 3  # one per SIGMA_CHUNK-time grid chunk


def test_non_symplectic_block_of_a_6x6_path_is_rejected(monkeypatch):
    # the third 2x2 block is (1 + t) id: block diagonal, so the grid reads
    # the defect from the block determinants, and it is (1 + t)^2 - 1
    def evaluator(ts):
        out = RotationPath([1.0, 2.0, 3.0], 1.0)._rotations(ts)
        out[:, 4:, 4:] = (1.0 + ts)[:, None, None] * np.eye(2)
        return out

    reads = defect_reads(monkeypatch)
    with pytest.raises(ValueError, match="leaves Sp"):
        find_crossings(SymplecticPath(0.0, 1.0, evaluator))
    assert reads == ["blocks"]


def test_off_block_entry_takes_the_matmul_defect(monkeypatch):
    # x_1 += eps * y_3 keeps every 2x2 diagonal block a rotation, so the
    # block determinants all read 1, but Psi^T J Psi - J has entries eps
    eps = 1e-6

    def evaluator(ts):
        out = RotationPath([1.0, 2.0, 3.0], 1.0)._rotations(ts)
        out[:, 0, 5] = eps
        return out

    mats = evaluator(np.linspace(0.0, 1.0, 64))
    j = standard_j(3)
    assert czindex._stack_defect(mats, None) == \
        np.abs(mats.transpose(0, 2, 1) @ j @ mats - j).max() >= eps / 2
    reads = defect_reads(monkeypatch)
    with pytest.raises(ValueError, match="leaves Sp"):
        find_crossings(SymplecticPath(0.0, 1.0, evaluator))
    assert reads == ["matmul"]


@settings(max_examples=30)
@given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3), st.floats(1.0, 1e3),
       st.integers(1, 2 * czindex.SIGMA_CHUNK + 7), st.integers(0, 2**32 - 1))
def test_rotation_block_entries_are_the_stack_route(freqs, duration, count, seed):
    # a RotationPath steers from block entries without building a stack; the
    # same path read through its stack, by the off-block test, is the reference
    path = RotationPath(freqs, duration, sample_count=min_rotation_samples(freqs, duration))
    ts = np.random.default_rng(seed).uniform(0.0, duration, count)
    blocks, mats = path.block_entries(ts)
    assert mats is None
    stack = path.evaluate_batch(ts)
    for got, (i, k) in zip(blocks, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert got.tobytes() == stack[:, i::2, k::2].diagonal(axis1=1, axis2=2).tobytes()
    via_stack = SymplecticPath(path.a, path.b, path.evaluate_batch)
    assert czindex._sigma_min_many(path, ts, check_symplectic=True).tobytes() == \
        czindex._sigma_min_many(via_stack, ts, check_symplectic=True).tobytes()


@st.composite
def rotation_paths_and_times(draw):
    """(path, times): a RotationPath of 1-3 blocks at its coarsest grid, and
    random times in its domain followed by exact crossing times 2*pi*k/alpha_l
    of every block (each drawn k within the domain)."""
    freqs = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3))
    duration = draw(st.floats(1.0, 1e3))
    path = RotationPath(freqs, duration, sample_count=min_rotation_samples(freqs, duration))
    ts = draw(st.lists(st.floats(0.0, duration), min_size=1, max_size=32))
    for f in freqs:
        turns = math.floor(duration * f / TWO_PI)
        ts += [min(TWO_PI * k / f, duration)
               for k in draw(st.lists(st.integers(0, turns), min_size=1, max_size=4))]
    return path, np.array(ts)


@given(rotation_paths_and_times())
def test_half_angle_route_is_the_block_closed_form_and_lapack(path_and_times):
    path, ts = path_and_times
    half = path.steering_sigma_min(ts)
    assert czindex._sigma_min_many(path, ts).tobytes() == half.tobytes()
    blocks, _ = path.block_entries(ts)
    assert np.abs(half - czindex._sigma_min_blocks(blocks)).max() <= 1e-15
    assert np.abs(half - czindex._lapack_sigma_min(path.evaluate_batch(ts))).max() <= 1e-15


@given(rotation_paths_and_times(), st.data())
def test_half_angle_route_obeys_the_lipschitz_bound(path_and_times, data):
    # the bound the candidate gates rely on, with s random or a fixed offset
    # from t (down to 1e-9, where a crossing's V is steepest); each angle
    # alpha_l * t is one rounded product, off by at most half an ulp, which
    # is EPS / 2 * L * t at most
    path, ts = path_and_times
    size = len(ts)
    shifts = data.draw(st.lists(st.floats(-1.0, 1.0).filter(lambda x: abs(x) >= 1e-9),
                                min_size=size, max_size=size))
    far = data.draw(st.lists(st.floats(0.0, path.b), min_size=size, max_size=size))
    for ss in (np.clip(ts + np.array(shifts), 0.0, path.b), np.array(far)):
        rounding = EPS / 2.0 * path.lipschitz * (ts + ss)
        gap = np.abs(path.steering_sigma_min(ts) - path.steering_sigma_min(ss))
        assert np.all(gap <= path.lipschitz * np.abs(ts - ss) + 1e-15 + rounding)


def test_verdicts_read_lapack_not_the_steering_values(monkeypatch):
    # steering values that never fall below TOL_KERNEL would make every
    # crossing look flat, were they read for a verdict: both routes are
    # raised, the grid's block closed form and the half-angle route of the
    # rescan, golden and probe passes
    closed, half_angles = czindex._sigma_min_blocks, RotationPath.steering_sigma_min
    reads = []
    monkeypatch.setattr(czindex, "_sigma_min_blocks",
                        lambda blocks: reads.append("blocks") or
                        closed(blocks) + 2.0 * czindex.TOL_KERNEL)
    monkeypatch.setattr(RotationPath, "steering_sigma_min",
                        lambda self, ts: reads.append("half") or
                        half_angles(self, ts) + 2.0 * czindex.TOL_KERNEL)
    duration = TWO_PI * 1.3
    assert cz_index(RotationPath([1.0, 2.0], duration)) == \
        cz_rotation_analytic([1.0, 2.0], duration)
    assert reads.count("blocks") == 1 and reads.count("half") > 1


# ---------------------------------------------------------------------------
# naturality: conjugation by a non-orthogonal symplectic matrix
# ---------------------------------------------------------------------------

def random_sp4(rng):
    """shear * squeeze * [[I, S], [0, I]] coupling with cond <= 10, in the
    (x_1, y_1, x_2, y_2) order of standard_j(2)."""
    while True:
        shear = np.eye(4)
        shear[0, 1] = rng.uniform(-1.0, 1.0)
        mu = rng.uniform(-0.5, 0.5)
        squeeze = np.diag([1.0, 1.0, math.exp(mu), math.exp(-mu)])
        s11, s12, s22 = (rng.uniform(-0.5, 0.5) for _ in range(3))
        coupling = np.eye(4)
        # x_l += sum_k S_lk y_k with S symmetric
        coupling[0, 1], coupling[0, 3] = s11, s12
        coupling[2, 1], coupling[2, 3] = s12, s22
        a = shear @ squeeze @ coupling
        if np.linalg.cond(a) <= 10.0:
            return a


def conjugated(path, a):
    a_inv = np.linalg.inv(a)
    return SymplecticPath(
        path.a, path.b,
        lambda ts: a @ path.evaluate_batch(ts) @ a_inv,
        derivative=lambda ts: a @ path.derivative_batch(ts) @ a_inv,
        sample_count=path.sample_count,
    )


def test_index_is_invariant_under_symplectic_conjugation():
    rng = random.Random(2718)
    for _ in range(15):
        a1, a2, duration = random_rotation_pair(rng, margin=0.05)
        a = random_sp4(rng)
        assert symplectic_defect(a) < 1e-12
        assert np.abs(a - np.round(a)).max() > 0  # not a permutation
        path = conjugated(RotationPath([a1, a2], duration), a)
        assert cz_index(path) == cz_rotation_analytic([a1, a2], duration)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def counted(path):
    calls = {"evaluate": 0, "evaluate_batch": 0, "block_entries": 0,
             "steering_sigma_min": 0}
    evaluate, evaluate_batch, block_entries, steering = (
        path.evaluate, path.evaluate_batch, path.block_entries, path.steering_sigma_min)

    def one(t):
        calls["evaluate"] += 1
        return evaluate(t)

    def many(ts):
        calls["evaluate_batch"] += 1
        return evaluate_batch(ts)

    def blocks(ts):
        calls["block_entries"] += 1
        return block_entries(ts)

    def half_angles(ts):
        calls["steering_sigma_min"] += 1
        return steering(ts)

    path.evaluate, path.evaluate_batch, path.block_entries, path.steering_sigma_min = (
        one, many, blocks, half_angles)
    return calls


@pytest.mark.parametrize("turns", [15.3, 31.3])
def test_stacked_evaluations_do_not_grow_with_crossings(turns):
    freqs = [1.0, math.sqrt(2.0), math.sqrt(3.0)]
    duration = TWO_PI * turns
    path = RotationPath(freqs, duration)
    calls = counted(path)
    crossings = find_crossings(path)
    assert len(crossings) >= 40
    assert cz_index(RotationPath(freqs, duration)) == cz_rotation_analytic(freqs, duration)
    # classification is stacked too: no scalar evaluation at all
    assert calls["evaluate"] == 0
    # one stacked evaluation, block read or half-angle read per grid chunk,
    # recursion level and golden iteration, whatever the number of crossings
    assert calls["block_entries"] > 0 and calls["steering_sigma_min"] > 0
    assert (calls["evaluate_batch"] + calls["block_entries"]
            + calls["steering_sigma_min"]) <= 64


@pytest.mark.parametrize("offset", [0.0, 0.5, 1.0])
def test_crossing_at_a_chunk_boundary(offset):
    # the first turn ends `offset` steps after the last sample of the first
    # SIGMA_CHUNK-time chunk of a 10000-sample grid
    samples = 10000
    last = czindex.SIGMA_CHUNK - 1
    duration = TWO_PI * (samples - 1) / (last + offset)
    path = RotationPath([1.0], duration, sample_count=samples)
    assert samples > czindex.SIGMA_CHUNK
    step = duration / (samples - 1)
    times = [c.t for c in find_crossings(path)]
    assert any(abs(t - TWO_PI) < step for t in times)
    assert abs(TWO_PI / step - (last + offset)) < 1e-6
    assert cz_index(path) == cz_rotation_analytic([1.0], duration)


@pytest.mark.parametrize("alpha, turns", [(1.0, 3.7), (2.5, 12.2), (7.3, 40.45)])
def test_crossing_times_are_accurate(alpha, turns):
    duration = TWO_PI * turns / alpha
    crossings = find_crossings(RotationPath([alpha], duration))
    assert len(crossings) == math.floor(turns) + 1
    for k, c in enumerate(crossings):
        assert abs(c.t - TWO_PI * k / alpha) <= 1e-9 * duration


@pytest.mark.parametrize("name", [
    "rotation", "conjugated", "constant factor", "finite differences", "degenerate"])
def test_stacked_classification_equals_the_per_time_reference(name):
    rng = random.Random(1234)
    paths = {
        "rotation": lambda: RotationPath(
            [1.0, math.sqrt(2.0), math.sqrt(3.0)], TWO_PI * 30.0),
        "conjugated": lambda: conjugated(
            RotationPath([1.0, math.sqrt(3.0)], TWO_PI * 4.3), random_sp4(rng)),
        "constant factor": lambda: direct_sum(
            RotationPath([1.0], TWO_PI * 2.5),
            SymplecticPath(0.0, TWO_PI * 2.5, constant(np.diag([2.0, 0.5])))),
        "finite differences": lambda: reparametrized_rotation(
            1.7, TWO_PI * 3.4, with_derivative=False),
        "degenerate": squared_rotation,
    }
    path = paths[name]()
    crossings = find_crossings(path)
    assert crossings
    assert all(c0.t < c1.t for c0, c1 in zip(crossings, crossings[1:]))
    for c in crossings:
        k, signature, degenerate, eigs = reference_crossing(path, c.t)
        assert (c.kernel_dim, c.signature, c.degenerate) == (k, signature, degenerate)
        assert np.allclose(np.linalg.eigvalsh(c.form), eigs, rtol=0.0, atol=1e-9)
    assert any(c.degenerate for c in crossings) == (name == "degenerate")
    after = crossings[1].t if len(crossings) > 1 else path.b
    with pytest.raises(NotACrossingError):
        crossing_form(path, (crossings[0].t + after) / 2)


# ---------------------------------------------------------------------------
# the rescan levels as whole-array passes, against the per-window loop
# ---------------------------------------------------------------------------

def stacked_candidate_times(path):
    """The candidate times czindex._window_minima hands find_crossings."""
    real, got = czindex._window_minima, []

    def spy(*args):
        times = real(*args)
        got.append(list(times))  # find_crossings appends the endpoints
        return times

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(czindex, "_window_minima", spy)
        try:
            find_crossings(path)
        except CrossingError:
            pass  # the candidates were handed over before any verdict
    assert len(got) == 1
    return got[0]


def assert_level_pass_equals_the_loop(path):
    want, branches = loop_candidate_times(path)
    got = stacked_candidate_times(path)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    return branches


@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=12), min_size=1, max_size=5),
       st.data())
def test_flat_runs_equal_the_per_row_runs_and_peak_splits(rows, data):
    # small integer values make ties common, so the strict and non-strict
    # sides of a peak are both exercised
    gates = [data.draw(st.integers(0, 4)) for _ in rows]
    sigma = np.array([v for row in rows for v in row], dtype=float)
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    want_runs, want_pieces = [], []
    for start, row, gate in zip(starts.tolist(), rows, gates):
        runs = candidate_runs(np.array(row, dtype=float), gate)
        want_runs += [(start + s, start + e) for s, e in runs]
        want_pieces += [(start + s, start + e) for r in runs
                        for s, e in split_at_peaks(np.array(row, dtype=float), *r)]
    gate = np.repeat(np.array(gates, dtype=float), [len(row) for row in rows])
    for split, want in ((False, want_runs), (True, want_pieces)):
        first, last = czindex._low_pieces(sigma, gate, starts, split=split)
        assert list(zip(first.tolist(), last.tolist())) == want


@given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
       st.floats(0.2, 12.0))
@settings(max_examples=60)
def test_level_pass_equals_the_per_window_loop(freqs, turns):
    duration = TWO_PI * turns
    path = RotationPath(freqs, duration,
                        sample_count=max(4096, min_rotation_samples(freqs, duration)))
    assert_level_pass_equals_the_loop(path)


def test_level_pass_equals_the_loop_on_a_near_coincident_pair():
    # crossings 2*pi*k apart from 2*pi*k / (1 + 1e-5): the low region around
    # each pair spans its window, so the 4x rescan runs
    branches = assert_level_pass_equals_the_loop(RotationPath([1.0, 1.0 + 1e-5], TWO_PI * 3.5))
    assert branches["rescan4x"] > 0 and branches["rescan"] > 0 and branches["piece"] > 0


def test_level_pass_equals_the_loop_on_a_conjugated_path(monkeypatch):
    # a non-block path: every steering value comes from LAPACK
    path = conjugated(RotationPath([1.0, math.sqrt(3.0)], TWO_PI * 4.3),
                      random_sp4(random.Random(99)))
    lapack, calls = czindex._lapack_sigma_min, []
    monkeypatch.setattr(czindex, "_lapack_sigma_min",
                        lambda mats: calls.append(len(mats)) or lapack(mats))
    branches = assert_level_pass_equals_the_loop(path)
    assert sum(branches.values()) > 0
    assert sum(calls) > 2 * path.sample_count
