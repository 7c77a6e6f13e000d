"""Conley-Zehnder indices of paths of symplectic matrices.

The index is computed from crossings: times t where Psi_t - id is singular.
Crossings are located as dips of sigma_min(Psi_t - id).  Sign changes of
det(Psi_t - id) are useless here: for a rotation block the determinant is
2 - 2cos(alpha t) >= 0, which touches zero without changing sign, so a
sign-based root finder misses every crossing.

A path is evaluated only on stacks of times (see SymplecticPath), and the
search runs in array stages, each of which evaluates sigma_min on a stack,
SIGMA_CHUNK times at a time, and never one time point at a time:

1. the grid: sample_count times on [a, b], checked to stay in Sp(2n), by
   the 2x2 block determinants on a direct sum of 2x2 blocks;
2. the rescan: one array pass per recursion level resamples every candidate
   window and finds all their runs and peak splits, until each dip sits in
   a narrow unimodal piece;
3. golden-section refinement of every piece in lockstep, each piece along
   its own iterate sequence;
4. the probe ladder that tells a genuine shallow minimum from a wall point.

Steering values come from the cheapest closed form the path offers.  A
RotationPath gives sigma_min(R(theta) - id) = 2|sin(theta/2)| exactly, so
outside the grid it steers by min_l 2|sin(alpha_l t/2)|, one sine per block
and sample (SymplecticPath.steering_sigma_min).  The grid, whose Sp(2n)
check needs block determinants, and every path without that route read the
entries of the 2x2 diagonal blocks (SymplecticPath.block_entries): a
RotationPath computes them from its cos and sin without building a stack,
and any other path has its stack tested for entries outside those blocks,
supplying them only when every such entry is exactly 0.  On block entries
sigma_min comes from a closed form per block; a path without them, and any
chunk on which the closed form is not finite, goes to LAPACK.  The closed
forms only steer the search.  LAPACK decides: every verdict against
TOL_KERNEL or TOL_ACCEPT reads one stacked LAPACK SVD at the refined times
and the path endpoints.

The candidate gates are Lipschitz bounds.  By Weyl's inequality
sigma_min(Psi_t - id) moves by at most L|t - s| between t and s, with
L = sup ||d/dt Psi_t||, so a zero within h/2 of a sample forces that
sample below L*h/2.  A RotationPath knows L = max_l alpha_l exactly
(SymplecticPath.lipschitz) and gates at L*h/2 + TOL_ACCEPT; any other path
gates at 2*(largest slope the grid shows)*h + TOL_ACCEPT.

Classification is a stack as well.  At every crossing at once, the form
(zeta, eta) -> zeta^T S_t eta with S_t = J (d/dt Psi_t) Psi_t^{-1} is
restricted to an orthonormal basis of ker(Psi_t - id), and every kernel
comes from one stacked full LAPACK SVD.  The index is the sum of interior
signatures plus half the signatures at the endpoints, kept exact as a
Fraction with denominator <= 2.

Coordinates are ordered (x_1, y_1, ..., x_n, y_n), so J is the direct sum of
n copies of [[0, 1], [-1, 0]] and a direct sum of symplectic blocks is again
symplectic without any reindexing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateCrossingError,
    FlatCrossingError,
    NonIsolatedCrossingError,
    NotACrossingError,
)

__all__ = [
    "standard_j",
    "symplectic_defect",
    "SymplecticPath",
    "RotationPath",
    "min_rotation_samples",
    "Crossing",
    "find_crossings",
    "crossing_form",
    "cz_index",
    "cz_rotation_analytic",
    "direct_sum",
]

TOL_SYMPLECTIC = 1e-9
TOL_KERNEL = 1e-7
TOL_ACCEPT = 1e-3
TOL_EIG = 1e-6
ISOLATION_FACTOR = 1e-6
REFINE_FACTOR = 1e-12
TOL_DESCENT = 1e-12  # a probe this far below a minimum makes it a wall artifact
MAX_CANDIDATES = 256
INTEGER_TOL = 1e-9
SAMPLES_PER_TURN = 8
SIGMA_CHUNK = 4096  # most path samples held in one stacked evaluation

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def standard_j(n):
    """The symplectic form matrix: n diagonal blocks [[0, 1], [-1, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    for l in range(n):
        j[2 * l, 2 * l + 1] = 1.0
        j[2 * l + 1, 2 * l] = -1.0
    return j


def symplectic_defect(mat):
    """max-norm of Psi^T J Psi - J; zero exactly when Psi is symplectic."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {mat.shape}")
    j = standard_j(mat.shape[0] // 2)
    return float(np.abs(mat.T @ j @ mat - j).max())


@functools.lru_cache(maxsize=None)
def _off_block_mask(n):
    """True at the entries of a 2n x 2n matrix outside its 2x2 diagonal blocks."""
    return np.kron(np.eye(n), np.ones((2, 2))) == 0


class SymplecticPath:
    """A path t -> Psi_t in Sp(2n) on [a, b], evaluated on stacks of times.

    `evaluator` maps a 1-D array of times ts to the (len(ts), 2n, 2n) stack
    of Psi_t, and `derivative`, when given, maps ts to the stack of
    d/dt Psi_t.  Without `derivative`, d/dt Psi_t comes from second-order
    finite differences with step h = 1e-6 * (b - a): central, or one-sided
    within h of an endpoint, all from one stacked evaluation.  Every stack
    is checked: a shape other than (len(ts), 2n, 2n) raises ValueError, so
    an evaluator that ignores ts is refused rather than broadcast.

    block_entries(ts) returns (blocks, mats).  blocks is the tuple (p, q, r, s)
    of (len(ts), n) arrays holding the entries [[p, q], [r, s]] of every 2x2
    diagonal block of Psi_t, the same doubles as the stack's, or None when
    some entry outside those blocks is nonzero; mats is the stack of Psi_t,
    or None when the path supplied blocks without building one.  Here it
    evaluates the stack and tests its off-block entries; a subclass that
    knows its blocks overrides it.

    A subclass that knows more may also supply steering_sigma_min(ts), the
    steering values sigma_min(Psi_t - id) from a closed form (None here),
    and `lipschitz`, a bound on ||d/dt Psi_t||_2 over [a, b] (None here).
    """

    lipschitz = None

    def __init__(self, a, b, evaluator, derivative=None, sample_count=4096):
        if not b > a:
            raise ValueError(f"empty domain [{a}, {b}]")
        if sample_count < 16:
            raise ValueError("sample_count must be at least 16")
        self.a = float(a)
        self.b = float(b)
        self._evaluator = evaluator
        self._derivative = derivative or self._finite_differences
        self.sample_count = int(sample_count)
        probe = np.asarray(evaluator(np.array([self.a])), dtype=float)
        if (probe.ndim != 3 or probe.shape[0] != 1 or probe.shape[1] != probe.shape[2]
                or probe.shape[1] % 2):
            raise ValueError(
                f"evaluator returned shape {probe.shape} for one time, expected (1, 2n, 2n)")
        self.n = probe.shape[1] // 2

    def _stack(self, fn, ts):
        ts = np.asarray(ts, dtype=float)
        mats = np.asarray(fn(ts), dtype=float)
        dim = 2 * self.n
        if mats.shape != (len(ts), dim, dim):
            raise ValueError(
                f"path stack has shape {mats.shape}, expected {(len(ts), dim, dim)}")
        return mats

    def evaluate_batch(self, ts):
        return self._stack(self._evaluator, ts)

    def derivative_batch(self, ts):
        return self._stack(self._derivative, ts)

    def block_entries(self, ts):
        mats = self.evaluate_batch(ts)
        dim = mats.shape[-1]
        if dim > 2 and np.any(mats[:, _off_block_mask(dim // 2)]):
            return None, mats
        return tuple(np.diagonal(mats[:, i::2, k::2], axis1=1, axis2=2)
                     for i in (0, 1) for k in (0, 1)), mats

    def steering_sigma_min(self, ts):
        return None

    def evaluate(self, t):
        return self.evaluate_batch([t])[0]

    def derivative_at(self, t):
        return self.derivative_batch([t])[0]

    def _finite_differences(self, ts):
        h = 1e-6 * (self.b - self.a)
        branch = np.where(ts - h < self.a, 0, np.where(ts + h > self.b, 2, 1))
        offsets, weights = _FD_STENCILS[branch, 0], _FD_STENCILS[branch, 1]
        mats = self.evaluate_batch((ts[:, None] + offsets * h).ravel())
        mats = mats.reshape(len(ts), 3, 2 * self.n, 2 * self.n)
        return np.einsum("kj,kjab->kab", weights, mats) / (2 * h)


# (offsets in steps h, weights) of the forward, central and backward
# second-order differences; the derivative is sum(weight * Psi) / (2h)
_FD_STENCILS = np.array([
    [[0.0, 1.0, 2.0], [-3.0, 4.0, -1.0]],
    [[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]],
    [[0.0, -1.0, -2.0], [3.0, -4.0, 1.0]],
])


def min_rotation_samples(freqs, duration):
    """Smallest grid that resolves a rotation path: SAMPLES_PER_TURN samples
    per turn of its fastest block, plus 16.

    Coarser grids alias the fastest block's dips, and the engine can then
    miss crossings and return a wrong index without raising.
    """
    turns = duration * max(freqs) / (2.0 * math.pi)
    if not math.isfinite(turns):
        raise ValueError(f"turn count duration*alpha/(2*pi) is not finite: {turns}")
    return math.ceil(SAMPLES_PER_TURN * turns) + 16


class RotationPath(SymplecticPath):
    """t -> direct sum of rotations R(alpha_l t) on [0, duration].

    d/dt Psi_t = Psi_t G, with G the direct sum of alpha_l [[0, -1], [1, 0]],
    so ||d/dt Psi_t||_2 = max_l alpha_l at every t: that is `lipschitz`.
    steering_sigma_min gives min_l 2|sin(alpha_l t/2)|, which is exactly
    sigma_min(Psi_t - id), since R(theta) - id is 2|sin(theta/2)| times a
    rotation.  block_entries hands out the blocks (cos, -sin, sin, cos) of
    alpha_l t without building a stack; the stacks hold the same cos and sin
    doubles.  Raises ValueError when sample_count is below
    min_rotation_samples.
    """

    def __init__(self, freqs, duration, sample_count=4096):
        freqs = [float(f) for f in freqs]
        if not freqs:
            raise ValueError("freqs must be nonempty")
        if any(f <= 0 for f in freqs):
            raise ValueError(f"frequencies must be positive, got {freqs}")
        if not duration > 0:
            raise ValueError(f"duration must be positive, got {duration}")
        needed = min_rotation_samples(freqs, duration)
        if sample_count < needed:
            raise ValueError(
                f"sample_count {sample_count} is too coarse for this path: "
                f"need at least {needed} ({SAMPLES_PER_TURN} per turn of the "
                f"fastest block, plus 16)")
        self.freqs = freqs
        self.lipschitz = max(freqs)
        generator = np.repeat(freqs, 2) * -standard_j(len(freqs))
        super().__init__(
            0.0, float(duration),
            evaluator=self._rotations,
            derivative=lambda ts: self._rotations(ts) @ generator,
            sample_count=sample_count,
        )

    def _cos_sin(self, ts):
        """cos and sin of alpha_l t as (len(ts), n) arrays, row t, column l."""
        angles = np.multiply.outer(np.asarray(ts, dtype=float), self.freqs)
        return np.cos(angles), np.sin(angles)

    def block_entries(self, ts):
        c, s = self._cos_sin(ts)
        return (c, -s, s, c), None

    def steering_sigma_min(self, ts):
        # the same alpha_l t doubles as _cos_sin's, one row per block, halved
        # exactly; reducing over the rows is much faster than over columns
        half = np.multiply.outer(self.freqs, np.asarray(ts, dtype=float))
        half *= 0.5
        np.abs(np.sin(half, out=half), out=half)
        return 2.0 * np.minimum.reduce(half, axis=0)

    def _rotations(self, ts):
        c, s = self._cos_sin(ts)
        x = 2 * np.arange(len(self.freqs))
        out = np.zeros((len(ts), 2 * len(self.freqs), 2 * len(self.freqs)))
        out[:, x, x], out[:, x, x + 1] = c, -s
        out[:, x + 1, x], out[:, x + 1, x + 1] = s, c
        return out


def direct_sum(p1, p2):
    """Block-diagonal path t -> diag(Phi_t, Psi_t) on the shared domain."""
    if p1.a != p2.a or p1.b != p2.b:
        raise ValueError(
            f"domain mismatch: [{p1.a}, {p1.b}] vs [{p2.a}, {p2.b}]"
        )
    k = 2 * p1.n
    m = k + 2 * p2.n

    def block_sum(stack1, stack2):
        def stack(ts):
            out = np.zeros((len(ts), m, m))
            out[:, :k, :k] = stack1(ts)
            out[:, k:, k:] = stack2(ts)
            return out
        return stack

    return SymplecticPath(
        p1.a, p1.b, block_sum(p1.evaluate_batch, p2.evaluate_batch),
        derivative=block_sum(p1.derivative_batch, p2.derivative_batch),
        sample_count=max(p1.sample_count, p2.sample_count),
    )


@dataclass
class Crossing:
    """A singularity of Psi_t - id with its crossing-form data."""

    t: float
    kernel_basis: np.ndarray = field(repr=False)
    form: np.ndarray = field(repr=False)
    signature: int
    degenerate: bool

    @property
    def kernel_dim(self):
        return self.kernel_basis.shape[1]


def _lapack_sigma_min(mats):
    return np.linalg.svd(mats - np.eye(mats.shape[-1]), compute_uv=False)[:, -1]


def _stack_defect(mats, blocks):
    """max ||Psi^T J Psi - J|| over a stack: max_l |det B_l - 1| from the entries
    `blocks` = (p, q, r, s) of its 2x2 diagonal blocks B_l, since Psi^T J Psi - J
    is then the direct sum of (det B_l - 1) J_2; from the matmul if blocks is None."""
    if blocks is None:
        j = standard_j(mats.shape[-1] // 2)
        return np.abs(np.swapaxes(mats, -1, -2) @ j @ mats - j).max()
    p, q, r, s = blocks
    return np.abs(p * s - q * r - 1.0).max()


def _sigma_min_blocks(blocks):
    """sigma_min(Psi - id) at each time, from the entries `blocks` = (p, q, r, s)
    of the 2x2 diagonal blocks of a direct sum of 2x2 blocks, or None when
    the closed form is not finite at some time.

    Each block M = [[a, b], [c, d]] of Psi - id has sigma_max =
    (hypot(a + d, c - b) + hypot(a - d, c + b)) / 2 and sigma_min =
    |ad - bc| / sigma_max, and Psi's value is the smallest over its blocks.
    """
    p, b, c, s = blocks
    a, d = p - 1.0, s - 1.0
    s_max = (np.hypot(a + d, c - b) + np.hypot(a - d, c + b)) / 2.0
    det = np.abs(a * d - b * c)
    if not (np.isfinite(s_max).all() and np.isfinite(det).all()):
        return None
    s_min = np.divide(det, s_max, out=np.zeros_like(det), where=s_max > 0)
    return s_min.min(axis=1)


def _sigma_min_many(path, ts, lapack=False, check_symplectic=False):
    """sigma_min(Psi_t - id) at every t of ts, SIGMA_CHUNK times per chunk.

    The values steer the search; with `lapack` they come from LAPACK alone
    and may decide a verdict.  Without `check_symplectic` a chunk takes
    path.steering_sigma_min when the path has that route.  Otherwise each
    chunk reads path.block_entries once: the closed form of _sigma_min_blocks
    on its blocks, and LAPACK on its stack, evaluated only then, when it has
    no blocks or the closed form is not finite.  With `check_symplectic`
    (steering only, as on the grid), raises ValueError when a sample leaves Sp(2n): a chunk with
    blocks reads its defect from their determinants, any other the matmul.
    """
    out = np.empty(len(ts))
    for lo in range(0, len(ts), SIGMA_CHUNK):
        chunk = ts[lo:lo + SIGMA_CHUNK]
        if lapack:
            out[lo:lo + SIGMA_CHUNK] = _lapack_sigma_min(path.evaluate_batch(chunk))
            continue
        if not check_symplectic and (sigma := path.steering_sigma_min(chunk)) is not None:
            out[lo:lo + SIGMA_CHUNK] = sigma
            continue
        blocks, mats = path.block_entries(chunk)
        if check_symplectic and not (defect := _stack_defect(mats, blocks)) <= TOL_SYMPLECTIC:
            raise ValueError(f"path leaves Sp(2n): max ||Psi^T J Psi - J|| = {defect:.3e} "
                             f"on the sample grid")
        sigma = None if blocks is None else _sigma_min_blocks(blocks)
        if sigma is None:
            sigma = _lapack_sigma_min(path.evaluate_batch(chunk) if mats is None else mats)
        out[lo:lo + SIGMA_CHUNK] = sigma
    return out


def _three_in_a_row(flags):
    return bool(np.any(flags[:-2] & flags[1:-1] & flags[2:]))


def _golden_lockstep(path, lo, hi, xatol):
    """Golden-section minimization of sigma_min on every window [lo_i, hi_i].

    Each window follows the iterate sequence of a scalar search to |t|
    accuracy xatol; one stacked evaluation per iteration serves every window
    still wider than xatol.  Returns the argmins.
    """
    a_, b_ = lo.copy(), hi.copy()
    c_ = b_ - _GOLDEN * (b_ - a_)
    d_ = a_ + _GOLDEN * (b_ - a_)
    f = _sigma_min_many(path, np.concatenate((c_, d_)))
    fc, fd = f[:len(c_)], f[len(c_):]
    live = np.nonzero(b_ - a_ > xatol)[0]
    while live.size:
        left = fc[live] < fd[live]
        i, k = live[left], live[~left]
        b_[i], d_[i], fd[i] = d_[i], c_[i], fc[i]
        c_[i] = b_[i] - _GOLDEN * (b_[i] - a_[i])
        a_[k], c_[k], fc[k] = c_[k], d_[k], fd[k]
        d_[k] = a_[k] + _GOLDEN * (b_[k] - a_[k])
        f = _sigma_min_many(path, np.concatenate((c_[i], d_[k])))
        fc[i], fd[k] = f[:i.size], f[i.size:]
        live = live[b_[live] - a_[live] > xatol]
    return np.where(fc < fd, c_, d_)


def _low_pieces(sigma, gate, starts, split=True):
    """(first, last) flat indices of the maximal runs of samples at or below
    gate (a scalar or one value per sample) within each row of a flat array,
    row r starting at index starts[r].  With split, each run is cut at its
    strict interior local maxima into pieces that share their peak sample,
    each unimodal at its row's resolution: it holds at most one visible dip.

    The gate combines a Lipschitz bound with the acceptance band: sigma_min
    moves by at most L * step between samples, L being the path's bound when
    it has one, else the observed slope (the largest grid difference per
    step), so a zero within half a step of a sample forces that sample below
    L * step / 2.  The path's bound gates at exactly that; the observed
    slope only estimates L and gates at 2 * slope * step, four times that.
    The TOL_ACCEPT term keeps shallow ambiguous dips visible.  Using a
    global slope rather than local differences matters: a steep dip from a
    fast block can be truncated sideways by a slower block's branch,
    leaving neighbor differences that badly understate the true descent.
    """
    below = sigma <= gate
    joined = below[:-1] & below[1:]  # samples i and i + 1 share a run,
    joined[starts[1:] - 1] = False   # unless a row starts at i + 1
    first, last = below.copy(), below
    first[1:] &= ~joined
    last[:-1] &= ~joined
    if split:
        mid = sigma[1:-1]
        peak = joined[:-1] & joined[1:] & (mid > sigma[:-2]) & (mid >= sigma[2:])
        first[1:-1] |= peak
        last[1:-1] |= peak
    return np.nonzero(first)[0], np.nonzero(last)[0]


def _window_minima(path, lo, hi, gate_slope, xatol, width_floor):
    """Refine every dip inside each window [lo[w], hi[w]] to golden-section
    accuracy; returns the candidate times, window by window.  A level's gate
    is gate_slope * step + TOL_ACCEPT (see _low_pieces).

    Windows are rescanned at 16x finer resolution per level; candidate runs
    are split at interior peaks, so near-coincident crossings separate as
    soon as the in-between peak is sampled.  A piece is handed to
    golden-section search once it is unimodal at a step below half the
    width floor (further structure below that scale is inside the
    isolation-gap contract), or once its width drops below the floor.

    Each recursion level is one pass over arrays: the np.linspace samples of
    its windows lie end to end in window order, sigma_min is evaluated on
    them in one stacked call, and one _low_pieces call finds every window's
    runs and peak splits under the window's own gate.  Every piece is
    refined in lockstep.  Each piece carries a key that sorts the candidates
    in the order a depth-first rescan of its window alone would find them:
    a node's own pieces first, then the subtrees of its rescanned pieces,
    last-found first.
    """
    windows = list(zip(lo.tolist(), hi.tolist()))
    keys = [(w,) for w in range(len(lo))]
    depth, hint = np.zeros(len(lo), dtype=np.int64), np.full(len(lo), 65)
    pieces = []  # (key, lo, hi)
    while keys:
        width = hi - lo
        done = (width <= width_floor) | (depth >= 24)
        pieces += [(keys[i], lo[i], hi[i]) for i in np.nonzero(done)[0].tolist()]
        keys = [k for k, d in zip(keys, done.tolist()) if not d]
        if not keys:
            break
        lo, hi, width, depth, hint = (x[~done] for x in (lo, hi, width, depth, hint))
        # resolution endgame: sample densely enough that unimodal pieces
        # are trustworthy down to the width floor
        counts = np.where(width > 16.0 * width_floor, hint, np.maximum(
            hint, np.minimum(4097, np.maximum(65, 16.0 * width / width_floor + 1)))
        ).astype(np.int64)
        starts = np.cumsum(counts) - counts
        ends = starts + counts - 1
        ts = np.arange(ends[-1] + 1, dtype=float) - np.repeat(starts, counts)
        ts *= np.repeat((hi - lo) / (counts - 1), counts)
        ts += np.repeat(lo, counts)
        ts[ends] = hi
        sigma = _sigma_min_many(path, ts)
        step = ts[starts + 1] - ts[starts]
        first, last = _low_pieces(
            sigma, np.repeat(gate_slope * step + TOL_ACCEPT, counts), starts)
        row = np.searchsorted(starts, first, side="right") - 1
        found = (np.arange(len(first)) - np.searchsorted(first, starts)[row] + 1).tolist()
        w_lo = ts[np.maximum(first - 1, starts[row])]
        w_hi = ts[np.minimum(last + 1, ends[row])]
        final = (step[row] <= width_floor / 2.0) | (w_hi - w_lo <= width_floor)
        rows = row.tolist()
        pieces += [(keys[rows[i]] + (0, found[i]), w_lo[i], w_hi[i])
                   for i in np.nonzero(final)[0].tolist()]
        rescan = np.nonzero(~final)[0]
        keys = [keys[rows[i]] + (1, -found[i]) for i in rescan.tolist()]
        row, lo, hi = row[rescan], w_lo[rescan], w_hi[rescan]
        # a run that spans its window with no visible structure: a narrow dip
        # may hide between samples in a uniformly low region, so rescan at
        # geometrically growing resolution
        hint = np.where(hi - lo > 0.7 * width[row], np.minimum(65537, 4 * counts[row]), 65)
        depth = depth[row] + 1
    if not pieces:
        return []
    keys, lo, hi = zip(*sorted(pieces))  # keys are unique
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    ts = _golden_lockstep(path, lo, hi, xatol)
    # a genuine minimum never hugs an interior window edge: the gate
    # guarantees real zeros are strictly inside some piece, so a result
    # pinned to an edge is a wall point of a dip owned by a neighboring
    # piece (the path endpoints themselves are legitimate, though)
    wall = (((ts - lo <= 4.0 * xatol) & (lo != path.a))
            | ((hi - ts <= 4.0 * xatol) & (hi != path.b)))
    out = []
    per_window = [0] * len(windows)
    for key, t, drop in zip(keys, ts.tolist(), wall.tolist()):
        if not drop:
            out.append(t)
            per_window[key[0]] += 1
    for (t_lo, t_hi), count in zip(windows, per_window):
        if count > MAX_CANDIDATES:
            raise NonIsolatedCrossingError(
                f"more than {MAX_CANDIDATES} near-singular minima inside "
                f"[{t_lo}, {t_hi}]; crossings are not isolated"
            )
    return out


def _genuine_minima(path, points, probe_max, probe_min, a, b):
    """Reject wall-point artifacts: for each (t, val), True unless sigma
    descends below val at some probed scale on either side.  The geometric
    ladder of probe distances catches a nearby zero whatever its distance
    down to probe_min; every probe of every point is one stacked evaluation."""
    rungs = []
    probe = probe_max
    while probe >= probe_min:
        rungs.append(probe)
        probe /= 4.0
    ts, owner = [], []
    for i, (t, _) in enumerate(points):
        for r in rungs:
            for s in (t - r, t + r):
                if a <= s <= b:
                    ts.append(s)
                    owner.append(i)
    genuine = [True] * len(points)
    if ts:
        for i, s in zip(owner, _sigma_min_many(path, np.array(ts)).tolist()):
            if s < points[i][1] - TOL_DESCENT:
                genuine[i] = False
    return genuine


def _classify(path, ts):
    """The Crossing at every time of ts, in order, from one stack each of
    Psi_t, d/dt Psi_t, full SVDs of Psi_t - id and inverses of Psi_t.

    The kernel basis is the right singular vectors of the singular values
    at or below TOL_KERNEL; the form and its eigenvalues are stacked per
    kernel dimension.  Raises NotACrossingError at the first regular t.
    """
    ts = np.asarray(ts, dtype=float)
    mats = path.evaluate_batch(ts)
    dim = mats.shape[-1]
    _, s, vh = np.linalg.svd(mats - np.eye(dim))
    kernel_dims = np.sum(s <= TOL_KERNEL, axis=1)
    if not kernel_dims.all():
        i = int(np.argmin(kernel_dims))
        raise NotACrossingError(
            f"t = {ts[i]} is not a crossing: sigma_min = {s[i, -1]:.3e} > {TOL_KERNEL:.1e}"
        )
    s_mats = standard_j(dim // 2) @ path.derivative_batch(ts) @ np.linalg.inv(mats)
    s_mats = 0.5 * (s_mats + np.swapaxes(s_mats, -1, -2))
    out = [None] * len(ts)
    for k in sorted(set(kernel_dims.tolist())):  # np.unique imports numpy.ma, +1 MB
        idx = np.nonzero(kernel_dims == k)[0]
        bases = np.swapaxes(vh[idx, dim - k:], -1, -2)  # orthonormal columns
        forms = np.swapaxes(bases, -1, -2) @ s_mats[idx] @ bases
        eigs = np.linalg.eigvalsh(forms)
        signatures = np.sum(eigs > TOL_EIG, axis=1) - np.sum(eigs < -TOL_EIG, axis=1)
        degenerate = np.any(np.abs(eigs) < TOL_EIG, axis=1)
        for i, basis, form, sig, deg in zip(idx.tolist(), bases, forms,
                                            signatures.tolist(), degenerate.tolist()):
            out[i] = Crossing(t=float(ts[i]), kernel_basis=basis, form=form,
                              signature=sig, degenerate=deg)
    return out


def crossing_form(path, t):
    """The crossing form at t, restricted to an orthonormal kernel basis.

    Returns a k x k symmetric matrix, k = dim ker(Psi_t - id).  The ambient
    form matrix J (dPsi/dt) Psi^{-1} is symmetrized before restriction to
    absorb numerical asymmetry.
    """
    return _classify(path, [t])[0].form


def find_crossings(path):
    """All isolated crossing times of the path, sorted, with form data.

    Raises FlatCrossingError when a genuine local minimum of sigma_min lands
    in the ambiguous band [TOL_KERNEL, TOL_ACCEPT), and
    NonIsolatedCrossingError when two crossings are closer than
    ISOLATION_FACTOR * (b - a) — crossings within an eighth of that gap are
    treated as one and merged — or when the grid shows a singular plateau
    (e.g. a constant identity path).
    """
    a, b = path.a, path.b
    span = b - a
    xatol = REFINE_FACTOR * span
    isolation_gap = ISOLATION_FACTOR * span
    probe = max(isolation_gap / 2.0, 64.0 * xatol)
    ts = np.linspace(a, b, path.sample_count)
    sigma = _sigma_min_many(path, ts, check_symplectic=True)

    # LAPACK re-examines every low sample once the steering values show
    # three in a row below twice the kernel tolerance
    low = sigma < 2.0 * TOL_KERNEL
    if _three_in_a_row(low):
        confirmed = np.full_like(sigma, np.inf)
        confirmed[low] = _sigma_min_many(path, ts[low], lapack=True)
        if _three_in_a_row(confirmed < TOL_KERNEL):
            raise NonIsolatedCrossingError(
                "singular plateau: sigma_min stays below the kernel tolerance "
                "over consecutive grid samples (crossings are not isolated)"
            )

    width_floor = max(isolation_gap / 2.0, 64.0 * xatol)
    step = float(ts[1] - ts[0])
    if path.lipschitz is None:
        gate_slope = 2.0 * (float(np.abs(np.diff(sigma)).max()) / step)
    else:
        gate_slope = 0.5 * path.lipschitz
    first, last = _low_pieces(sigma, gate_slope * step + TOL_ACCEPT,
                              np.zeros(1, dtype=int), split=False)
    times = _window_minima(path, ts[np.maximum(first - 1, 0)],
                           ts[np.minimum(last + 1, len(ts) - 1)], gate_slope, xatol,
                           width_floor)
    # endpoints are examined explicitly, never via bracketing
    times += [a, b]

    # one LAPACK stack decides every verdict
    vals = _sigma_min_many(path, np.array(times), lapack=True).tolist()
    accepted = []  # (t, sigma) pairs
    flat = []
    for t, val in zip(times, vals):
        if val < TOL_KERNEL:
            if t - a < 10 * xatol:
                t = a
            elif b - t < 10 * xatol:
                t = b
            accepted.append((float(t), val))
        elif val < TOL_ACCEPT:
            flat.append((t, val))
    for (t, val), genuine in zip(flat, _genuine_minima(
            path, flat, probe, 16.0 * xatol, a, b)):
        if genuine:
            raise FlatCrossingError(
                f"ambiguous near-crossing at t = {t}: sigma_min = "
                f"{val:.3e} lies in [{TOL_KERNEL:.1e}, {TOL_ACCEPT:.1e})"
            )

    accepted.sort()
    merged = []
    for t, val in accepted:
        if merged and t - merged[-1][0] < isolation_gap / 8.0:
            if val < merged[-1][1]:
                merged[-1] = (t, val)
            continue
        merged.append((t, val))
    for (t0, _), (t1, _) in zip(merged, merged[1:]):
        if t1 - t0 < isolation_gap:
            raise NonIsolatedCrossingError(
                f"crossings at t = {t0} and t = {t1} are closer than the "
                f"isolation gap {isolation_gap:.3e}"
            )
    return _classify(path, [t for t, _ in merged])


def cz_index(path):
    """Conley-Zehnder index: interior signatures plus half-signatures at the
    endpoints, as an exact Fraction (denominator 1 or 2).

    Requires every crossing to be isolated and non-degenerate; a degenerate
    crossing raises instead of silently contributing a half-count.
    """
    crossings = find_crossings(path)
    for c in crossings:
        if c.degenerate:
            raise DegenerateCrossingError(
                f"degenerate crossing at t = {c.t}: a crossing-form "
                f"eigenvalue is below {TOL_EIG:.1e}"
            )
    twice = 0
    for c in crossings:
        weight = 1 if c.t in (path.a, path.b) else 2
        twice += weight * c.signature
    return Fraction(twice, 2)


def cz_rotation_analytic(freqs, duration):
    """Closed-form index of a direct sum of rotation blocks on [0, duration].

    Each block contributes 1 + 2*floor(T*alpha) when T*alpha is not an
    integer and 2*T*alpha when it is, where T*alpha = duration*alpha/(2*pi);
    both branches come from summing crossing signatures directly.  Returns
    an int (the half-weights always pair up for rotation paths).  Raises
    ValueError when some T*alpha is not finite, e.g. an infinite duration.
    """
    if not freqs:
        raise ValueError("freqs must be nonempty")
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    total = 0
    for alpha in freqs:
        if alpha <= 0:
            raise ValueError(f"frequencies must be positive, got {alpha}")
        t_alpha = duration * alpha / (2.0 * math.pi)
        if not math.isfinite(t_alpha):
            raise ValueError(
                f"duration*alpha/(2*pi) = {t_alpha} is not finite "
                f"(alpha = {alpha}, duration = {duration})")
        nearest = round(t_alpha)
        if abs(t_alpha - nearest) <= INTEGER_TOL:
            total += 2 * int(nearest)
        else:
            total += 1 + 2 * math.floor(t_alpha)
    return total
