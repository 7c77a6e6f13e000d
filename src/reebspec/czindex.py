"""Conley-Zehnder indices of paths of symplectic matrices.

The index is computed from crossings: times t where Psi_t - id is singular.
Crossings are located as dips of sigma_min(Psi_t - id) on a sample grid,
bracketed, refined by golden-section search, and classified against a kernel
tolerance.  Sign changes of det(Psi_t - id) are useless here: for a rotation
block the determinant is 2 - 2cos(alpha t) >= 0, which touches zero without
changing sign, so a sign-based root finder misses every crossing.

At each crossing the form (zeta, eta) -> zeta^T S_t eta with
S_t = J (d/dt Psi_t) Psi_t^{-1} is restricted to an orthonormal basis of
ker(Psi_t - id); the index is the sum of interior signatures plus half the
signatures at the endpoints, kept exact as a Fraction with denominator <= 2.

Coordinates are ordered (x_1, y_1, ..., x_n, y_n), so J is the direct sum of
n copies of [[0, 1], [-1, 0]] and a direct sum of symplectic blocks is again
symplectic without any reindexing.
"""

from __future__ import annotations

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
MAX_CANDIDATES = 256
INTEGER_TOL = 1e-9
SAMPLES_PER_TURN = 8

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


class SymplecticPath:
    """A path t -> Psi_t in Sp(2n) on [a, b].

    `evaluator` maps a time to a 2n x 2n array.  If `derivative` is absent,
    d/dt Psi_t is taken by second-order finite differences with step
    1e-6 * (b - a).  `batch_evaluator`, when given, maps an array of times to
    a stacked (len, 2n, 2n) array and is used to vectorize grid sampling.
    """

    def __init__(self, a, b, evaluator, derivative=None, sample_count=4096,
                 batch_evaluator=None):
        if not b > a:
            raise ValueError(f"empty domain [{a}, {b}]")
        if sample_count < 16:
            raise ValueError("sample_count must be at least 16")
        self.a = float(a)
        self.b = float(b)
        self._evaluator = evaluator
        self._derivative = derivative
        self._batch_evaluator = batch_evaluator
        self.sample_count = int(sample_count)
        probe = np.asarray(evaluator(self.a), dtype=float)
        if probe.ndim != 2 or probe.shape[0] != probe.shape[1] or probe.shape[0] % 2:
            raise ValueError(f"evaluator returned shape {probe.shape}, expected 2n x 2n")
        self.n = probe.shape[0] // 2

    def evaluate(self, t):
        return np.asarray(self._evaluator(t), dtype=float)

    def evaluate_batch(self, ts):
        ts = np.asarray(ts, dtype=float)
        if self._batch_evaluator is not None:
            return np.asarray(self._batch_evaluator(ts), dtype=float)
        return np.stack([self.evaluate(t) for t in ts])

    @property
    def has_derivative(self):
        return self._derivative is not None

    def derivative_at(self, t):
        if self._derivative is not None:
            return np.asarray(self._derivative(t), dtype=float)
        h = 1e-6 * (self.b - self.a)
        if t - h < self.a:
            return (-3.0 * self.evaluate(t) + 4.0 * self.evaluate(t + h)
                    - self.evaluate(t + 2 * h)) / (2 * h)
        if t + h > self.b:
            return (3.0 * self.evaluate(t) - 4.0 * self.evaluate(t - h)
                    + self.evaluate(t - 2 * h)) / (2 * h)
        return (self.evaluate(t + h) - self.evaluate(t - h)) / (2 * h)


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

    Raises ValueError when sample_count is below min_rotation_samples.
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
        super().__init__(
            0.0, float(duration),
            evaluator=self._eval_one,
            derivative=self._deriv_one,
            sample_count=sample_count,
            batch_evaluator=self._eval_many,
        )

    def _eval_one(self, t):
        n = len(self.freqs)
        out = np.zeros((2 * n, 2 * n))
        for l, f in enumerate(self.freqs):
            c, s = math.cos(f * t), math.sin(f * t)
            out[2 * l, 2 * l] = c
            out[2 * l, 2 * l + 1] = -s
            out[2 * l + 1, 2 * l] = s
            out[2 * l + 1, 2 * l + 1] = c
        return out

    def _deriv_one(self, t):
        n = len(self.freqs)
        out = np.zeros((2 * n, 2 * n))
        for l, f in enumerate(self.freqs):
            c, s = math.cos(f * t), math.sin(f * t)
            out[2 * l, 2 * l] = -f * s
            out[2 * l, 2 * l + 1] = -f * c
            out[2 * l + 1, 2 * l] = f * c
            out[2 * l + 1, 2 * l + 1] = -f * s
        return out

    def _eval_many(self, ts):
        n = len(self.freqs)
        out = np.zeros((len(ts), 2 * n, 2 * n))
        for l, f in enumerate(self.freqs):
            c, s = np.cos(f * ts), np.sin(f * ts)
            out[:, 2 * l, 2 * l] = c
            out[:, 2 * l, 2 * l + 1] = -s
            out[:, 2 * l + 1, 2 * l] = s
            out[:, 2 * l + 1, 2 * l + 1] = c
        return out


def direct_sum(p1, p2):
    """Block-diagonal path t -> diag(Phi_t, Psi_t) on the shared domain."""
    if p1.a != p2.a or p1.b != p2.b:
        raise ValueError(
            f"domain mismatch: [{p1.a}, {p1.b}] vs [{p2.a}, {p2.b}]"
        )
    k = 2 * p1.n
    m = k + 2 * p2.n

    def evaluator(t):
        out = np.zeros((m, m))
        out[:k, :k] = p1.evaluate(t)
        out[k:, k:] = p2.evaluate(t)
        return out

    derivative = None
    if p1.has_derivative and p2.has_derivative:
        def derivative(t):
            out = np.zeros((m, m))
            out[:k, :k] = p1.derivative_at(t)
            out[k:, k:] = p2.derivative_at(t)
            return out

    def batch(ts):
        out = np.zeros((len(ts), m, m))
        out[:, :k, :k] = p1.evaluate_batch(ts)
        out[:, k:, k:] = p2.evaluate_batch(ts)
        return out

    return SymplecticPath(
        p1.a, p1.b, evaluator, derivative=derivative,
        sample_count=max(p1.sample_count, p2.sample_count),
        batch_evaluator=batch,
    )


@dataclass
class Crossing:
    """A singularity of Psi_t - id with its crossing-form data."""

    t: float
    kernel_basis: np.ndarray = field(repr=False)
    signature: int
    degenerate: bool

    @property
    def kernel_dim(self):
        return self.kernel_basis.shape[1]


def _sigma_min_stack(mats, n):
    return np.linalg.svd(mats - np.eye(2 * n), compute_uv=False)[:, -1]


def _sigma_min_grid(path, ts):
    mats = path.evaluate_batch(ts)
    j = standard_j(path.n)
    defect = np.abs(np.swapaxes(mats, -1, -2) @ j @ mats - j).max()
    if defect > TOL_SYMPLECTIC:
        raise ValueError(
            f"path leaves Sp(2n): max ||Psi^T J Psi - J|| = {defect:.3e} "
            f"on the sample grid"
        )
    return _sigma_min_stack(mats, path.n)


def _sigma_min_at(path, t):
    mat = path.evaluate(t)
    return float(np.linalg.svd(mat - np.eye(mat.shape[0]), compute_uv=False)[-1])


def _golden_refine(f, lo, hi, xatol):
    """Golden-section minimization; returns (argmin, min) to |t| accuracy xatol."""
    a_, b_ = lo, hi
    c_ = b_ - _GOLDEN * (b_ - a_)
    d_ = a_ + _GOLDEN * (b_ - a_)
    fc, fd = f(c_), f(d_)
    while b_ - a_ > xatol:
        if fc < fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - _GOLDEN * (b_ - a_)
            fc = f(c_)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + _GOLDEN * (b_ - a_)
            fd = f(d_)
    return (c_, fc) if fc < fd else (d_, fd)


def _candidate_runs(sigma, gate):
    """Maximal runs of consecutive indices with sigma at or below gate.

    The gate combines a Lipschitz bound with the acceptance band: sigma_min
    moves by at most (max observed slope) * step between samples, so a zero
    within half a step of a sample forces that sample below slope * step;
    the TOL_ACCEPT term keeps shallow ambiguous dips visible.  Using the
    global slope rather than local differences matters: a steep dip from a
    fast block can be truncated sideways by a slower block's branch,
    leaving neighbor differences that badly understate the true descent.
    """
    idx = np.nonzero(sigma <= gate)[0]
    if idx.size == 0:
        return []
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    starts = idx[np.concatenate(([0], breaks + 1))]
    ends = idx[np.concatenate((breaks, [idx.size - 1]))]
    return [(int(s), int(e)) for s, e in zip(starts, ends)]


def _split_at_peaks(sigma, start, end):
    """Split [start, end] at strict interior local maxima of sigma.

    Each returned piece is unimodal at the current resolution, so it holds
    at most one visible dip; pieces share their peak sample as a boundary.
    """
    parts = []
    s = start
    for i in range(start + 1, end):
        if sigma[i] > sigma[i - 1] and sigma[i] >= sigma[i + 1]:
            parts.append((s, i))
            s = i
    parts.append((s, end))
    return parts


def _window_minima(path, t_lo, t_hi, slope, xatol, width_floor):
    """Refine every dip inside [t_lo, t_hi] to golden-section accuracy.

    Windows are rescanned at 16x finer resolution per level; candidate runs
    are split at interior peaks, so near-coincident crossings separate as
    soon as the in-between peak is sampled.  A piece is handed to
    golden-section search once it is unimodal at a step below half the
    width floor (further structure below that scale is inside the
    isolation-gap contract), or once its width drops below the floor.
    """
    out = []

    def refine(lo, hi):
        t, val = _golden_refine(lambda t: _sigma_min_at(path, t), lo, hi, xatol)
        # a genuine minimum never hugs an interior window edge: the gate
        # guarantees real zeros are strictly inside some piece, so a result
        # pinned to an edge is a wall point of a dip owned by a neighboring
        # piece (the path endpoints themselves are legitimate, though)
        if t - lo <= 4.0 * xatol and lo != path.a:
            return
        if hi - t <= 4.0 * xatol and hi != path.b:
            return
        out.append((t, val))
        if len(out) > MAX_CANDIDATES:
            raise NonIsolatedCrossingError(
                f"more than {MAX_CANDIDATES} near-singular minima inside "
                f"[{t_lo}, {t_hi}]; crossings are not isolated"
            )

    stack = [(t_lo, t_hi, 0, 65)]
    while stack:
        lo, hi, depth, hint = stack.pop()
        width = hi - lo
        if width <= width_floor or depth >= 24:
            refine(lo, hi)
            continue
        if width > 16.0 * width_floor:
            count = hint
        else:
            # resolution endgame: sample densely enough that unimodal
            # pieces are trustworthy down to the width floor
            count = int(max(hint, min(4097, max(65, 16.0 * width / width_floor + 1))))
        ts = np.linspace(lo, hi, count)
        sigma = _sigma_min_stack(path.evaluate_batch(ts), path.n)
        step = float(ts[1] - ts[0])
        gate = 2.0 * slope * step + TOL_ACCEPT
        resolved = step <= width_floor / 2.0
        for start, end in _candidate_runs(sigma, gate):
            for s, e in _split_at_peaks(sigma, start, end):
                w_lo = float(ts[max(s - 1, 0)])
                w_hi = float(ts[min(e + 1, count - 1)])
                if resolved or (w_hi - w_lo) <= width_floor:
                    refine(w_lo, w_hi)
                elif w_hi - w_lo > 0.7 * width:
                    # the run spans the window with no visible structure: a
                    # narrow dip may hide between samples in a uniformly low
                    # region, so rescan at geometrically growing resolution
                    stack.append((w_lo, w_hi, depth + 1,
                                  int(min(65537, 4 * count))))
                else:
                    stack.append((w_lo, w_hi, depth + 1, 65))
    return out


def _is_genuine_minimum(path, t, val, probe_max, probe_min, a, b, atol=1e-12):
    """Reject wall-point artifacts: sigma must not descend below val at any
    probed scale on either side.  The geometric ladder of probe distances
    catches a nearby zero whatever its distance down to probe_min."""
    probe = probe_max
    while probe >= probe_min:
        if t - probe >= a and _sigma_min_at(path, t - probe) < val - atol:
            return False
        if t + probe <= b and _sigma_min_at(path, t + probe) < val - atol:
            return False
        probe /= 4.0
    return True


def _kernel_and_form(path, t):
    mat = path.evaluate(t)
    dim = mat.shape[0]
    _, s, vh = np.linalg.svd(mat - np.eye(dim))
    k = int(np.sum(s <= TOL_KERNEL))
    if k == 0:
        raise NotACrossingError(
            f"t = {t} is not a crossing: sigma_min = {s[-1]:.3e} > {TOL_KERNEL:.1e}"
        )
    basis = vh[dim - k:].T  # orthonormal columns spanning ker(Psi_t - id)
    s_mat = standard_j(dim // 2) @ path.derivative_at(t) @ np.linalg.inv(mat)
    s_mat = 0.5 * (s_mat + s_mat.T)
    form = basis.T @ s_mat @ basis
    return form, basis


def crossing_form(path, t):
    """The crossing form at t, restricted to an orthonormal kernel basis.

    Returns a k x k symmetric matrix, k = dim ker(Psi_t - id).  The ambient
    form matrix J (dPsi/dt) Psi^{-1} is symmetrized before restriction to
    absorb numerical asymmetry.
    """
    form, _ = _kernel_and_form(path, t)
    return form


def _make_crossing(path, t):
    form, basis = _kernel_and_form(path, t)
    eigs = np.linalg.eigvalsh(form)
    pos = int(np.sum(eigs > TOL_EIG))
    neg = int(np.sum(eigs < -TOL_EIG))
    degenerate = bool(np.any(np.abs(eigs) < TOL_EIG))
    return Crossing(t=float(t), kernel_basis=basis, signature=pos - neg,
                    degenerate=degenerate)


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
    sigma = _sigma_min_grid(path, ts)

    run = 0
    for flag in sigma < TOL_KERNEL:
        run = run + 1 if flag else 0
        if run >= 3:
            raise NonIsolatedCrossingError(
                "singular plateau: sigma_min stays below the kernel tolerance "
                "over consecutive grid samples (crossings are not isolated)"
            )

    width_floor = max(isolation_gap / 2.0, 64.0 * xatol)
    step = float(ts[1] - ts[0])
    slope = float(np.abs(np.diff(sigma)).max()) / step
    gate = 2.0 * slope * step + TOL_ACCEPT
    candidates = []
    for start, end in _candidate_runs(sigma, gate):
        lo = max(start - 1, 0)
        hi = min(end + 1, path.sample_count - 1)
        candidates.extend(_window_minima(
            path, ts[lo], ts[hi], slope, xatol, width_floor))

    # endpoints are examined explicitly, never via bracketing
    candidates.append((a, float(sigma[0])))
    candidates.append((b, float(sigma[-1])))

    accepted = []  # (t, sigma) pairs
    for t, val in candidates:
        if val < TOL_KERNEL:
            if t - a < 10 * xatol:
                t = a
            elif b - t < 10 * xatol:
                t = b
            accepted.append((float(t), val))
        elif val < TOL_ACCEPT:
            if _is_genuine_minimum(path, t, val, probe, 16.0 * xatol, a, b):
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
    return [_make_crossing(path, t) for t, _ in merged]


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
