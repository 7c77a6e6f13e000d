"""Shared random generators for property tests (seeded by each caller),
stacked path evaluators, a runner for a fresh interpreter, and the loop
references that the array routes are checked against.  The reference floor
streams read only the scalar exact floor quadfield._floor_exact, never the
block routes they check."""

import heapq
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

import reebspec
from reebspec import czindex
from reebspec.czindex import TOL_ACCEPT, TOL_EIG, TOL_KERNEL, standard_j
from reebspec.ellipsoid import GoodnessReport, orbit_index
from reebspec.partitions import PartitionReport
from reebspec.quadfield import QuadIrrational, _floor_exact, pairwise_rational_ratio

TWO_PI = 2.0 * math.pi

# 321 digits; (10**160)**2 < HUGE_D < (10**160 + 1)**2, so not a square
HUGE_D = 10**320 + 1

# rationals with numerators up to 10**6 and denominators up to 10**3
FRACTIONS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3))


def fresh_env():
    """The environment under which a new interpreter imports this reebspec."""
    src = os.path.dirname(os.path.dirname(reebspec.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def fresh_python(code):
    """Run code in a new interpreter that imports this reebspec."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=fresh_env(), timeout=120)


def rots(thetas):
    """The (len(thetas), 2, 2) stack of rotations R(theta)."""
    c, s = np.cos(thetas), np.sin(thetas)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def constant(mat):
    """A stacked evaluator that returns mat at every time."""
    mat = np.asarray(mat, dtype=float)
    return lambda ts: np.repeat(mat[None], len(ts), axis=0)


def reference_crossing(path, t):
    """(kernel dimension, signature, degenerate, form eigenvalues) of the
    crossing at t, one time at a time: one full SVD, one inverse and one
    eigvalsh per call."""
    mat = path.evaluate(t)
    dim = mat.shape[0]
    _, s, vh = np.linalg.svd(mat - np.eye(dim))
    k = int(np.sum(s <= TOL_KERNEL))
    basis = vh[dim - k:].T
    s_mat = standard_j(dim // 2) @ path.derivative_at(t) @ np.linalg.inv(mat)
    s_mat = 0.5 * (s_mat + s_mat.T)
    eigs = np.linalg.eigvalsh(basis.T @ s_mat @ basis)
    signature = int(np.sum(eigs > TOL_EIG)) - int(np.sum(eigs < -TOL_EIG))
    return k, signature, bool(np.any(np.abs(eigs) < TOL_EIG)), eigs


def min_crossing_separation(freqs, duration):
    """Smallest gap between distinct crossing times t = 2k*pi/alpha_l."""
    times = []
    for f in freqs:
        k = 0
        while 2 * k * math.pi / f <= duration:
            times.append(2 * k * math.pi / f)
            k += 1
    times.sort()
    gaps = [b - a for a, b in zip(times, times[1:]) if b - a > 1e-12]
    return min(gaps) if gaps else duration


def random_rotation_pair(rng, margin=1e-3):
    """Frequencies (a1, a2) and duration with every T*alpha at least margin
    from an integer and all crossings separated well beyond the numeric
    engine's isolation gap (its documented resolution contract; the margin
    scales with the frequency ratio, since a fast block's dip narrows by
    that factor when it hides inside a slow block's low region)."""
    while True:
        a1 = rng.uniform(0.1, 10.0)
        a2 = rng.uniform(0.1, 10.0)
        duration = TWO_PI * rng.uniform(0.1, 10.0)
        turns = [a * duration / TWO_PI for a in (a1, a2)]
        if any(abs(t - round(t)) <= margin for t in turns):
            continue
        ratio = max(a1, a2) / min(a1, a2)
        if min_crossing_separation([a1, a2], duration) < 4e-6 * duration * ratio:
            continue
        return a1, a2, duration


def random_quad(rng, d, num_bound=20, den_bound=9, positive=False):
    """A random element of Q(sqrt(d)) with small numerators/denominators."""
    while True:
        p = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        q = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        x = QuadIrrational(p, q, d)
        if positive and x.sign() <= 0:
            continue
        return x


def random_weights(rng, d, m, num_bound=12, den_bound=7):
    """m positive weights in Q(sqrt(d)) with pairwise irrational ratios."""
    while True:
        ws = [random_quad(rng, d, num_bound, den_bound, positive=True)
              for _ in range(m)]
        if pairwise_rational_ratio(ws) is None:
            return ws


def reference_stream(triples, d, label, limit):
    """Yield (value, label, n) for the first n at which the floor sum
    sum_k floor(n * (p + q*sqrt(d))/c) over `triples` (positive slopes)
    rises above the last value yielded, for every such value up to limit,
    one scalar _floor_exact floor at a time.

    The sum never decreases in n, so that n is found by doubling a step
    from the last one and then bisecting; a sum that rises at every n costs
    one sum per value, and a slow slope a few dozen sums per value."""
    def value(n):
        return sum(_floor_exact(n * p, n * q, c, d) for p, q, c in triples)

    last, lo = 0, 0         # value(lo) == last
    while True:
        step = 1
        while (v := value(lo + step)) <= last:
            lo, step = lo + step, 2 * step
        hi = lo + step      # value(lo) <= last < value(hi) == v
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (w := value(mid)) > last:
                hi, v = mid, w
            else:
                lo = mid
        if v > limit:
            return
        yield v, label, hi
        last, lo = v, hi


def beatty_stream(a, label, limit):
    """The reference stream of the naive set {floor(n*a)}."""
    return reference_stream([a.scaled_triple()], a.d, label, limit)


def tamura_streams(weights, limit):
    """The reference streams of the Tamura sets A_1, ..., A_m of weights."""
    return [reference_stream([(aj / ak).scaled_triple() for ak in weights],
                             aj.d, j, limit)
            for j, aj in enumerate(weights, 1)]


def merged_spectrum(e, max_degree):
    """(j, n, cz) of every orbit with cz <= max_degree, in (cz, j, n) order:
    the k-way heapq.merge of the reference Tamura streams, one element at a
    time."""
    m = e.m
    limit = (max_degree - m + 1) // 2
    streams = tamura_streams(e.weights, limit)
    return [(j, n, m - 1 + 2 * a) for a, j, n in heapq.merge(*streams)]


def goodness_by_dicts(e, orbits, max_degree):
    """The goodness/lacunarity report of `orbits`, one orbit at a time with
    a dict of simple-orbit parities and a set of indices."""
    simple_parity = {}
    for o in orbits:
        if o.n == 1:
            simple_parity[o.j] = o.cz % 2
    for j in range(1, e.m + 1):
        if j not in simple_parity:
            simple_parity[j] = orbit_index(e, j, 1) % 2
    bad = [(o.j, o.n) for o in orbits if o.cz % 2 != simple_parity[o.j]]
    indices = sorted({o.cz for o in orbits})
    pair = next(((x, y) for x, y in zip(indices, indices[1:]) if y == x + 1),
                None)
    return GoodnessReport(
        max_degree=max_degree, all_good=not bad, lacunary=pair is None,
        orbit_count=len(orbits), indices=indices, bad_orbits=bad,
        consecutive_pair=pair)


def merged_cover(streams, limit, collect_owners=False):
    """The PartitionReport of `streams` (iterators of (value, j, n), each
    ascending) against [1..limit], by a k-way heapq.merge of the items one
    at a time: the reference for the windowed cover of the scanners."""
    owners = [0] * (limit + 1) if collect_owners else None
    counts = {}
    expected = 1
    prev = None
    for item in heapq.merge(*streams):
        value, j, n = item
        counts[j] = counts.get(j, 0) + 1
        if prev is not None and value == prev[0]:
            return PartitionReport(
                limit=limit, verdict="collision", value=value,
                first=(prev[1], prev[2]), second=(j, n), counts=counts)
        if value > expected:
            return PartitionReport(
                limit=limit, verdict="gap", value=expected, counts=counts)
        if owners is not None:
            owners[value] = j
        expected += 1
        prev = item
    if expected <= limit:
        return PartitionReport(
            limit=limit, verdict="gap", value=expected, counts=counts)
    return PartitionReport(
        limit=limit, verdict="partition", owners=owners, counts=counts)


def candidate_runs(sigma, gate):
    """Maximal runs (start, end) of consecutive indices with sigma at or
    below gate, one run at a time."""
    idx = np.nonzero(sigma <= gate)[0]
    if idx.size == 0:
        return []
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    starts = idx[np.concatenate(([0], breaks + 1))]
    ends = idx[np.concatenate((breaks, [idx.size - 1]))]
    return [(int(s), int(e)) for s, e in zip(starts, ends)]


def split_at_peaks(sigma, start, end):
    """[start, end] split at the strict interior local maxima of sigma; the
    pieces share their peak sample as a boundary."""
    run = sigma[start:end + 1]
    peaks = (start + 1 + np.nonzero((run[1:-1] > run[:-2])
                                    & (run[1:-1] >= run[2:]))[0]).tolist()
    return list(zip([start] + peaks, peaks + [end]))


def loop_candidate_times(path):
    """(candidate times, Counter of rescan branches) of czindex.find_crossings
    on `path`, up to its LAPACK verdicts: the grid's windows from
    candidate_runs, then every recursion level rescanned one window at a time
    with its own np.linspace, candidate_runs and split_at_peaks.  Every gate
    is gate_slope * step + TOL_ACCEPT, gate_slope being half the path's
    Lipschitz bound when it has one, else twice the grid's largest slope.
    The branch names are "piece" (handed to golden-section search), "rescan"
    (65 samples) and "rescan4x" (four times the window's samples)."""
    a, b = path.a, path.b
    span = b - a
    xatol = czindex.REFINE_FACTOR * span
    width_floor = max(czindex.ISOLATION_FACTOR * span / 2.0, 64.0 * xatol)
    ts = np.linspace(a, b, path.sample_count)
    sigma = czindex._sigma_min_many(path, ts, check_symplectic=True)
    step = float(ts[1] - ts[0])
    if path.lipschitz is None:
        gate_slope = 2.0 * (float(np.abs(np.diff(sigma)).max()) / step)
    else:
        gate_slope = 0.5 * path.lipschitz
    windows = [(ts[max(start - 1, 0)], ts[min(end + 1, path.sample_count - 1)])
               for start, end in candidate_runs(sigma, gate_slope * step + TOL_ACCEPT)]
    branches = Counter()
    level = [(lo, hi, 0, 65, (w,)) for w, (lo, hi) in enumerate(windows)]
    pieces = []  # (key, lo, hi)
    while level:
        scans = []
        for lo, hi, depth, hint, key in level:
            width = hi - lo
            if width <= width_floor or depth >= 24:
                pieces.append((key, lo, hi))
                continue
            if width > 16.0 * width_floor:
                count = hint
            else:
                count = int(max(hint, min(4097, max(65, 16.0 * width / width_floor + 1))))
            scans.append((np.linspace(lo, hi, count), width, depth, key))
        level = []
        if not scans:
            break
        sigmas = np.split(czindex._sigma_min_many(path, np.concatenate([s[0] for s in scans])),
                          np.cumsum([len(s[0]) for s in scans[:-1]]))
        for (ts, width, depth, key), sigma in zip(scans, sigmas):
            count = len(ts)
            step = float(ts[1] - ts[0])
            gate = gate_slope * step + TOL_ACCEPT
            resolved = step <= width_floor / 2.0
            found = 0
            for start, end in candidate_runs(sigma, gate):
                for s, e in split_at_peaks(sigma, start, end):
                    found += 1
                    w_lo = float(ts[max(s - 1, 0)])
                    w_hi = float(ts[min(e + 1, count - 1)])
                    if resolved or (w_hi - w_lo) <= width_floor:
                        branches["piece"] += 1
                        pieces.append((key + (0, found), w_lo, w_hi))
                    elif w_hi - w_lo > 0.7 * width:
                        branches["rescan4x"] += 1
                        level.append((w_lo, w_hi, depth + 1,
                                      int(min(65537, 4 * count)), key + (1, -found)))
                    else:
                        branches["rescan"] += 1
                        level.append((w_lo, w_hi, depth + 1, 65, key + (1, -found)))
    if not pieces:
        return [], branches
    keys, lo, hi = zip(*sorted(pieces))
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    ts = czindex._golden_lockstep(path, lo, hi, xatol)
    wall = (((ts - lo <= 4.0 * xatol) & (lo != a))
            | ((hi - ts <= 4.0 * xatol) & (hi != b)))
    return [t for t, drop in zip(ts.tolist(), wall.tolist()) if not drop], branches
