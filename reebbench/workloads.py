"""Workload inputs drawn from a seed, and the checks on their outputs.

A seed picks one m = 3 weight family of small height in Q(sqrt 2) or
Q(sqrt 5).  Every such family has pairwise irrational ratios, so its Tamura
sets tile the positive integers and the work per item is the same for every
seed: N certified integers, one compared degree, or one cross-checked orbit
whose linearized flow turns about A(n) times.  Seeds therefore change the
inputs but not the amount of work, which keeps rates comparable across
seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# The ROADMAP baseline family W3 = (1; sqrt 2; 1 + sqrt 2).
BASELINE_SEED = 0
BASELINE_FAMILY = (2, ("1", "sqrt(2)", "1+sqrt(2)"))

# Confirm a claimed gain on this seed after writing the change on others.
# Its family uses half-integer coefficients, which no other seed draws, so
# its inputs cannot have been seen while tuning on the other seeds.
HELD_OUT_SEED = 1
HELD_OUT_FAMILY = (5, ("1", "1/2+1/2*sqrt(5)", "1/2+3/2*sqrt(5)"))

# candidate weights p + q*sqrt(d) next to the weight 1
_COEFFS = [(p, q) for p in range(4) for q in (1, 2)]


def _render(p, q, d):
    root = f"sqrt({d})" if q == 1 else f"{q}*sqrt({d})"
    return root if p == 0 else f"{p}+{root}"


def family(seed):
    """(d, weight expressions) of the m = 3 family drawn by `seed`."""
    if seed == BASELINE_SEED:
        return BASELINE_FAMILY
    if seed == HELD_OUT_SEED:
        return HELD_OUT_FAMILY
    rng = random.Random(seed)
    d = rng.choice((2, 5))
    while True:
        (p1, q1), (p2, q2) = rng.sample(_COEFFS, 2)
        # q != 0 keeps each ratio to 1 irrational; this keeps theirs
        if p1 * q2 != p2 * q1:
            return d, ("1", _render(p1, q1, d), _render(p2, q2, d))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str     # CLI subcommand
    size_flag: str
    size: int
    extra: tuple

    def argv(self, d, weights):
        return [self.command, "--d", str(d), "--weights", "; ".join(weights),
                self.size_flag, str(self.size), *self.extra]

    def items(self, argv):
        """Units of work one main(argv) call finishes."""
        size = int(argv[argv.index(self.size_flag) + 1])
        if self.name == "tamura-scan":
            return size                         # integers certified
        if self.name == "sh-ladder":
            return size + 1                     # degrees 0..max compared
        return (size - _m(argv) + 1) // 2       # orbits with cz <= max


def _m(argv):
    return len(argv[argv.index("--weights") + 1].split(";"))


# why each workload was chosen is in BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload("tamura-scan", "partition", "--limit", 10**6,
                 ("--mode", "tamura")),
        Workload("spectrum-crosscheck", "spectrum", "--max-degree", 160,
                 ("--cross-check",)),
        Workload("sh-ladder", "sh", "--max-degree", 200002, ()),
    )
}


def check(workload, argv, exit_code, text):
    """(failed items, problems) for one main(argv) call's exit code and
    stdout.

    The expected results come from the theorem, not from the program: the
    sets tile [1..N], the orbit indices are exactly m-1+2A for A = 1, 2, ...
    and the homology ladder has dimension 1 in degrees m+1, m+3, ...
    """
    items = workload.items(argv)
    m = _m(argv)
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        payload = json.loads(text)
    except ValueError:
        return items, problems + ["stdout is not one JSON document"]

    if workload.name == "tamura-scan":
        counts = payload.get("counts", {})
        if payload.get("verdict") != "partition":
            problems.append(f"verdict {payload.get('verdict')!r}")
        if sum(counts.values()) != items or len(counts) != m:
            problems.append(f"counts {counts} do not sum to {items}")
        return (items if problems else 0), problems

    if workload.name == "sh-ladder":
        ladder = [[k, 1] for k in range(m + 1, items, 2)]
        if payload.get("verdict") != "equal":
            problems.append(f"verdict {payload.get('verdict')!r}")
        if payload.get("formula_degrees") != ladder:
            problems.append("formula degrees differ from the ladder")
        if payload.get("orbit_degrees") != ladder:
            problems.append("orbit degrees differ from the ladder")
        return (items if problems else 0), problems

    rows = payload.get("orbits", [])
    expected = [m - 1 + 2 * a for a in range(1, items + 1)]
    if [row.get("cz") for row in rows] != expected:
        problems.append("orbit indices differ from m-1+2A, A = 1..%d" % items)
    bad = sum(1 for row in rows if row.get("agree") is not True)
    if bad:
        problems.append(f"{bad} orbits not agreeing")
    failed = bad + max(0, items - len(rows))
    if problems and failed == 0:
        failed = items
    return min(failed, items), problems
