"""Seeded input generator for the gtbsplines benchmark.

    python3 bench/gen_inputs.py --workload sample-mixed --seed 3 --out DIR [--smoke]

Writes two files into DIR:

* ``space.json``: the workload's space in the CLI's JSON format, with a
  random control net (``control_points``);
* ``inputs.json``: the fixed point sets, the insertion plan and the
  sample settings.

The program under test receives only these files.  The generator uses the
standard library alone, so one seed gives the same files on any machine.
"""

from __future__ import annotations

import argparse
import json
import os
import random

WORKLOADS = ("build-cubic-fine", "sample-mixed", "refine-mixed")

# Section cycle of the mixed workloads: (family, degree, omega, length).
# Interior joints alternate C^2 and C^1, always below the maximal order
# min(p_i, p_{i+1}) so that the basis is guaranteed to exist.
MIXED_CYCLE = (
    ("polynomial", 3, None, 1.0),
    ("trigonometric", 3, 1.2, 1.25),
    ("exponential", 4, 6.0, 1.0),
    ("polynomial", 4, None, 1.0),
)
MIXED_JOINTS = (2, 1)

# Near-end insertions into the unrefined refine-mixed base: (family, share
# of the element's length between the new knot and the element's right end).
# Each fails on every run today (see bench/README.md).  A probe is checked
# at PROBE_CHECK_POINTS points spread evenly over its element and as many
# over the last 2 * share of it, around the new knot; none depends on the
# seed.
NEAR_END_PROBES = (
    ("exponential", 0.01),
    ("exponential", 0.003),
    ("trigonometric", 0.01),
    ("trigonometric", 0.003),
)
PROBE_CHECK_POINTS = 101

SIZES = {
    # workload: (intervals, smoke intervals, eval points, oracle points)
    "build-cubic-fine": (80, 8, 1000, 200),
    "sample-mixed": (48, 8, 2000, 40),
    "refine-mixed": (12, 8, 1000, 40),
}
SAMPLE_N, SMOKE_SAMPLE_N = 4001, 201
SAMPLE_ORACLE_ROWS = 40
CURVE_POINTS = 200


def _dimension(degrees, smoothness) -> int:
    """N = p_1 + 1 + sum_i (p_{i+1} - r_i) over the interior joints."""
    return degrees[0] + 1 + sum(p - r for p, r in zip(degrees[1:], smoothness))


def cubic_space(m: int, rng: random.Random) -> dict:
    """Uniform-degree C^2 cubic space; element lengths jittered by 10 %."""
    bp = [0.0]
    for _ in range(m):
        bp.append(bp[-1] + 1.0 + rng.uniform(-0.1, 0.1))
    return {
        "breakpoints": bp,
        "sections": [{"family": "polynomial", "degree": 3}] * m,
        "smoothness": [2] * (m - 1),
    }


def mixed_space(m: int, rng: random.Random | None) -> dict:
    """Mixed polynomial/trigonometric/exponential space on MIXED_CYCLE.

    With ``rng`` the lengths are jittered by 10 %; the frequencies follow so
    that each section keeps the stiffness omega * length of the cycle, which
    sets the work of the quadrature and of the recurrence oracle.  Without
    ``rng`` the space is the fixed cycle itself.
    """
    bp, sections = [0.0], []
    for i in range(m):
        family, degree, omega, length = MIXED_CYCLE[i % len(MIXED_CYCLE)]
        stretch = 1.0 + rng.uniform(-0.1, 0.1) if rng else 1.0
        bp.append(bp[-1] + length * stretch)
        entry = {"family": family, "degree": degree}
        if omega is not None:
            entry["omega"] = omega / stretch
        sections.append(entry)
    smoothness = [MIXED_JOINTS[(i - 1) % len(MIXED_JOINTS)] for i in range(1, m)]
    return {"breakpoints": bp, "sections": sections, "smoothness": smoothness}


def _elements_of(space: dict, family: str) -> list[int]:
    return [e for e, s in enumerate(space["sections"]) if s["family"] == family]


def _inside(space: dict, e: int, rng: random.Random) -> float:
    """A point well inside element ``e`` (between 30 % and 70 % of it)."""
    lo, hi = space["breakpoints"][e], space["breakpoints"][e + 1]
    return lo + rng.uniform(0.3, 0.7) * (hi - lo)


def new_knots(space: dict, rng: random.Random, per_family: int, elements) -> list[dict]:
    """``per_family`` new knots in distinct elements of each family, drawn
    from ``elements``."""
    steps = []
    for family in ("polynomial", "trigonometric", "exponential"):
        pool = [e for e in _elements_of(space, family) if e in elements]
        for e in rng.sample(pool, per_family):
            steps.append({"x": _inside(space, e, rng), "kind": f"new-{family}"})
    return steps


def insertion_chain(space: dict, rng: random.Random) -> list[dict]:
    """Two new knots per family, each in its own element, plus one C^2 and
    one C^1 interior breakpoint whose smoothness drops by one; shuffled."""
    chain = new_knots(space, rng, 2, range(len(space["sections"])))
    for r in MIXED_JOINTS:
        joints = [i for i, ri in enumerate(space["smoothness"], start=1) if ri == r]
        chain.append({"x": space["breakpoints"][rng.choice(joints)], "kind": f"existing-C{r}"})
    rng.shuffle(chain)
    return chain


def near_end_probes(space: dict) -> list[dict]:
    """Seed-independent insertions close to the right end of the first
    element of each listed family, each with its element's check points."""
    probes = []
    for family, share in NEAR_END_PROBES:
        e = _elements_of(space, family)[0]
        lo, hi = space["breakpoints"][e], space["breakpoints"][e + 1]
        n = PROBE_CHECK_POINTS - 1
        near = hi - 2.0 * share * (hi - lo)
        probes.append({
            "x": hi - share * (hi - lo),
            "kind": f"near-end-{family}-{share}",
            "check_points": [lo + (hi - lo) * i / n for i in range(n)]
            + [near + (hi - near) * i / n for i in range(n + 1)],
        })
    return probes


def generate(workload: str, seed: int, smoke: bool = False) -> tuple[dict, dict]:
    """Return ``(space, inputs)`` for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    m, smoke_m, n_eval, n_oracle = SIZES[workload]
    if smoke:
        m, n_eval, n_oracle = smoke_m, 100, 10
    if workload == "build-cubic-fine":
        space = cubic_space(m, rng)
    elif workload == "sample-mixed":
        space = mixed_space(m, rng)
    else:
        space = mixed_space(m, None)

    degrees = [s["degree"] for s in space["sections"]]
    n_basis = _dimension(degrees, space["smoothness"])
    space["control_points"] = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(n_basis)]

    a, b = space["breakpoints"][0], space["breakpoints"][-1]
    eval_points = sorted([a, b] + [rng.uniform(a, b) for _ in range(n_eval - 2)])
    sample_n = SMOKE_SAMPLE_N if smoke else SAMPLE_N
    inputs = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "n_basis": n_basis,
        "eval_points": eval_points,
        "oracle_points": sorted(rng.sample(range(n_eval), n_oracle)),
        "sample": {"n": sample_n, "deriv": 2},
        "sample_oracle_rows": sorted(rng.sample(range(sample_n), min(SAMPLE_ORACLE_ROWS, sample_n))),
        "curve_points": sorted(rng.uniform(a, b) for _ in range(CURVE_POINTS)),
    }
    if workload == "refine-mixed":
        inputs["insertions"] = insertion_chain(space, rng)
        inputs["probes"] = near_end_probes(space)
    elif workload == "sample-mixed":
        # Two new knots per family, in distinct interior elements.
        inputs["insertions"] = new_knots(space, rng, 2, range(1, m - 1))
        inputs["probes"] = []
    else:
        # Two new knots in the middle half; each rebuilds an 80-interval space.
        elements = rng.sample(range(m // 4, m - m // 4), 2)
        inputs["insertions"] = [{"x": _inside(space, e, rng), "kind": "new-knot"} for e in elements]
        inputs["probes"] = []
    return space, inputs


def write(workload: str, seed: int, out: str, smoke: bool = False) -> None:
    space, inputs = generate(workload, seed, smoke)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "space.json"), "w") as fh:
        json.dump(space, fh, indent=1)
    with open(os.path.join(out, "inputs.json"), "w") as fh:
        json.dump(inputs, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (m <= 10)")
    args = parser.parse_args(argv)
    write(args.workload, args.seed, args.out, args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
