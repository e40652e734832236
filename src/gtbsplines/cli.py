"""Batch command-line front end.

Verbs
-----
build   CONFIG OUT       -- space summary (dimensions, knot vectors, triples)
sample  CONFIG --csv OUT -- uniform basis/derivative samples as CSV
demo    NAME OUTDIR      -- reproduce the bundled demo spaces/curves
verify  CONFIG           -- run the invariant checks, one PASS/FAIL line each
insert  CONFIG --at X OUT -- refined-space summary plus the transfer map

Exit codes: 0 success, 1 runtime or degeneracy failure (including a refused
memory allocation), 2 validation error (including a sample count ``--n``
beyond the largest float array numpy can index).  All numeric output uses
17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .config import SpaceConfig, conic_profile_demo_config, mixed_family_demo_config
from .errors import ConfigError, GTBError, InvalidFamilyError, OracleUnsupportedError
from .oracle import cox_de_boor_basis, cox_de_boor_knots, local_recurrence_eval
from .sections import PolynomialFamily
from .space import (
    SplineCurve,
    build_space,
    eval_basis,
    insert_knot,
    jump_residuals,
    jump_vector,  # noqa: F401  (a module attribute the benchmark's tracer wraps)
    unit_integral_scaling,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2

# the largest n whose float array has a byte size numpy can index
MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _space_summary(space) -> str:
    kv = space.knots
    lines = [
        f"N {space.n_basis}",
        f"M {space.n_bernstein}",
        f"O {space.n_constraints}",
        "breakpoints " + _fmt_row(space.partition.breakpoints),
        "degrees " + " ".join(str(p) for p in space.degrees),
        "smoothness " + " ".join(str(r) for r in space.smoothness),
        "u " + _fmt_row(kv.u),
        "v " + _fmt_row(kv.v),
        "k u_k v_k r_u r_v",
    ]
    for k in range(1, space.n_basis + 1):
        r_u, r_v = kv.supersmoothness(k)
        lines.append(f"{k} {_fmt(kv.u[k - 1])} {_fmt(kv.v[k - 1])} {r_u} {r_v}")
    if space.n_constraints == 0:
        lines.append("extraction identity")
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_sample_csv(path: str, space, n: int, deriv: int) -> None:
    """Write ``n`` uniform samples of all basis functions and derivatives.

    Only the functions active on a row's interval are formatted; every other
    cell is exactly zero and is written as a literal ``0``.  Rows are written
    one interval at a time.
    """
    a, b = space.domain
    xs = np.linspace(a, b, n)
    n_basis = space.n_basis
    header = ["x"]
    for d in range(deriv + 1):
        prefix = "" if d == 0 else ("d" if d == 1 else f"d{d}")
        header.extend(f"{prefix}B{k}" for k in range(1, n_basis + 1))
    elems = space.partition.locate(xs)  # nondecreasing, since xs is sorted
    table = eval_basis(space, xs, deriv)
    starts = np.searchsorted(elems, np.arange(1, space.partition.num_intervals + 2))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for e in range(1, space.partition.num_intervals + 1):
            rows = slice(starts[e - 1], starts[e])
            if rows.start == rows.stop:
                continue
            lo, hi = space.knots.active_range(e)
            slots = ",0" * (lo - 1) + ",%.17g" * (hi - lo + 1) + ",0" * (n_basis - hi)
            template = "%.17g" + slots * (deriv + 1) + "\n"
            # row-major over (derivative order, active function), as the header
            active = table[rows, lo - 1 : hi].transpose(0, 2, 1)
            values = np.column_stack([xs[rows], active.reshape(len(active), -1)])
            fh.write("".join([template % tuple(v) for v in values.tolist()]))


def cmd_build(args) -> int:
    config = SpaceConfig.from_json_file(args.config)
    space = build_space(config)
    _write(args.out, _space_summary(space))
    return EXIT_OK


def _check_samples(n: int) -> None:
    if n < 2:
        raise ConfigError("need at least 2 samples")
    if n > MAX_SAMPLES:
        raise ConfigError(f"--n {n} exceeds the largest array of {MAX_SAMPLES} samples")


def cmd_sample(args) -> int:
    _check_samples(args.n)
    config = SpaceConfig.from_json_file(args.config)
    space = build_space(config)
    max_deriv = min(space.degrees)
    if not (0 <= args.deriv <= max_deriv):
        raise ConfigError(f"--deriv must lie in [0, {max_deriv}] for this space")
    _write_sample_csv(args.csv, space, args.n, args.deriv)
    return EXIT_OK


def cmd_demo(args) -> int:
    _check_samples(args.n)
    outdir = args.outdir.rstrip("/")
    os.makedirs(outdir, exist_ok=True)
    if args.name == "example1":
        for r in (-1, 0, 1, 2):
            space = build_space(mixed_family_demo_config((r, r)))
            _write_sample_csv(f"{outdir}/example1_r{r}.csv", space, args.n, 2)
            _write(f"{outdir}/example1_r{r}_summary.txt", _space_summary(space))
        return EXIT_OK
    # example2: the parser admits no other name
    config = conic_profile_demo_config()
    space = build_space(config)
    curve = SplineCurve(space, config.control_points)
    a, b = space.domain
    xs = np.linspace(a, b, args.n)
    rows = ["x,X,Y"]
    for x, pt in zip(xs, curve(xs)):
        rows.append(f"{_fmt(x)},{_fmt(pt[0])},{_fmt(pt[1])}")
    _write(f"{outdir}/example2_curve.csv", "\n".join(rows) + "\n")
    rows = ["X,Y"]
    for pt in curve.control:
        rows.append(f"{_fmt(pt[0])},{_fmt(pt[1])}")
    _write(f"{outdir}/example2_control_polygon.csv", "\n".join(rows) + "\n")
    _write(f"{outdir}/example2_residuals.csv", _profile_residuals(curve, args.n))
    _write(f"{outdir}/example2_summary.txt", _space_summary(space))
    return EXIT_OK


def _profile_residuals(curve: SplineCurve, n: int) -> str:
    """Per-segment geometric residuals of the conic demo profile: distance to
    the circle equations on the arc segments, to the line on the middle one."""
    bp = curve.space.partition.breakpoints
    rows = ["x,segment,residual"]
    for seg in range(3):
        xs = np.linspace(bp[seg], bp[seg + 1], n)
        for x, (X, Y) in zip(xs, curve(xs)):
            if seg == 0:
                res = (X - 2.0) ** 2 + Y**2 - 1.0
            elif seg == 1:
                res = Y - 1.0
            else:
                res = X**2 + (Y - 3.0) ** 2 - 4.0
            rows.append(f"{_fmt(x)},{seg + 1},{_fmt(res)}")
    return "\n".join(rows) + "\n"


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"{status} {name}{suffix}")
    return ok


def cmd_verify(args) -> int:
    config = SpaceConfig.from_json_file(args.config)
    space = build_space(config)
    a, b = space.domain
    ok = True

    xs = np.linspace(a, b, 400)
    values = eval_basis(space, xs)[:, :, 0]  # (400, N)
    pou = np.max(np.abs(values.sum(axis=1) - 1.0))
    ok &= _check("partition-of-unity", pou <= 1e-12, f"max deviation {pou:.3g}")

    outside = (xs[:, None] < space.knots.u) | (xs[:, None] > space.knots.v)
    support_err = np.max(np.abs(values[outside]), initial=0.0)
    ok &= _check("local-support", support_err <= 1e-13, f"max leak {support_err:.3g}")

    jump_err = float(np.max(jump_residuals(space), initial=0.0))
    ok &= _check("smoothness-jumps", jump_err <= 1e-9, f"max jump {jump_err:.3g}")

    col_err, low, _ = space.extraction.bounds
    ok &= _check("extraction-column-sums", col_err <= 1e-12, f"max {col_err:.3g}")
    ok &= _check("extraction-nonnegative", low >= -1e-14, f"min entry {low:.3g}")

    total = float(np.sum(1.0 / unit_integral_scaling(space)))
    ok &= _check("unit-integral-total", abs(total - (b - a)) <= 1e-10, f"sum {total:.17g}")

    polynomial = all(isinstance(s, PolynomialFamily) for s in config.sections)
    probe = np.linspace(a, b, 37)
    if polynomial and len(set(config.degrees)) == 1:
        p = config.degrees[0]
        knots = cox_de_boor_knots(config.breakpoints, p, config.smoothness)
        ours = eval_basis(space, probe, min(1, p))
        ref = cox_de_boor_basis(knots, p, probe, min(1, p))
        err = float(np.max(np.abs(ours - ref)))
        ok &= _check("oracle-cox-de-boor", err <= 1e-12, f"max dev {err:.3g}")
    else:
        probe = probe[::2]
        ours = eval_basis(space, probe)[:, :, 0]
        try:
            ref = local_recurrence_eval(space, range(1, space.n_basis + 1), probe)
            err = float(np.max(np.abs(ours - ref)))
            passed, detail = err <= 1e-7, f"max dev {err:.3g}"
        except OracleUnsupportedError as exc:  # an oracle that cannot run fails its check
            passed, detail = False, f"oracle unsupported: {exc}"
        ok &= _check("oracle-integral-recurrence", passed, detail)

    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_insert(args) -> int:
    config = SpaceConfig.from_json_file(args.config)
    space = build_space(config)
    refined, transfer = insert_knot(space, args.at)
    # Only a row's one or two nonzeros are formatted into the reused cells:
    # every other entry is an exact 0.0, which ``_fmt`` writes as ``0``.
    cells = ["0"] * transfer.shape[1]
    with open(args.out, "w") as fh:
        fh.write(_space_summary(refined) + "transfer\n")
        for row in transfer:
            at = np.flatnonzero(row).tolist()
            for col, value in zip(at, row[at].tolist()):
                cells[col] = _fmt(value)
            fh.write(" ".join(cells) + "\n")
            for col in at:
                cells[col] = "0"
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gtbspline",
        description="Build, sample, and verify Tchebycheffian B-spline spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a space summary")
    p.add_argument("config")
    p.add_argument("out")

    p = sub.add_parser("sample", help="write uniform basis samples as CSV")
    p.add_argument("config")
    p.add_argument("--n", type=int, default=401)
    p.add_argument("--deriv", type=int, default=0)
    p.add_argument("--csv", required=True)

    p = sub.add_parser("demo", help="reproduce a bundled demo")
    p.add_argument("name", choices=["example1", "example2"])
    p.add_argument("outdir")
    p.add_argument("--n", type=int, default=401)

    p = sub.add_parser("verify", help="run invariant checks")
    p.add_argument("config")

    p = sub.add_parser("insert", help="insert a knot and write the transfer map")
    p.add_argument("config")
    p.add_argument("--at", type=float, required=True)
    p.add_argument("out")

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # looked up at call time, so that a rebound ``cmd_<verb>`` takes effect
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, InvalidFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GTBError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # numpy names the refused size; Python does not
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
