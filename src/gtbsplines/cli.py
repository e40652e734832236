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
beyond the largest float array numpy can index).

All numeric output uses 17 significant digits so values round-trip exactly:
every number is written byte for byte as ``b"%.17g" % x`` writes it.
:func:`_format` makes those bytes for a whole array in numpy.  For |x| in
[1e-4, 1e17) it finds the decimal exponent e, forms |x| * 10**(16 - e)
exactly as hi + lo (Dekker's product: 10**s is an exact double for s <= 22,
and numpy fuses no multiply-add), rounds it half to even to a 17-digit
integer, turns that into ASCII through a table of 4-digit groups, and lays
the digits out in fixed notation with the trailing fractional zeros cut.
Zeros, non-finite values and the magnitudes that ``%.17g`` writes in
exponent notation go through ``%`` itself (:func:`_fmt`).
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


# the most cells (or one row) that one ``_format`` call takes while ``sample`` writes its CSV
_BATCH_CELLS = 4096
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves


def _fmt(x: float) -> bytes:
    return b"%.17g" % x


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """``(hi, lo)`` with ``hi = fl(a * b)`` and ``hi + lo == a * b`` exactly (Dekker)."""
    hi = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


@functools.cache
def _format_tables():
    """The tables of :func:`_format`, built on its first call."""
    pow10 = np.array([float(10**s) for s in range(21)])
    # the smallest doubles >= 10**k: 10**k itself for k >= 0, and for
    # k = -4..-1 the nearest double, which lies above 10**k
    floors = np.array([float(f"1e{k}") for k in range(-4, 18)])
    # every group of 4 digits: its ASCII bytes in the low bytes of a word,
    # first digit first, and its number of trailing zeros (4 for 0000)
    group = np.arange(10000)
    words = sum(
        (ord("0") + group // 10 ** (3 - i) % 10).astype(np.uint64) << 8 * i for i in range(4)
    )
    zeros = sum(group % 10**i == 0 for i in range(1, 5))
    # masks[j, k]: the bits of lane j that hold the first k bytes of a cell
    masks = np.array(
        [[(1 << 8 * min(max(k - 8 * j, 0), 8)) - 1 for k in range(25)] for j in range(3)],
        dtype=np.uint64,
    )
    # marks[:, 21 * bare + e + 4]: the fixed characters of an unsigned cell
    # of exponent e in its three lanes, "0." and leading zeros or the point
    # after the integer digits, which a cell with no fractional digit (bare)
    # does not write
    marks = [
        b"0." + b"0" * (-e - 1) if e < 0 else b"\0" * (e + 1) + b"." * (not bare)
        for bare in (False, True)
        for e in range(-4, 17)
    ]
    marks = np.frombuffer(b"".join(m.ljust(24, b"\0") for m in marks), "<u8").reshape(-1, 3)
    marks = marks.T.astype(np.uint64)
    return pow10, floors, words, zeros, masks, marks


def _decimal(a):
    """``(e, d)`` for each ``a`` in [1e-4, 1e17): ``e = floor(log10(a))`` and
    the integer ``d = a * 10**(16 - e)`` in [1e16, 1e17), rounded half to even."""
    pow10, floors = _format_tables()[:2]
    # log10 may be off by one near a power of ten: the estimate is checked
    # against the smallest doubles >= 10**e and >= 10**(e + 1)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp) + 4
    e += a >= floors.take(e + 1)
    e -= a < floors.take(e)
    e -= 4
    # hi + lo is exact, and hi is an even integer (every double above 2**53
    # is), so rint(lo) rounds hi + lo half to even.  d < 10**17: rounding up
    # to 10**(e + 1) would need a double within a relative 5e-18 below that
    # power of ten, and in [1e-4, 1e17) none is.
    hi, lo = _two_product(a, pow10.take(16 - e))
    return e, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _ascii8(x):
    """Numbers ``x`` of up to 8 digits as 8 ASCII digits with leading zeros,
    first digit in the low byte of a 64-bit lane, and their trailing zeros."""
    words, zeros = _format_tables()[2:4]
    upper = x // 10**4
    lower = x - upper * 10**4
    lane = words.take(upper) | words.take(lower) << 32
    return lane, zeros.take(lower) + (lower == 0) * zeros.take(upper)


def _digits(d):
    """The 17 digits of each ``d`` in [1e16, 1e17) in ASCII, digit i in byte
    i of three 64-bit lanes, and the number of digits up to the last nonzero one."""
    q = d // 10
    last = d - q * 10
    upper = q // 10**8
    lane0, zeros0 = _ascii8(upper)
    lane1, zeros1 = _ascii8(q - upper * 10**8)
    lane2 = (last + ord("0")).astype(np.uint64)
    trailing = (last == 0) * (1 + zeros1 + (zeros1 == 8) * zeros0)
    return np.array([lane0, lane1, lane2]), 17 - trailing


def _fixed(a, neg) -> np.ndarray:
    """``b"%.17g" % x`` for each ``x = -a if neg else a`` with ``a`` in
    [1e-4, 1e17), which ``%.17g`` writes in fixed notation: at most 23 bytes,
    in order in the three 64-bit lanes ``[:, i]`` and NUL-padded."""
    e, d = _decimal(a)
    digits, n_sig = _digits(d)
    masks, marks = _format_tables()[4:]
    # the integer digits stay where they are; after them come the point, or
    # "0." and leading zeros, then the fractional digits up to the last
    # nonzero one (the masks are nested, so ^ takes the bytes between)
    n_int = np.maximum(e + 1, 0)
    n_kept = np.maximum(n_sig, n_int)
    body = masks.take(n_int, axis=1)
    tail = masks.take(n_kept, axis=1) ^ body
    tail &= digits
    body &= digits
    body |= marks.take(21 * (n_kept == n_int) + e + 4, axis=1)
    shift = (8 * (1 + np.maximum(-e, 0))).astype(np.uint64)
    body |= tail << shift
    body[1:] |= tail[:-1] >> (64 - shift)
    # a minus sign in front
    neg = neg.astype(np.uint64)
    tail = (body[:-1] >> 56) * neg
    body <<= 8 * neg
    body[0] |= ord("-") * neg
    body[1:] |= tail
    return body


def _format(values) -> list[bytes]:
    """``[_fmt(x) for x in values]`` over the flattened ``values``, in numpy;
    zeros, non-finite values and magnitudes outside [1e-4, 1e17) go through
    :func:`_fmt` itself."""
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    slow = ~((a >= 1e-4) & (a < 1e17))
    a[slow] = 1.0  # any number of the fast range: the fallback rewrites these cells
    lanes = _fixed(a, x < 0)
    # read as one S24 string per cell, a cell's NUL padding falls away
    cells = np.ascontiguousarray(lanes.T, "<u8").view("S24").ravel().tolist()
    for i, v in zip(np.flatnonzero(slow).tolist(), x[slow].tolist()):
        cells[i] = _fmt(v)
    return cells


def _interleave(cells: list[bytes], seps: list[bytes]) -> bytes:
    """``cells[0] + seps[0] + cells[1] + seps[1] + ...``"""
    parts = [b""] * (2 * len(cells))
    parts[0::2] = cells
    parts[1::2] = seps
    return b"".join(parts)


def _csv(header: str, table) -> bytes:
    """The CSV text of a 2-D ``table`` under ``header``."""
    rows, cols = np.shape(table)
    seps = ([b","] * (cols - 1) + [b"\n"]) * rows
    return header.encode() + b"\n" + _interleave(_format(table), seps)


def _fmt_row(values) -> str:
    return b" ".join(_format(values)).decode()


def _space_summary(space) -> str:
    kv = space.knots
    u, v = _fmt_row(kv.u), _fmt_row(kv.v)
    lines = [
        f"N {space.n_basis}",
        f"M {space.n_bernstein}",
        f"O {space.n_constraints}",
        "breakpoints " + _fmt_row(space.partition.breakpoints),
        "degrees " + " ".join(str(p) for p in space.degrees),
        "smoothness " + " ".join(str(r) for r in space.smoothness),
        "u " + u,
        "v " + v,
        "k u_k v_k r_u r_v",
    ]
    for k, (u_k, v_k) in enumerate(zip(u.split(), v.split()), 1):
        r_u, r_v = kv.supersmoothness(k)
        lines.append(f"{k} {u_k} {v_k} {r_u} {r_v}")
    if space.n_constraints == 0:
        lines.append("extraction identity")
    return "\n".join(lines) + "\n"


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _row_separators(lo: int, hi: int, n_basis: int, deriv: int) -> list[bytes]:
    """The text after each formatted cell of a ``sample`` row whose active
    functions are ``lo..hi``: the literal zeros of the inactive ones, the
    commas and the newline."""
    slots = ",0" * (lo - 1) + ",%s" * (hi - lo + 1) + ",0" * (n_basis - hi)
    return ("%s" + slots * (deriv + 1) + "\n").encode().split(b"%s")[1:]


def _write_sample_csv(path: str, space, n: int, deriv: int) -> None:
    """Write ``n`` uniform samples of all basis functions and derivatives.

    Only the functions active on a row's interval are formatted; every other
    cell is exactly zero and is written as a literal ``0``.  The active
    values are copied out of the dense table, which is then freed; the cells
    of consecutive rows, across intervals, go to :func:`_format` at most
    ``_BATCH_CELLS`` at a time (or one row), and each batch's rows are
    written as soon as they are formatted.
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
    m = space.partition.num_intervals
    starts = np.searchsorted(elems, np.arange(1, m + 2)).tolist()
    spans = [(starts[e - 1], starts[e], *space.knots.active_range(e)) for e in range(1, m + 1)]
    # a row's cells: x, then the active functions row-major over
    # (derivative order, active function), as the header
    row_cells = np.repeat(
        [1 + (hi - lo + 1) * (deriv + 1) for _, _, lo, hi in spans], np.diff(starts)
    )
    offsets = np.concatenate([[0], np.cumsum(row_cells)])
    values = np.empty(offsets[-1])
    for first, last, lo, hi in spans:
        if first == last:
            continue
        rows = values[offsets[first] : offsets[last]].reshape(last - first, -1)
        rows[:, 0] = xs[first:last]
        rows[:, 1:] = table[first:last, lo - 1 : hi].transpose(0, 2, 1).reshape(last - first, -1)
    del table  # freed here: no view of it is left
    step = max(1, _BATCH_CELLS // row_cells.max())
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n, step):
            stop = min(start + step, n)
            seps = []
            for first, last, lo, hi in spans[elems[start] - 1 : elems[stop - 1]]:
                count = min(last, stop) - max(first, start)
                seps += _row_separators(lo, hi, n_basis, deriv) * count
            fh.write(_interleave(_format(values[offsets[start] : offsets[stop]]), seps))


def cmd_build(args) -> int:
    config = SpaceConfig.from_json_file(args.config)
    space = build_space(config)
    _write(args.out, _space_summary(space).encode())
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
            _write(f"{outdir}/example1_r{r}_summary.txt", _space_summary(space).encode())
        return EXIT_OK
    # example2: the parser admits no other name
    config = conic_profile_demo_config()
    space = build_space(config)
    curve = SplineCurve(space, config.control_points)
    a, b = space.domain
    xs = np.linspace(a, b, args.n)
    _write(f"{outdir}/example2_curve.csv", _csv("x,X,Y", np.column_stack([xs, curve(xs)])))
    _write(f"{outdir}/example2_control_polygon.csv", _csv("X,Y", curve.control))
    _write(f"{outdir}/example2_residuals.csv", _profile_residuals(curve, args.n))
    _write(f"{outdir}/example2_summary.txt", _space_summary(space).encode())
    return EXIT_OK


def _profile_residuals(curve: SplineCurve, n: int) -> bytes:
    """Per-segment geometric residuals of the conic demo profile: distance to
    the circle equations on the arc segments, to the line on the middle one."""
    bp = curve.space.partition.breakpoints
    residuals = (
        lambda X, Y: (X - 2.0) ** 2 + Y**2 - 1.0,
        lambda X, Y: Y - 1.0,
        lambda X, Y: X**2 + (Y - 3.0) ** 2 - 4.0,
    )
    rows = []
    for seg, residual in enumerate(residuals):
        xs = np.linspace(bp[seg], bp[seg + 1], n)
        rows.append(np.column_stack([xs, np.full(n, seg + 1.0), residual(*curve(xs).T)]))
    return _csv("x,segment,residual", np.concatenate(rows))


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
    detail = f"sum {_fmt(total).decode()}"
    ok &= _check("unit-integral-total", abs(total - (b - a)) <= 1e-10, detail)

    probe, p = np.linspace(a, b, 37), config.degrees[0]
    if {(basis.section._kind, basis.degree) for basis in space.bases} == {("polynomial", p)}:
        knots = cox_de_boor_knots(config.breakpoints, p, config.smoothness)
        ours = eval_basis(space, probe, min(1, p))
        ref = cox_de_boor_basis(knots, p, probe, min(1, p))
        err = float(np.max(np.abs(ours - ref)))
        ok &= _check("oracle-cox-de-boor", err <= 1e-12, f"max dev {err:.3g}")
    else:
        probe = probe[::2]
        ours = eval_basis(space, probe)[:, :, 0]
        try:
            ref = local_recurrence_eval(space, np.arange(1, space.n_basis + 1), probe)
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
    # Only the one or two nonzeros of a row, formatted in one call for the
    # whole map, go into the reused cells: every other entry is an exact 0.0,
    # which ``_fmt`` writes as ``0``.
    rows, cols = np.nonzero(transfer)
    values = _format(transfer[rows, cols])
    bounds = np.searchsorted(rows, np.arange(len(transfer) + 1)).tolist()
    cols = cols.tolist()
    cells = [b"0"] * transfer.shape[1]
    with open(args.out, "wb") as fh:
        fh.write(_space_summary(refined).encode() + b"transfer\n")
        for i in range(len(transfer)):
            at = range(bounds[i], bounds[i + 1])
            for j in at:
                cells[cols[j]] = values[j]
            fh.write(b" ".join(cells) + b"\n")
            for j in at:
                cells[cols[j]] = b"0"
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
