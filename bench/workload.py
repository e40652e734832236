"""One workload process of the gtbsplines benchmark.

``bench/run.py`` starts this script in a child process; by hand it runs as

    PYTHONPATH=src python3 bench/workload.py --inputs DIR --seconds 30 --trace 0

where DIR holds the files written by ``bench/gen_inputs.py``.  The process
pins every BLAS and OpenMP pool to one thread before numpy is imported,
caps its own address space with ``setrlimit``, and then runs whole rounds of
the workload's operations back to back (a closed loop with one caller) until
``--seconds`` have passed.  A round is

    (sample verb, verify verb) x V, build_space x B, eval pass x E,
    the insertion chain, the near-end insertion probes

with (B, E, V) from ``ROUNDS``.  Every output is checked against an
independent oracle or a property the basis must have.  The last line of
standard output is one JSON object.  A traced run also writes all its
spans to ``.bench_work/spans-<workload>.json.gz`` (see ``tracer.py``).

``--setup-probe`` only times ``import gtbsplines`` plus loading the space
config, in a fresh process, and prints the seconds.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from time import perf_counter  # noqa: E402

# Address-space cap of a workload process.  The cubic workload peaks near
# 0.3 GB resident and a 160-interval cubic build near 0.7 GB; a build that
# outgrows the cap raises MemoryError and counts as a failed operation
# instead of exhausting the machine.
MEMORY_CAP_BYTES = 3 * 2**30

# Per round: (build_space calls, eval passes, runs of each CLI verb).  Every
# timed call is repeated within a round so that a 30-second run yields at
# least ten samples of each for a steady median.
ROUNDS = {
    "build-cubic-fine": (3, 3, 2),
    "sample-mixed": (3, 5, 2),
    "refine-mixed": (3, 5, 2),
}

# The host's speed drifts by 10-30 % over seconds on a shared machine, in
# CPU time as much as in wall time.  Each timed operation of an untraced run
# is therefore bracketed by a fixed calibration kernel, and its time is
# rescaled to the host speed at which the kernel takes CAL_REF_S seconds
# (its median on the reference machine named in bench/README.md).
CAL_REF_S = 0.009

# A traced run writes its spans here, one file per workload, each replacing
# the previous run's.
SPANS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_work")

# Tolerances of the output checks.
ORACLE_TOL = {"cox-de-boor": 1e-12, "recurrence": 1e-7}
SUM_TOL = 1e-12  # partition of unity
DERIV_SUM_RTOL = 1e-9  # derivative rows sum to zero, relative to sum |entries|
ZERO_TOL = 1e-13  # values outside the support, negative rounding
COLUMN_SUM_TOL = 1e-12  # extraction operator
ROW_SUM_TOL = 1e-13  # insertion transfer map
CURVE_RTOL = 1e-12  # curve preservation, relative to the control-net scale


def set_memory_cap(limit: int = MEMORY_CAP_BYTES) -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


class Calibration:
    """Fixed kernel that mixes the host work the library does: interpreter
    arithmetic, small numpy calls and a dense BLAS product, about 4 ms each.
    Calling it returns its duration in seconds."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small, self.vec = rng.random((6, 6)), np.ones(6)
        self.big = rng.random((384, 384))

    def __call__(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(40000):
            acc += i * i % 7
        x = self.vec
        for _ in range(800):
            x = self.small @ x
            x = x / x.sum()
        self.big @ self.big
        return perf_counter() - t0


class VerbFailed(Exception):
    """A CLI verb returned a nonzero exit code."""


# -- independent references -----------------------------------------------


def knot_vectors(config):
    """Support ends ``(u, v)`` of every basis function, from the paper's
    definition: the left vector repeats ``x_i`` ``p_{i+1} - r_i`` times
    (i = 0 .. m-1), the right vector repeats ``x_i`` ``p_i - r_i`` times
    (i = 1 .. m)."""
    bp, p, r = config.breakpoints, config.degrees, config.full_smoothness
    m = len(p)
    u = [bp[i] for i in range(m) for _ in range(p[i] - r[i])]
    v = [bp[i] for i in range(1, m + 1) for _ in range(p[i - 1] - r[i])]
    return u, v


# -- the workload ---------------------------------------------------------


class Workload:
    def __init__(self, inputs_dir: str, calibrate: Calibration | None = None):
        # numpy and the library are imported here, after main() has capped
        # the address space; the thread pins above precede them.
        import numpy as np

        import gtbsplines.cli as cli
        import gtbsplines.oracle as oracle
        import gtbsplines.space as space_mod
        from gtbsplines.config import SpaceConfig
        from gtbsplines.sections import PolynomialFamily

        self.np, self.cli, self.oracle, self.S = np, cli, oracle, space_mod
        self.space_json = os.path.join(inputs_dir, "space.json")
        self.csv_path = os.path.join(inputs_dir, "sample.csv")
        with open(os.path.join(inputs_dir, "inputs.json")) as fh:
            self.inputs = json.load(fh)
        self.builds, self.evals, self.verbs = ROUNDS[self.inputs["workload"]]
        self.config = SpaceConfig.from_json_file(self.space_json)
        self.control = np.asarray(self.config.control_points)
        self.points = [float(x) for x in self.inputs["eval_points"]]
        self.u, self.v = knot_vectors(self.config)
        self.n_basis = self.inputs["n_basis"]  # N from the config, by gen_inputs.py
        self.uniform_poly = (
            all(isinstance(s, PolynomialFamily) for s in self.config.sections)
            and len(set(self.config.degrees)) == 1
        )
        self.tracer = None
        self.calibrate = calibrate
        self.times = defaultdict(list)
        self.round_op_s: list[float] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.problems: list[str] = []
        self.first_csv: bytes | None = None
        self._prepare_references()

    # -- references, computed once per run outside every timed region -----

    def _prepare_references(self) -> None:
        np = self.np
        space = self.S.build_space(self.config)
        pts = [self.points[i] for i in self.inputs["oracle_points"]]
        a, b = space.domain
        grid = np.linspace(a, b, self.inputs["sample"]["n"])
        rows = [float(grid[i]) for i in self.inputs["sample_oracle_rows"]]
        self.oracle_rows = self.inputs["sample_oracle_rows"]
        if self.uniform_poly:
            self.oracle_kind = "cox-de-boor"
            p = self.config.degrees[0]
            knots = self.oracle.cox_de_boor_knots(self.config.breakpoints, p, self.config.smoothness)
            self.oracle_eval = np.array([self.oracle.cox_de_boor_basis(knots, p, x, 2) for x in pts])
            self.oracle_csv = np.array([self.oracle.cox_de_boor_basis(knots, p, x, 2) for x in rows])
        else:
            self.oracle_kind = "recurrence"
            n = space.n_basis

            def values(x):
                return [self.oracle.local_recurrence_eval(space, k, x) for k in range(1, n + 1)]

            self.oracle_eval = np.array([values(x) for x in pts])[:, :, None]
            self.oracle_csv = np.array([values(x) for x in rows])[:, :, None]
        curve_x = self.inputs["curve_points"]
        self.curve_x = curve_x
        self.curve_ref = self._curve(space, self.control, curve_x)
        self.control_scale = float(np.max(np.abs(self.control)))

    def _curve(self, space, control, xs):
        eval_basis = self.S.eval_basis
        return self.np.array([control.T @ eval_basis(space, x)[:, 0] for x in xs])

    # -- operations -------------------------------------------------------

    def op(self, kind: str, label: str, fn, *args):
        """Run one timed operation; a raised error counts it as failed."""
        self.attempted += 1
        before = self.calibrate() if self.calibrate else 0.0
        span = self.tracer.open("op." + kind) if self.tracer else None
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the benchmark records every failure and goes on
            self._op_s += perf_counter() - t0
            self.failures.append(
                {"op": kind, "input": label, "error": type(exc).__name__, "message": str(exc)[:160]}
            )
            return None
        finally:
            if span is not None:
                self.tracer.close(span)
        elapsed = perf_counter() - t0
        self._op_s += elapsed
        if self.calibrate:
            elapsed *= CAL_REF_S / (0.5 * (before + self.calibrate()))
        self.times[kind].append(elapsed)
        return result

    def _sample(self):
        s = self.inputs["sample"]
        argv = ["sample", self.space_json, "--n", str(s["n"]), "--deriv", str(s["deriv"])]
        code = self.cli.main(argv + ["--csv", self.csv_path])
        if code != 0:
            raise VerbFailed(f"sample exited with {code}")
        return True

    def _verify(self) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["verify", self.space_json])
        if code != 0:
            raise VerbFailed(f"verify exited with {code}: {out.getvalue()!r}")
        return out.getvalue()

    def _eval_pass(self, space):
        eval_basis = self.S.eval_basis
        return [eval_basis(space, x, 2) for x in self.points]

    def run_round(self) -> None:
        self._op_s = 0.0
        for _ in range(self.verbs):
            if self.op("sample", "space.json", self._sample):
                self.checked(self.check_csv)
            text = self.op("verify", "space.json", self._verify)
            # Each CLI verb normally runs in its own process; drop the
            # oracle's per-space cache so that spaces built by one verify do
            # not stay resident into the next.
            self.oracle._EVALUATOR_CACHE.clear()
            if text is not None:
                self.checked(self.check_verify, text)

        base = None
        for _ in range(self.builds):
            base = None  # release the previous space before building the next
            base = self.op("build", "space.json", self.S.build_space, self.config)
            if base is not None:
                self.checked(self.check_build, base)
        for _ in range(self.evals):
            if base is None:
                self._missing("eval")
                continue
            table = self.op("eval", "eval_points", self._eval_pass, base)
            if table is not None:
                self.checked(self.check_eval, table)

        space, control = base, self.control
        for step in self.inputs["insertions"]:
            if space is None:
                self._missing("insert")
                continue
            out = self.op("insert", step["kind"], self.S.insert_knot, space, step["x"])
            if out is None:
                space = None
                continue
            refined, transfer = out
            self.checked(self.check_insert, space, refined, transfer, control, step)
            space, control = refined, transfer @ control
        for probe in self.inputs["probes"]:
            if base is None:
                self._missing("probe")
                continue
            out = self.op("probe", probe["kind"], self.S.insert_knot, base, probe["x"])
            if out is not None:
                self.checked(self.check_probe, base, *out, probe)
        self.round_op_s.append(self._op_s)

    def _missing(self, kind: str) -> None:
        self.attempted += 1
        self.failures.append({"op": kind, "input": "-", "error": "NoSpace", "message": "build failed"})

    # -- checks -----------------------------------------------------------

    def checked(self, check, *args) -> None:
        """Run a check with tracing paused; record a failed property."""
        if self.tracer:
            self.tracer.enabled = False
        try:
            check(*args)
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def expect(self, ok: bool, what: str) -> None:
        if not ok and what not in self.problems:
            self.problems.append(what)

    def check_build(self, space) -> None:
        np = self.np
        c = space.operator
        self.expect(space.n_basis == self.n_basis, "build: dimension N")
        self.expect(bool(c.min() >= 0.0), "build: extraction operator has a negative entry")
        col = float(np.max(np.abs(c.sum(axis=0) - 1.0)))
        self.expect(col <= COLUMN_SUM_TOL, f"build: column sums off by {col:.3g}")

    def _check_table(self, table, where: str) -> None:
        """Partition of unity, zero derivative sums and nonnegativity of an
        (points, N, orders) table."""
        np = self.np
        sums = table.sum(axis=1)
        pou = float(np.max(np.abs(sums[:, 0] - 1.0)))
        self.expect(pou <= SUM_TOL, f"{where}: values sum to 1 within {pou:.3g}")
        scale = np.maximum(1.0, np.abs(table[:, :, 1:]).sum(axis=1))
        dsum = float(np.max(np.abs(sums[:, 1:]) / scale))
        self.expect(dsum <= DERIV_SUM_RTOL, f"{where}: derivatives sum to 0 within {dsum:.3g}")
        low = float(table[:, :, 0].min())
        self.expect(low >= -ZERO_TOL, f"{where}: negative basis value {low:.3g}")

    def _check_oracle(self, got, want, where: str) -> None:
        np = self.np
        orders = want.shape[2]
        err = float(np.max(np.abs(got[:, :, :orders] - want)))
        tol = ORACLE_TOL[self.oracle_kind]
        self.expect(err <= tol, f"{where}: {self.oracle_kind} oracle deviation {err:.3g} > {tol:g}")

    def check_eval(self, table) -> None:
        table = self.np.array(table)
        self._check_table(table, "eval")
        self._check_oracle(table[self.inputs["oracle_points"]], self.oracle_eval, "eval")

    def check_csv(self) -> None:
        np = self.np
        with open(self.csv_path, "rb") as fh:
            data = fh.read()
        if self.first_csv is not None:
            self.expect(data == self.first_csv, "sample: two runs wrote different CSV bytes")
            return
        self.first_csv = data
        grid = np.loadtxt(io.StringIO(data.decode()), delimiter=",", skiprows=1, ndmin=2)
        n, orders = self.n_basis, self.inputs["sample"]["deriv"] + 1
        self.expect(grid.shape == (self.inputs["sample"]["n"], 1 + n * orders), "sample: CSV shape")
        xs = grid[:, 0]
        table = grid[:, 1:].reshape(len(xs), orders, n).transpose(0, 2, 1)
        self._check_table(table, "sample")
        u, v = np.asarray(self.u), np.asarray(self.v)
        outside = (xs[:, None] < u[None, :]) | (xs[:, None] > v[None, :])
        leak = float(np.max(np.abs(table[:, :, 0][outside]), initial=0.0))
        self.expect(leak <= ZERO_TOL, f"sample: value {leak:.3g} outside the support")
        self._check_oracle(table[self.oracle_rows], self.oracle_csv, "sample")

    def check_verify(self, text: str) -> None:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        bad = [ln for ln in lines if not ln.startswith("PASS ")]
        self.expect(bool(lines) and not bad, f"verify: non-PASS lines {bad[:3]}")

    def _check_transfer(self, old, refined, transfer, where: str) -> None:
        np = self.np
        self.expect(refined.n_basis == old.n_basis + 1, f"{where}: dimension")
        self.expect(transfer.shape == (old.n_basis + 1, old.n_basis), f"{where}: transfer shape")
        rows = float(np.max(np.abs(transfer.sum(axis=1) - 1.0)))
        self.expect(rows <= ROW_SUM_TOL, f"{where}: transfer rows sum to 1 within {rows:.3g}")
        self.expect(bool(transfer.min() >= 0.0), f"{where}: negative transfer entry")

    def check_insert(self, old, refined, transfer, control, step) -> None:
        np = self.np
        where = f"insert {step['kind']} at {step['x']!r}"
        self._check_transfer(old, refined, transfer, where)
        curve = self._curve(refined, transfer @ control, self.curve_x)
        dev = float(np.max(np.abs(curve - self.curve_ref)))
        self.expect(
            dev <= CURVE_RTOL * self.control_scale,
            f"{where}: curve moved by {dev:.3g} (control scale {self.control_scale:.3g})",
        )

    def check_probe(self, old, refined, transfer, probe) -> None:
        """A near-end insertion that returns must keep every curve: at each
        of the probe's check points, sum_k |(T^T B_new - B_old)_k| bounds the
        move of a curve whose control net has scale 1.  A larger move counts
        the probe as failed; the other properties are checks as for the chain."""
        np = self.np
        self._check_transfer(old, refined, transfer, f"probe {probe['kind']}")
        eval_basis = self.S.eval_basis
        xs = probe["check_points"]
        before = np.array([eval_basis(old, x)[:, 0] for x in xs])
        after = np.array([eval_basis(refined, x)[:, 0] for x in xs]) @ transfer
        dev = float(np.max(np.abs(after - before).sum(axis=1)))
        if dev > CURVE_RTOL:
            self.failures.append({
                "op": "probe",
                "input": probe["kind"],
                "error": "CurveNotPreserved",
                "message": f"a unit-scale curve moves by up to {dev:.3g} > {CURVE_RTOL:g}",
            })

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict:
        med = statistics.median
        t = self.times
        n_points = len(self.points)
        return {
            "build_s": {"value": med(t["build"]), "unit": "s"},
            "eval_points_per_s": {"value": med(n_points / s for s in t["eval"]), "unit": "1/s"},
            "sample_s": {"value": med(t["sample"]), "unit": "s"},
            "verify_s": {"value": med(t["verify"]), "unit": "s"},
            "insert_s": {"value": med(t["insert"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }


def per_layer(tracer, rounds: int, traced_op_s: float, untraced_op_s: float) -> dict:
    """Per-round layer metrics from the spans of ``rounds`` traced rounds;
    the last two arguments are median operation times of a traced and an
    untraced round."""
    import numpy as np

    dur, self_t = tracer.self_times()
    names = np.asarray(tracer.names)

    def self_s(name):
        return float(self_t[names == name].sum()) / rounds

    def calls(name):
        return float(np.count_nonzero(names == name)) / rounds

    # Insertions that raised (the near-end probes today) are left out of
    # the two insertion metrics.
    inserted = (names == "space.insert_knot") & ~np.asarray(tracer.raised, dtype=bool)
    inserts = np.count_nonzero(inserted)
    evals_in_insert = np.count_nonzero((names == "space.eval_basis") & tracer.within(inserted))
    stored, nnz = max(tracer.operator_sizes, default=(0, 0))
    is_op = np.char.startswith(names, "op.")
    layer_share = float(self_t[~is_op].sum() / dur[is_op].sum())
    values = {
        "config.load_s": self_s("config.load"),
        "sections.span_derivatives_calls": tracer.counts["sections.span_derivatives"] / rounds,
        "bernstein.build_calls": calls("bernstein.build"),
        "bernstein.build_s": self_s("bernstein.build"),
        "bernstein.evaluate_calls": calls("bernstein.evaluate"),
        "bernstein.evaluate_s": self_s("bernstein.evaluate"),
        "extraction.knot_vectors_s": self_s("extraction.knot_vectors"),
        "extraction.constraints_s": self_s("extraction.constraints"),
        "extraction.cascade_s": self_s("extraction.cascade"),
        "extraction.nullspace_steps": tracer.counts["extraction.nullspace_step"] / rounds,
        "extraction.stored_bytes": float(stored),
        "extraction.operator_nnz": float(nnz),
        "space.build_self_s": self_s("space.build"),
        "space.eval_basis_calls": calls("space.eval_basis"),
        "space.eval_basis_s": self_s("space.eval_basis"),
        "space.insert_knot_s": float(self_t[inserted].sum()) / rounds,
        "space.evals_per_insert": float(evals_in_insert / inserts) if inserts else 0.0,
        "space.jump_vector_s": self_s("space.jump_vector"),
        "space.unit_integral_s": self_s("space.unit_integral"),
        "oracle.recurrence_s": self_s("oracle.recurrence"),
        "oracle.cox_de_boor_s": self_s("oracle.cox_de_boor"),
        "cli.sample_self_s": self_s("cli.sample"),
        "cli.verify_self_s": self_s("cli.verify"),
        "trace.layer_share_pct": 100.0 * layer_share,
        "trace.overhead_pct": 100.0 * (traced_op_s - untraced_op_s) / untraced_op_s,
    }
    units = {"_s": "s", "_calls": "count", "_steps": "count", "_bytes": "bytes",
             "_nnz": "count", "_insert": "calls/insert", "_pct": "%"}
    return {
        name: {"value": value, "unit": next(u for sfx, u in units.items() if name.endswith(sfx))}
        for name, value in values.items()
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "memory_cap_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def setup_probe(inputs_dir: str) -> None:
    t0 = perf_counter()
    from gtbsplines.config import SpaceConfig

    SpaceConfig.from_json_file(os.path.join(inputs_dir, "space.json"))
    elapsed = perf_counter() - t0
    calibrate = Calibration()
    speed = CAL_REF_S / statistics.median(calibrate() for _ in range(3))
    print(json.dumps({"setup_s": elapsed * speed}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one gtbsplines benchmark workload process")
    parser.add_argument("--inputs", required=True, help="directory written by gen_inputs.py")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    set_memory_cap()
    if args.setup_probe:
        setup_probe(args.inputs)
        return 0

    warnings.simplefilter("ignore")  # conditioning notes of the near-end probes
    work = Workload(args.inputs, None if args.trace else Calibration())
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    # A traced run alternates untraced and traced rounds; the ratio of their
    # median operation times is the tracing overhead.
    untraced_op_s = []
    deadline = perf_counter() + args.seconds
    rounds = 0
    while rounds < (2 if tracer else 1) or perf_counter() < deadline:
        if tracer and rounds % 2 == 1:
            work.tracer = tracer
            tracer.install()
            try:
                work.run_round()
            finally:
                tracer.uninstall()
                work.tracer = None
        else:
            work.run_round()
            if tracer:
                untraced_op_s.append(work.round_op_s.pop())
        rounds += 1

    if tracer:
        traced = work.round_op_s
        metrics = per_layer(tracer, len(traced), statistics.median(traced), statistics.median(untraced_op_s))
        tracer.write(os.path.join(SPANS_DIR, f"spans-{work.inputs['workload']}.json.gz"))
    else:
        metrics = work.end_to_end()
    result = {
        "correct": not work.problems,
        "attempted": work.attempted,
        "failed": len(work.failures),
        "metrics": metrics,
        "rounds": rounds,
        "problems": work.problems,
        "failures": work.failures,
        "env": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
