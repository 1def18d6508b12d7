"""dcpkit benchmark: one closed-loop workload per run, checked and timed.

    python3 bench/run.py --workload {cli,large_alphabet,experiments} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The seed makes the workload's inputs (see ``gen.py``).  One
operation runs after another in this process; the run repeats whole rounds
of the workload's operations until ``--seconds`` have passed.  Every
operation's output is checked (``checks.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics (``tracer.py``) with ``--trace 1``.  See README.md.
"""

import time

T0 = time.perf_counter()  # a fresh interpreter's set-up time starts here

import argparse
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli", "large_alphabet", "experiments")
SETUP_PROBES = 2  # extra fresh-interpreter set-ups; setup_s is the median of 3


# BLAS threads: one per CPU this process may use; set before numpy loads
_NCPU = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _NCPU
if not (SRC / "dcpkit" / "__init__.py").is_file():
    sys.exit(f"bench: no dcpkit source under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
from time import perf_counter

import numpy as np

import dcpkit
import dcpkit.cli
import dcpkit.experiments

import gen

if Path(dcpkit.__file__).resolve().parent != (SRC / "dcpkit").resolve():
    sys.exit(f"bench: imported dcpkit from {dcpkit.__file__}, not from {SRC}")

RERUN_SHARE = 0.15  # share of cli operations rerun byte for byte in the first round


# -- workloads ----------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path):
    """Generate and write the round's inputs and load what the operations need."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = gen.ROUNDS[workload](seed, workdir, ROOT)
    if workload == "large_alphabet":
        for op in ops:
            op["loaded"] = dcpkit.load_model(op["model"])
    return ops


def cli_op(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dcpkit.cli.main(op["argv"])
    return code, out.getvalue(), err.getvalue()


def la_op(op):
    comp, audit, div, ic = (dcpkit.composition, dcpkit.audit, dcpkit.divergence, dcpkit.ic)
    model = op["loaded"]
    world, mechs = model.world, list(model.mechanisms)
    cj = comp.composed_joint(world, mechs, [])
    true = [comp.true_opt(world, mechs, [], d, per_pair=True) for d in gen.LA_DELTAS]
    under = [comp.underline_opt(world, mechs, d, per_pair=True) for d in gen.LA_DELTAS]
    roc, pair = audit.worst_pair_roc(world, cj.matrix)
    curve = div.tradeoff_curve(cj.pair(*pair))
    dom = comp.tradeoff_dominance(world, mechs, [])
    sol = ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=op["ic_delta"]))
    return {"joint": cj.matrix, "true": true, "under": under, "roc_auc": roc.auc,
            "roc_pair": pair, "curve": (curve.alphas, curve.betas), "dominance": dom,
            "tau": sol.tau_g}


def exp_op(op):
    ex = dcpkit.experiments
    run = ex.run_copula_experiment if op["kind"] == "copula" else ex.run_independent_experiment
    res = run(seed=op["seed"], eps_gs=(op["eps_g"],), eps_is=(op["eps_i"],), delta=op["delta"])
    return res.rows[0]


def fingerprint(value) -> str:
    """Digest of an operation's result, to compare later rounds with the first."""
    h = hashlib.sha256()

    def feed(v):
        if hasattr(v, "tobytes"):
            h.update(v.tobytes())
        elif isinstance(v, dict):
            for k in sorted(v, key=repr):
                h.update(repr(k).encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            for x in v:
                feed(x)
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


class Runner:
    """Runs a workload's rounds, times each operation and checks its output."""

    def __init__(self, workload, seed, ops, tracer=None):
        self.workload, self.ops = workload, ops
        self.tracer = tracer
        self.latencies: list[list[float]] = [[] for _ in ops]  # op index -> one per round
        self.busy_by_kind: dict[str, list] = {}  # kind -> [operations, seconds]
        self.attempted = self.failed = 0
        self.correct = True
        self.first: dict[int, str] = {}  # op index -> fingerprint of its first result
        self.refs: dict[str, "checks.RefModel"] = {}
        self.rerun = np.random.default_rng([seed % 2**64, 7]).random(len(ops)) < RERUN_SHARE
        # a round runs every operation once, then those with more passes again
        passes = max(op.get("passes", 1) for op in ops)
        self.schedule = [i for p in range(passes) for i, op in enumerate(ops)
                         if op.get("passes", 1) > p]

    def ref(self, path: str) -> "checks.RefModel":
        if path not in self.refs:
            with open(path, encoding="utf-8") as fh:
                self.refs[path] = checks.RefModel(json.load(fh))
        return self.refs[path]

    def bad(self, i, msg):
        self.correct = False
        print(f"bench: op {i} ({self.ops[i]['kind']}): {msg}", file=sys.stderr)

    def run_round(self) -> None:
        for i in self.schedule:
            op = self.ops[i]
            if self.tracer is not None:
                self.tracer.begin(self.attempted)
            self.attempted += 1
            t0 = perf_counter()
            try:
                if self.workload == "cli":
                    result = cli_op(op)
                elif self.workload == "large_alphabet":
                    result = la_op(op)
                else:
                    result = exp_op(op)
                err = None
            except Exception as exc:  # an uncaught error is the operation failing
                err = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if self.tracer is not None:
                self.tracer.end_op()
            tally = self.busy_by_kind.setdefault(op["kind"], [0, 0.0])
            tally[0] += 1
            tally[1] += t1 - t0
            if op["kind"] == "malformed":
                if err is None and result[0] == 2 and "dcp: error:" in result[2]:
                    self.latencies[i].append(t1 - t0)
                else:
                    self.failed += 1
                    if not op["must_fail_today"]:
                        self.bad(i, f"malformed-model control not rejected: {err or result[0]}")
                continue
            if err is not None:
                self.failed += 1
                self.bad(i, f"raised {err}")
                continue
            self.latencies[i].append(t1 - t0)
            try:
                self.verify(i, op, result)
            except Exception as exc:  # output the checks cannot read is wrong output
                self.bad(i, f"check failed: {type(exc).__name__}: {exc}")

    def verify(self, i, op, result) -> None:
        if self.workload == "cli":
            code, text, _ = result
            digest = fingerprint((code, text))
        else:
            digest = fingerprint(result)
        if i in self.first:
            # later runs repeat the same inputs: outputs must repeat exactly
            checks.expect(digest == self.first[i], "output differs from the first run")
            return
        self.first[i] = digest
        if self.workload == "cli":
            checks.check_cli(op, code, text, self.ref(op["model"]))
            if self.rerun[i]:
                ctx = self.tracer.suspended() if self.tracer else contextlib.nullcontext()
                with ctx:
                    again = cli_op(op)
                checks.expect(fingerprint((again[0], again[1])) == digest, "rerun differs byte for byte")
        elif self.workload == "large_alphabet":
            checks.check_large(op, result, self.ref(op["model"]), gen.LA_DELTAS)
        else:
            checks.check_experiment(op, result)


# -- main ---------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter (this script with --setup-only)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit (used for setup_s)")
    return ap.parse_args(argv)


def main() -> int:
    global checks
    args = parse_args()
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = setup(args.workload, args.seed, workdir)
        setup_s = perf_counter() - T0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        # imported after set-up: its scipy.stats is the benchmark's cost, not dcpkit's
        import checks
        setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        tracer = None
        if args.trace:
            from tracer import RATIO, Tracer

            tracer = Tracer()
            tracer.install()
        runner = Runner(args.workload, args.seed, ops, tracer)
        start = perf_counter()
        rounds = 0
        while rounds == 0 or perf_counter() - start < args.seconds:
            runner.run_round()
            rounds += 1
        wall = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    # An operation's latency is its fastest over the run's rounds.  The speed
    # of this shared machine swings by a third for seconds at a time; the
    # rounds spread each operation's runs over the whole run, and the least
    # disturbed of them is what the operation costs.
    lat = [min(t) for t in runner.latencies if t]
    if args.trace:
        metrics = tracer.layer_metrics(runner.attempted)
        metrics["trace.ops_per_s"] = len(lat) / sum(lat)
        units = {k: ("s/op" if k.endswith("self_s") else "count/op") for k in metrics}
        units[RATIO] = "ratio"
        units["trace.ops_per_s"] = "1/s"
        outdir = BENCH / "out"
        outdir.mkdir(exist_ok=True)
        tracer.write(outdir / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                 "peak_rss_mb": "MB"}
    print(f"bench: {args.workload} seed={args.seed} rounds={rounds} ops={runner.attempted} "
          f"failed={runner.failed} wall={wall:.1f}s setups={[round(s, 3) for s in setups]}",
          file=sys.stderr)
    for kind, (n, secs) in sorted(runner.busy_by_kind.items()):
        print(f"bench:   {kind:12s} {n:5d} ops {secs:9.3f} s", file=sys.stderr)
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
