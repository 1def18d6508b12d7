"""Command-line front end.

Subcommands: check, compose, pld, copula-sample, ic, audit, experiment.
Every output file starts with a header recording the tool version, seed,
and model hash; reruns with identical inputs are byte-identical.  Exit
codes: 0 success, 1 property or certification failure, 2 usage/input
error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from . import composition as comp
from . import config
from . import ic
from .audit import compare_protocol
from .copula import copula_spec_from_mapping, psedr_samples
from .experiments import run_copula_experiment, run_independent_experiment
from .model import Model, ModelError, adjacency_labels, check_cap, effective_kernel, load_model
from .pld import pld_csv, pld_from_pair


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "unachievable" if x > 0 else "-inf"
        return repr(float(x))
    return str(x)


_encoder = functools.cache(lambda pad: json.JSONEncoder(separators=("," + pad, ": ")).encode)


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    dicts of scalars, lists and matrices (rows of one length) at indent
    ``pad``.  A list or matrix is one call of the C encoder (``json`` skips
    it under ``indent``), a matrix's rows cut apart at ``],<pad>[``."""
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    rows = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(rows, list) or not rows:
        return json.dumps(rows)
    if not isinstance(rows[0], list):
        return "[" + inner + _encoder(inner)(rows)[1:-1] + pad + "]"
    if not rows[0]:  # rows without entries print as []
        return "[" + inner + ("," + inner).join(["[]"] * len(rows)) + pad + "]"
    cells = inner + "  "
    body = _encoder(cells)(rows)[2:-2].replace("]," + cells + "[", inner + "]," + inner + "[" + cells)
    return "[" + inner + "[" + cells + body + inner + "]" + pad + "]"


def _number(convert, ok, what: str):
    """An argparse ``type=`` that reads ``convert(text)`` and accepts it iff
    ``ok`` holds, so a bad number exits 2 before any command runs."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


FINITE = _number(float, math.isfinite, "a finite number")
PROBABILITY = _number(float, lambda v: 0.0 <= v <= 1.0, "a probability in [0, 1]")
COUNT = _number(int, lambda v: v > 0, "a positive count")
CAP = _number(int, lambda v: 0 < v <= 10**7, "a count in (0, 1e7]")


def _model_hash(path) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]
    except OSError:
        return "none"


def _header(args, cmd: str) -> str:
    model = getattr(args, "model", None)
    h = _model_hash(model) if model else "none"
    return f"# dcp {__version__} cmd={cmd} seed={getattr(args, 'seed', 0)} model=sha256:{h}\n"


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> Model:
    if not getattr(args, "model", None):
        raise ModelError("this command needs --model")
    return load_model(args.model)


def _check_rows(model: Model):
    """``dcp check``'s (name, law) rows, each built when the loop reaches it."""
    for mech in model.mechanisms:
        yield mech.name, effective_kernel(model.world, mech)
    if model.mechanisms:
        yield "__composition__", comp.Composition.of(model.world, model.mechanisms, model.dependence).lumped


def cmd_check(args) -> int:
    model = _load(args)
    world = model.world
    reports = {}
    ok = True
    for name, law in _check_rows(model):
        rep = law.check(world, args.eps, args.delta)
        reports[name] = {
            "holds": rep.holds,
            "worst_pair": [world.secrets[rep.worst_pair[0]], world.secrets[rep.worst_pair[1]]],
            "worst_delta": rep.worst_delta,
        }
        ok = ok and rep.holds
    payload = {"eps": args.eps, "delta": args.delta, "holds": ok, "reports": reports}
    _emit(args, _header(args, "check") + _json(payload) + "\n")
    return 0 if ok else 1


def cmd_compose(args) -> int:
    model = _load(args)
    report = comp.composition_report(
        model.world, list(model.mechanisms), list(model.dependence),
        delta_gs=args.delta_g, eps_gs=args.eps_g,
    )
    lines = [_header(args, "compose")]
    lines.append("s0,s1,delta_g,underline_opt,true_opt,overline_opt\n")
    for (s0, s1, dg, u, t, o) in report.opt_rows:
        lines.append(f"{model.world.secrets[s0]},{model.world.secrets[s1]},{_fmt(dg)},{_fmt(u)},{_fmt(t)},{_fmt(o)}\n")
    lines.append("\n")
    lines.append("s0,s1,eps_g,underline_dt,true_dt,overline_dt\n")
    for (s0, s1, eg, u, t, o) in report.dt_rows:
        lines.append(f"{model.world.secrets[s0]},{model.world.secrets[s1]},{_fmt(eg)},{_fmt(u)},{_fmt(t)},{_fmt(o)}\n")
    lines.append(f"\n# basic_composition_holds={report.basic_holds}\n")
    _emit(args, "".join(lines))
    return 0 if report.ordering_ok() else 1


def cmd_pld(args) -> int:
    model = _load(args)
    world = model.world
    s0 = world.secret_index(args.pair[0])
    s1 = world.secret_index(args.pair[1])
    if (s0, s1) not in world.adjacency:
        raise ModelError(f"({args.pair[0]},{args.pair[1]}) is not an adjacent pair")
    if args.mech:
        mechs = [m for m in model.mechanisms if m.name == args.mech]
        if not mechs:
            raise ModelError(f"no mechanism named {args.mech!r}")
        law = effective_kernel(world, mechs[0])
    else:
        law = comp.Composition.of(world, model.mechanisms, model.dependence).lumped
    _emit(args, _header(args, "pld") + pld_csv(pld_from_pair(law.pair(s0, s1))))
    return 0


def cmd_copula_sample(args) -> int:
    model = _load(args)
    if model.copula is None:
        raise ModelError("model file has no copula section")
    spec = copula_spec_from_mapping(model.copula, adjacency_labels(model.world))
    state = args.state or model.world.secrets[0]
    check_cap(6 * args.n, f"{args.n} samples x 6 columns")
    rng = np.random.default_rng(args.seed)
    out = psedr_samples(spec, state, rng, args.n)
    lines = [_header(args, "copula-sample"), "z1,z2,u1,u2,v1,v2\n", *_sample_lines(out)]
    _emit(args, "".join(lines))
    return 0


def _sample_lines(out) -> list[str]:
    """One CSV line per sample, each number as ``_fmt`` writes it."""
    cols = []
    for k in ("z1", "z2", "u1", "u2", "v1", "v2"):
        col = np.asarray(out[k], dtype=float)
        text = list(map(repr, col.tolist()))
        for i in np.flatnonzero(np.isinf(col)):  # the cells _fmt words instead
            text[i] = _fmt(col.item(i))
        cols.append(text)
    return [",".join(row) + "\n" for row in zip(*cols)]


def cmd_ic(args) -> int:
    model = _load(args)
    task1 = {"tau_g": args.tau, "alpha_size": args.alphabet, "loss": args.loss}  # main refuses them in task 2
    problem = ic.IcProblem(
        world=model.world,
        mechs=list(model.mechanisms),
        dependence=list(model.dependence),
        delta_g=args.delta_g,
        **{k: v for k, v in task1.items() if v is not None},  # unset: the problem's defaults
    )
    sol = ic.solve_task1(problem) if args.task == 1 else ic.solve_task2(problem)
    payload = {
        "alpha": sol.alpha,
        # the per-atom rows, one per outcome as printed; the cap refuses too many
        "pi": comp.Composition.of(problem.world, problem.mechs, problem.dependence).per_outcome(sol.pi)
        if problem.mechs else sol.pi,
        "tau_g": sol.tau_g,
        "eps_g": sol.eps_g,
        "feasibility": sol.feasibility,
        "certified": sol.certified,
        "direct_check_delta": sol.direct_check_delta,
    }
    _emit(args, _header(args, "ic") + _json(payload) + "\n")
    return 0 if sol.certified else 1


def cmd_audit(args) -> int:
    model = _load(args)
    world = model.world
    names = [m.name for m in model.mechanisms]  # unique: load_model refuses a repeat
    if args.single not in names:
        raise ModelError(f"no mechanism named {args.single!r} for the single setup")
    single_idx = names.index(args.single)
    members = [i for i in range(len(names)) if i != single_idx]
    if not members:
        raise ModelError("need at least one mechanism besides the single setup")
    law_single = effective_kernel(world, model.mechanisms[single_idx])
    if any(single_idx in g.members for g in model.dependence):
        raise ModelError(f"single mechanism {args.single!r} belongs to a dependence group; "
                         "pick an independent one")
    remap = {old: new for new, old in enumerate(members)}
    dep = [type(g)(members=tuple(remap[i] for i in g.members), joint_kernel=g.joint_kernel,
                   joint_outputs=g.joint_outputs) for g in model.dependence]
    # the lumped law hands out the pairs the dense joint would: the audit reads nothing else
    law_comp = comp.Composition.of(world, [model.mechanisms[i] for i in members], dep).lumped
    grid = [(eg, dg) for eg in args.eps_g for dg in args.delta_g]
    rows = compare_protocol(world, law_comp, law_single, grid)
    lines = [_header(args, "audit"), "eps_g,delta_g,auc_composed,auc_single,gap\n"]
    for r in rows:
        lines.append(f"{_fmt(r['eps_g'])},{_fmt(r['delta_g'])},{_fmt(r['auc_composed'])},"
                     f"{_fmt(r['auc_single'])},{_fmt(r['gap'])}\n")
    _emit(args, "".join(lines))
    failed = any(max(r["delta_composed"], r["delta_single"]) > r["delta_g"] + 1e-9 for r in rows)
    return 1 if failed else 0


def _svg_chart(rows, path) -> None:
    """Minimal unstyled SVG line chart of AUC vs the budget grid."""
    width, height, pad = 480, 320, 40
    xs = [r.eps_g for r in rows]
    x0, x1 = min(xs), max(xs)
    sx = lambda x: pad + (x - x0) / max(x1 - x0, 1e-9) * (width - 2 * pad)
    sy = lambda y: height - pad - (y - 0.5) / 0.5 * (height - 2 * pad)
    def poly(vals):
        return " ".join(f"{sx(x):.1f},{sy(v):.1f}" for x, v in zip(xs, vals))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{poly([r.auc_composed for r in rows])}" fill="none" stroke="black"/>',
        f'<polyline points="{poly([r.auc_single for r in rows])}" fill="none" stroke="gray" stroke-dasharray="4"/>',
        f'<text x="{pad}" y="{height-8}" font-size="10">auc composed (solid) vs single (dashed), 0.5-1.0</text>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_experiment(args) -> int:
    if args.name == "independent":
        result = run_independent_experiment(seed=args.seed)
    else:
        kw = {"block_bins": args.bins} if args.bins else {}
        result = run_copula_experiment(seed=args.seed, **kw)
    lines = [_header(args, f"experiment-{args.name}")]
    lines.append("eps_g,eps_i,delta_g,auc_composed,auc_single,gap,ic_flag,fill_parameter\n")
    failed = False
    for r in result.rows:
        if "fill-infeasible" in r.ic_flag:
            failed = True
        lines.append(
            f"{_fmt(r.eps_g)},{_fmt(r.eps_i)},{_fmt(r.delta_g)},{_fmt(r.auc_composed)},"
            f"{_fmt(r.auc_single)},{_fmt(r.gap)},{r.ic_flag},{_fmt(r.fill_parameter)}\n"
        )
    _emit(args, "".join(lines))
    if args.svg:
        _svg_chart(result.rows, args.svg)
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dcp`` parser, built once; list defaults are tuples no call can change."""
    parser = argparse.ArgumentParser(prog="dcp", description=__doc__)
    parser.add_argument("--model", help="model JSON file")
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in outputs")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--cap", type=CAP, default=None,
                        help="override the cap on atoms, or outcomes x symbols, a build allocates (at most 1e7)")
    parser.add_argument("--bins", type=COUNT, default=None,
                        help="grid resolution for continuous discretization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify mechanisms and their composition")
    p.add_argument("--eps", type=FINITE, required=True)
    p.add_argument("--delta", type=PROBABILITY, required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compose", help="composition bound tables")
    p.add_argument("--delta-g", type=PROBABILITY, nargs="+", default=(0.0, 0.02))
    p.add_argument("--eps-g", type=FINITE, nargs="+", default=(0.5, 1.0))
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("pld", help="loss distribution of a pair")
    p.add_argument("--pair", nargs=2, required=True, metavar=("S0", "S1"))
    p.add_argument("--mech", help="restrict to one mechanism by name")
    p.set_defaults(func=cmd_pld)

    p = sub.add_parser("copula-sample", help="correlated noise samples")
    p.add_argument("-n", type=COUNT, default=1000)
    p.add_argument("--state", help="state label driving the latent shift")
    p.set_defaults(func=cmd_copula_sample)

    p = sub.add_parser("ic", help="inverse-composition design / certification")
    p.add_argument("--task", type=int, choices=(1, 2), required=True)
    p.add_argument("--tau", type=FINITE, help="ratio bound (task 1)")
    p.add_argument("--delta-g", type=PROBABILITY, default=0.0)
    p.add_argument("--alphabet", type=COUNT, help="added channel size m (task 1, default 2)")
    p.add_argument("--loss", choices=("log", "brier"), help="loss (task 1, default log)")
    p.set_defaults(func=cmd_ic)

    p = sub.add_parser("audit", help="attacker AUC of composed vs single")
    p.add_argument("--single", required=True, help="mechanism name used as the single setup")
    p.add_argument("--eps-g", type=FINITE, nargs="+", required=True)
    p.add_argument("--delta-g", type=PROBABILITY, nargs="+", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("experiment", help="seeded budget-filling experiment")
    p.add_argument("--name", choices=("independent", "copula"), required=True)
    p.add_argument("--svg", help="also write a minimal SVG chart")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cap = config.OUTCOME_CAP
    if args.cap is not None:
        config.OUTCOME_CAP = args.cap
    try:
        if args.bins is not None and not (args.command == "experiment" and args.name == "copula"):
            raise ModelError("--bins applies only to experiment --name copula")
        if args.command == "ic" and args.task == 1 and args.tau is None:
            raise ModelError("task 1 needs --tau")
        task1_only = [f for f in ("tau", "alphabet", "loss") if getattr(args, f, None) is not None]
        if args.command == "ic" and args.task == 2 and task1_only:
            raise ModelError(f"--{task1_only[0]} applies only to ic --task 1")
        return args.func(args)
    except (ModelError, ValueError, OSError) as exc:
        sys.stderr.write(f"dcp: error: {exc}\n")
        return 2
    finally:
        config.OUTCOME_CAP = cap


if __name__ == "__main__":
    sys.exit(main())
