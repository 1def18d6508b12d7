"""Seeded input generator for the dcpkit benchmark.

Uses numpy and scipy only -- never ``dcpkit.synth`` -- so a change to the
program cannot change what the workloads receive.  Every size is checked by
``size_guard`` from the dimensions alone, before any file is written or any
program call is made.

Each workload's inputs form one *round*: a fixed number of operations
whose mix of sizes and structure is stratified, so that the seed changes the
numbers inside the instances but not how much work a round holds.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

# -- size guard ---------------------------------------------------------------

# cli: product alphabet of a generated model.  The cap also bounds the
# conservative bound in `compose`: it convolves the world-term PLD (one atom
# per live outcome) with one PLD per mechanism, so its last raw convolution
# holds alphabet^2 atoms: 2401^2 = 5.8M atoms is about 0.6 GB peak; 16807
# outcomes would reach 6.2 GB.
CLI_ALPHABET_CAP = 2401
# large_alphabet: composed joint plus the per-dataset product tensor.
LA_ALPHABET_CAP = 120_000
LA_CELL_CAP = 12 * LA_ALPHABET_CAP  # (datasets + secrets) x alphabet float64 cells


class SizeError(ValueError):
    """A generated instance would exceed the benchmark's resource caps."""


def size_guard(workload: str, n_secrets: int, n_datasets: int, dims) -> int:
    """Refuse an instance whose dimensions exceed the caps; return its alphabet."""
    alphabet = math.prod(dims)
    if workload == "cli":
        if alphabet > CLI_ALPHABET_CAP:
            raise SizeError(f"cli alphabet {alphabet} > {CLI_ALPHABET_CAP}")
    elif workload == "large_alphabet":
        if alphabet > LA_ALPHABET_CAP:
            raise SizeError(f"alphabet {alphabet} > {LA_ALPHABET_CAP}")
        if (n_datasets + n_secrets) * alphabet > LA_CELL_CAP:
            raise SizeError(f"{(n_datasets + n_secrets) * alphabet} joint cells > {LA_CELL_CAP}")
    return alphabet


# -- building blocks ----------------------------------------------------------


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) * 31**i for i, c in enumerate(workload)) % (2**31)
    return np.random.default_rng([seed % 2**64, tag])


def _kernel(rng, n_datasets: int, n_outputs: int) -> np.ndarray:
    """Row-stochastic kernel with every entry at least 0.3/n_outputs.

    The floor bounds every likelihood ratio per mechanism by about 23, so
    posteriors stay away from 0 and the IC task-2 ratio stays finite.
    """
    w = rng.uniform(0.3, 0.6)
    return (1.0 - w) * rng.dirichlet(np.ones(n_outputs), size=n_datasets) + w / n_outputs


def _joint(rng, n_secrets: int, n_datasets: int, invertible: bool) -> np.ndarray:
    prior = rng.dirichlet(np.full(n_secrets, 5.0))
    prior = 0.5 * prior + 0.5 / n_secrets  # every secret keeps >= 1/(2 n) mass
    if invertible:
        cond = np.zeros((n_secrets, n_datasets))
        cond[np.arange(n_secrets), rng.permutation(n_datasets)[:n_secrets]] = 1.0
    else:
        cond = 0.7 * rng.dirichlet(np.ones(n_datasets), size=n_secrets) + 0.3 / n_datasets
    joint = prior[:, None] * cond
    return joint / joint.sum()


def _comonotone(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """North-west-corner coupling of two probability vectors."""
    out = np.zeros((a.size, b.size))
    a, b = a.copy(), b.copy()
    i = j = 0
    while i < a.size and j < b.size:
        m = min(a[i], b[j])
        out[i, j] += m
        a[i] -= m
        b[j] -= m
        if a[i] <= b[j]:
            i += 1
        else:
            j += 1
    return out


def _dependence(rng, kernels, members) -> dict:
    """Joint kernel of two members: a mix of independence and comonotonicity."""
    ka, kb = kernels[members[0]], kernels[members[1]]
    c = rng.uniform(0.2, 0.5)
    rows = []
    for x in range(ka.shape[0]):
        rows.append(((1.0 - c) * np.outer(ka[x], kb[x]) + c * _comonotone(ka[x], kb[x])).ravel())
    outs = [f"{i}{j}" for i in range(ka.shape[1]) for j in range(kb.shape[1])]
    return {"members": list(members), "joint_kernel": np.array(rows).tolist(), "joint_outputs": outs}


def _copula(rng, secrets) -> dict:
    delta_c = float(rng.uniform(0.01, 0.05))
    etas = np.sort(rng.uniform(0.0, 2.0, size=len(secrets)))
    rng.shuffle(etas)
    rho = float(rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0]))

    return {
        "rho": rho,
        "eta": {s: float(e) for s, e in zip(secrets, etas)},
        "eps_c": float(rng.uniform(0.5, 2.0)),
        "delta_c": delta_c,
        "w": 2.0 * math.log(2.0 / delta_c) * float(rng.uniform(1.0, 1.5)),
        "xi1": {"family": "laplace", "scale": float(rng.uniform(0.5, 3.0))},
        "xi2": {"family": "gaussian", "sigma": float(rng.uniform(0.5, 3.0))},
    }


def _adjacency(n_secrets: int, style: str):
    if style == "all":
        return None  # all ordered pairs
    if style == "chain":
        chain = [[i, i + 1] for i in range(n_secrets - 1)]
        return {"pairs": chain}
    metric = np.abs(np.subtract.outer(np.arange(n_secrets), np.arange(n_secrets))).astype(float)
    return {"metric": metric.tolist(), "d": 1.0}


def _dims_near(rng, target: float, k: int, n_lo: int, n_hi: int):
    """k output counts, ascending, whose product is among the closest to target."""
    combos = list(itertools.combinations_with_replacement(range(n_lo, n_hi + 1), k))
    err = np.array([abs(math.log(math.prod(c) / target)) for c in combos])
    near = np.flatnonzero(err <= max(err.min(), 0.01))
    return combos[int(rng.choice(near))]


def _model(secrets, datasets, joint, kernels, adjacency=None, dependence=(), copula=None) -> dict:
    model = {
        "secrets": list(secrets),
        "datasets": list(datasets),
        "joint": np.asarray(joint).tolist(),
        "mechanisms": [
            {"name": f"m{i}", "outputs": [f"y{j}" for j in range(k.shape[1])], "kernel": k.tolist()}
            for i, k in enumerate(kernels)
        ],
    }
    if adjacency is not None:
        model["adjacency"] = adjacency
    if dependence:
        model["dependence"] = list(dependence)
    if copula is not None:
        model["copula"] = copula
    return model


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")


# -- cli ----------------------------------------------------------------------

# One row per generated model of a round: (alphabet, secrets, mechanisms,
# adjacency, invertible, dependence group, copula section).  What sets the
# cost of an operation is fixed per slot -- compose time grows with
# alphabet^2 x adjacent pairs and collapses on invertible worlds -- so the
# seed changes the numbers inside the models and the arguments, not the
# work a round holds.  Adjacency "all" is every ordered pair, "chain" the
# pairs (i, i+1), "metric" the equivalent |i - j| <= 1 metric.  The output
# counts multiply to the alphabet within 1% where they can, else as near as
# they can; the datasets (2-6) are fixed per slot too.
CLI_SLOTS = (
    (6, 2, 2, "all", False, False, True),
    (10, 3, 2, "chain", False, False, False),
    (16, 2, 2, "metric", True, False, False),
    (27, 4, 3, "chain", False, True, False),
    (40, 3, 3, "all", False, False, True),
    (64, 2, 3, "chain", False, False, False),
    (100, 3, 3, "metric", True, False, False),
    (160, 4, 4, "all", False, True, False),
    (250, 2, 4, "metric", False, False, True),
    (400, 3, 4, "chain", True, False, False),
    (630, 4, 4, "metric", False, True, False),
    (1000, 3, 4, "chain", False, False, True),
    (1470, 2, 4, "all", False, True, False),
    (2401, 2, 4, "all", False, False, True),  # 7^4: the size cap, so peak memory is fixed
)
CLI_SAMPLES = 2000       # copula-sample -n
# A round runs every operation once, then again in CLI_PASSES - 1 further
# passes all but `compose` on the models of CLI_BIG_COMPOSE outcomes or
# more.  Those four take 0.3-3 s each, 5 s of a round; every other
# operation takes at most about 0.1 s, and the passes give each one three
# times the runs in a round for 1 s more.
CLI_PASSES = 3
CLI_BIG_COMPOSE = 600

# fixed-content malformed models, all run through `check`: (file stem, fault)
MALFORMED = (
    ("bad_no_outputs", "a mechanism without 'outputs'"),
    ("bad_member_index", "a dependence member index out of range"),
    ("bad_nan_kernel", "a NaN in a mechanism kernel"),
    ("ctl_nan_joint", "a NaN in the joint (control)"),
    ("ctl_empty_adjacency", "an empty adjacency (control)"),
)


def _malformed_models() -> dict:
    base = {
        "secrets": ["s0", "s1"],
        "datasets": ["x0", "x1"],
        "joint": [[0.4, 0.1], [0.1, 0.4]],
        "mechanisms": [
            {"name": "a", "outputs": ["0", "1"], "kernel": [[0.7, 0.3], [0.3, 0.7]]},
            {"name": "b", "outputs": ["0", "1"], "kernel": [[0.6, 0.4], [0.2, 0.8]]},
        ],
    }
    out = {}
    m = json.loads(json.dumps(base))
    del m["mechanisms"][1]["outputs"]
    out["bad_no_outputs"] = m
    m = json.loads(json.dumps(base))
    m["dependence"] = [{"members": [0, 5], "joint_kernel": [[0.25] * 4, [0.25] * 4]}]
    out["bad_member_index"] = m
    m = json.loads(json.dumps(base))
    m["mechanisms"][0]["kernel"] = [[float("nan"), 0.3], [0.3, 0.7]]
    out["bad_nan_kernel"] = m
    m = json.loads(json.dumps(base))
    m["joint"] = [[float("nan"), 0.1], [0.1, 0.4]]
    out["ctl_nan_joint"] = m
    m = json.loads(json.dumps(base))
    m["adjacency"] = {"pairs": []}
    out["ctl_empty_adjacency"] = m
    return out


def cli_round(seed: int, workdir: Path, root: Path) -> list[dict]:
    """Write the cli round's model files; return its operations in order."""
    rng = _rng(seed, "cli")
    ops = []
    for i, (alphabet, n_secrets, n_mechs, adjacency, invertible, dependent, has_copula) in enumerate(CLI_SLOTS):
        dims = _dims_near(rng, alphabet, n_mechs, 2, 7)
        n_datasets = max(2 + i % 5, n_secrets if invertible else 2)  # fixed per slot
        size_guard("cli", n_secrets, n_datasets, dims)
        secrets = [f"s{j}" for j in range(n_secrets)]
        joint = _joint(rng, n_secrets, n_datasets, invertible)
        kernels = [_kernel(rng, n_datasets, n) for n in dims]
        # the two smallest mechanisms form the dependence group; audit singles
        # out the largest, pld --mech the largest too
        dep = [_dependence(rng, kernels, (0, 1))] if dependent else []
        copula = _copula(rng, secrets) if has_copula else None
        model = _model(secrets, [f"x{j}" for j in range(n_datasets)], joint, kernels,
                       _adjacency(n_secrets, adjacency), dep, copula)
        path = workdir / f"gen{i:02d}.json"
        _write(path, model)
        last = f"m{len(dims) - 1}"
        s0 = int(rng.integers(0, n_secrets - 1))
        params = {
            "eps": float(rng.uniform(0.5, 3.0)),
            "delta": float(rng.uniform(0.0, 0.1)),
            "delta_g": sorted(float(v) for v in rng.uniform(0.0, 0.1, size=2)),
            "eps_g": sorted(float(v) for v in rng.uniform(0.2, 3.0, size=2)),
            "ic_delta": 0.0 if i % 3 == 0 else float(rng.uniform(0.01, 0.1)),
            "pair": (secrets[s0], secrets[s0 + 1]),  # adjacent under every style
            "mech": last,
            "single": last,
            "n": CLI_SAMPLES,
            "seed": int(rng.integers(0, 2**31)),
        }
        for op in _model_ops(str(path), params, has_copula, audit=True, invertible=invertible):
            big = op["kind"] == "compose" and alphabet >= CLI_BIG_COMPOSE
            ops.append({**op, "passes": 1 if big else CLI_PASSES})
    # fixed demo and test models, fixed arguments
    fixed = [
        ("demos/models/invertible_pair.json", "rr_b", True, False, True),
        ("demos/models/mixing_pair.json", "coarse", True, True, False),
        ("demos/models/dependent_pair.json", None, False, False, False),
        ("tests/data/basic_composition_violation.json", "half_b", True, False, False),
    ]
    for rel, single, audit, copula, invertible in fixed:
        params = {
            "eps": 1.0, "delta": 0.05, "delta_g": [0.0, 0.02], "eps_g": [0.5, 1.0],
            "ic_delta": 0.02, "pair": ("s0", "s1"), "mech": None, "single": single,
            "n": CLI_SAMPLES, "seed": 7,
        }
        ops.extend({**op, "passes": CLI_PASSES}
                   for op in _model_ops(str(root / rel), params, copula, audit=audit,
                                        invertible=invertible, mech_from_model=True))
    bad = _malformed_models()
    for stem, reason in MALFORMED:
        path = workdir / f"{stem}.json"
        _write(path, bad[stem])
        ops.append({"kind": "malformed", "model": str(path), "reason": reason,
                    "must_fail_today": stem.startswith("bad_"), "passes": CLI_PASSES,
                    "argv": ["--model", str(path), "check", "--eps", "1.0", "--delta", "0.05"]})
    return ops


def _model_ops(path, p, copula, audit, invertible, mech_from_model=False) -> list[dict]:
    base = {"model": path, "params": p, "invertible": invertible}
    mech = p["mech"]
    if mech_from_model:
        with open(path, encoding="utf-8") as fh:
            mech = json.load(fh)["mechanisms"][0]["name"]
    fmt = lambda xs: [repr(float(x)) for x in xs]
    argvs = [
        ("check", ["check", "--eps", repr(p["eps"]), "--delta", repr(p["delta"])]),
        ("compose", ["compose", "--delta-g", *fmt(p["delta_g"]), "--eps-g", *fmt(p["eps_g"])]),
        ("pld", ["pld", "--pair", *p["pair"]]),
        ("pld_mech", ["pld", "--pair", *p["pair"], "--mech", mech]),
        ("ic2", ["ic", "--task", "2", "--delta-g", repr(p["ic_delta"])]),
    ]
    if audit:
        argvs.append(("audit", ["audit", "--single", p["single"], "--eps-g", *fmt(p["eps_g"]),
                                "--delta-g", *fmt(p["delta_g"])]))
    if copula:
        argvs.append(("copula", ["--seed", str(p["seed"]), "copula-sample", "-n", str(p["n"])]))
    return [{**base, "kind": kind, "argv": ["--model", path, *args], "mech": mech}
            for kind, args in argvs]


# -- large_alphabet -----------------------------------------------------------

# instance groups of a round: (kind, secrets, count).  A round is small so
# that a run repeats it; the alphabet of every instance is fixed by its slot,
# so the seed changes the contents of the instances, not the work a round
# holds.  Distinct instances sit at the centres of equal log-alphabet strata
# of LA_DISTINCT_RANGE within each group (their output counts multiply to
# the target as nearly as counts of 3-7 can); repeated ones take
# LA_REPEATED_DIMS in turn.
LA_GROUPS = (("distinct", 2, 6), ("distinct", 3, 1), ("repeated", 2, 3))
LA_DISTINCT_RANGE = (5_000, 10_000)
LA_REPEATED_DIMS = ((5, 6), (6, 6), (7, 6))  # (outputs, copies): 15.6k, 46.7k, 117.6k outcomes
LA_DELTAS = (0.0, 0.01, 0.05)


def la_round(seed: int, workdir: Path, root: Path) -> list[dict]:
    """Write the large_alphabet round's model files; return its instances."""
    rng = _rng(seed, "large_alphabet")
    log_lo, log_hi = (math.log(v) for v in LA_DISTINCT_RANGE)
    specs = []
    for kind, n_secrets, count in LA_GROUPS:
        for j in range(count):
            if kind == "repeated":
                n, copies = LA_REPEATED_DIMS[j * len(LA_REPEATED_DIMS) // count]
                specs.append((kind, n_secrets, (n,) * copies, 2 + j % 5))
            else:
                u = (j + 0.5) / count
                dims = _dims_near(rng, math.exp(log_lo + u * (log_hi - log_lo)), 5 + j % 2, 3, 7)
                specs.append((kind, n_secrets, dims, 2 + (3 * j) % 5))
    ops = []
    for i in rng.permutation(len(specs)):
        kind, n_secrets, dims, n_datasets = specs[i]
        size_guard("large_alphabet", n_secrets, n_datasets, dims)
        if kind == "repeated":
            kernels = [_kernel(rng, n_datasets, dims[0])] * len(dims)
        else:
            kernels = [_kernel(rng, n_datasets, n) for n in dims]
        joint = _joint(rng, n_secrets, n_datasets, invertible=False)
        model = _model([f"s{j}" for j in range(n_secrets)], [f"x{j}" for j in range(n_datasets)],
                       joint, kernels)
        path = workdir / f"la{len(ops):03d}.json"
        _write(path, model)
        ops.append({"kind": kind, "model": str(path), "alphabet": math.prod(dims),
                    "ic_delta": float(rng.uniform(0.01, 0.1))})
    return ops


# -- experiments --------------------------------------------------------------

EXP_POINTS = 9           # budget points per round
EXP_IC = 1               # independent points inside the IC band
EXP_INDEPENDENT = 4      # further independent points, below the band
EXP_DELTA = 0.02         # the published grids use this one delta
EXP_IND_EPS_G = (0.25, 5.0)   # ranges of the published grids
EXP_COP_EPS_G = (0.4, 6.0)
EXP_EPS_I = (0.05, 1.0)
EXP_RATIO = (5.0, 8.0)        # eps_g / eps_i spans 5..8 in the published grids
EXP_P_STAR = 0.5              # smallest prior of the experiments' two-secret world


def ic_band_floor(delta: float) -> float:
    """Smallest eps_g at which the IC constraint set is nonempty.

    Nonempty iff delta * tau >= 1 with tau = 1 + P* (e^eps - 1).
    """
    return math.log1p((1.0 / delta - 1.0) / EXP_P_STAR)


def experiments_round(seed: int, workdir: Path, root: Path) -> list[dict]:
    """Draw the round's budget points, write them, and return them."""
    rng = _rng(seed, "experiments")
    band = ic_band_floor(EXP_DELTA)
    kinds = ["ic"] * EXP_IC + ["independent"] * EXP_INDEPENDENT
    kinds += ["copula"] * (EXP_POINTS - len(kinds))
    kinds = rng.permutation(kinds).tolist()
    strata = {k: 0 for k in ("ic", "independent", "copula")}
    totals = {k: kinds.count(k) for k in strata}
    points = []
    for kind in kinds:
        if kind == "ic":
            g_lo, g_hi = band + 0.01, EXP_IND_EPS_G[1]
        elif kind == "independent":
            g_lo, g_hi = EXP_IND_EPS_G[0], band - 0.05
        else:
            g_lo, g_hi = EXP_COP_EPS_G
        # stratified in log eps_g so every round spans its range evenly
        j = strata[kind]
        strata[kind] += 1
        u = (j + rng.random()) / totals[kind]
        eps_g = math.exp(math.log(g_lo) + u * (math.log(g_hi) - math.log(g_lo)))
        r_lo = max(EXP_RATIO[0], eps_g / EXP_EPS_I[1])
        r_hi = min(EXP_RATIO[1], eps_g / EXP_EPS_I[0])
        eps_i = eps_g / float(rng.uniform(r_lo, r_hi))
        points.append({"kind": kind, "eps_g": eps_g, "eps_i": eps_i, "delta": EXP_DELTA,
                       "seed": int(rng.integers(0, 2**31))})
    _write(workdir / "points.json", points)
    return points


ROUNDS = {"cli": cli_round, "large_alphabet": la_round, "experiments": experiments_round}
