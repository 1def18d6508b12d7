"""Output checks computed apart from the program.

Nothing here imports dcpkit.  Every reference value comes from a different
computation than the program's (an einsum-built joint, bisection on
delta(eps) = sum (p - e^eps q)+, a Mann-Whitney sum, the closed-form IC
ratio) or from a property the method must have.  No check compares against
a stored copy of earlier output.

A check raises ``CheckError`` naming what disagreed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats

TOL = 1e-9


class CheckError(AssertionError):
    """The program's output disagrees with the independent computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def close(a: float, b: float, what: str, tol: float = TOL) -> None:
    if math.isinf(a) or math.isinf(b):
        expect(a == b, f"{what}: {a!r} != {b!r}")
        return
    expect(abs(a - b) <= tol * max(1.0, abs(a), abs(b)), f"{what}: {a!r} vs reference {b!r}")


# -- reference model ----------------------------------------------------------


class RefModel:
    """The model as plain arrays, with the laws the checks need."""

    def __init__(self, raw: dict):
        self.secrets = list(raw["secrets"])
        self.joint = np.asarray(raw["joint"], dtype=float)
        self.prior = self.joint.sum(axis=1)
        self.cond = self.joint / self.prior[:, None]
        self.names = [m["name"] for m in raw["mechanisms"]]
        self.kernels = [np.asarray(m["kernel"], dtype=float) for m in raw["mechanisms"]]
        self.groups = [(tuple(g["members"]), np.asarray(g["joint_kernel"], dtype=float))
                       for g in raw.get("dependence", [])]
        self.pairs = _adjacency(raw.get("adjacency"), self.prior)
        self.copula = raw.get("copula")

    def effective(self, i: int) -> np.ndarray:
        return self.cond @ self.kernels[i]

    def composed(self, mechs=None, groups=None) -> np.ndarray:
        """b(y|s) over the C-ordered product alphabet, built with einsum."""
        mechs = list(range(len(self.kernels))) if mechs is None else list(mechs)
        groups = self.groups if groups is None else groups
        letters = "abcdefghijklmnopqrstuvw"
        grouped = {i for members, _ in groups for i in members}
        operands, subs = [], []
        for i in mechs:
            if i not in grouped:
                operands.append(self.kernels[i])
                subs.append("z" + letters[mechs.index(i)])
        for members, jk in groups:
            dims = [self.kernels[i].shape[1] for i in members]
            operands.append(jk.reshape([jk.shape[0]] + dims))
            subs.append("z" + "".join(letters[mechs.index(i)] for i in members))
        out = "z" + letters[: len(mechs)]
        per_x = np.einsum(",".join(subs) + "->" + out, *operands).reshape(self.joint.shape[1], -1)
        return self.cond @ per_x

    def product(self, s: int, mechs=None) -> np.ndarray:
        mechs = range(len(self.kernels)) if mechs is None else mechs
        row = np.ones(1)
        for i in mechs:
            row = np.outer(row, self.effective(i)[s]).ravel()
        return row


def _adjacency(spec, prior) -> list[tuple[int, int]]:
    n = prior.size
    live = [i for i in range(n) if prior[i] > 0]
    if spec is None:
        return sorted((a, b) for a in live for b in live if a != b)
    if "pairs" in spec:
        return sorted({(a, b) for a, b in spec["pairs"]} | {(b, a) for a, b in spec["pairs"]})
    metric = np.asarray(spec["metric"], dtype=float)
    return sorted((a, b) for a in live for b in live if a != b and metric[a, b] <= spec["d"])


# -- divergences, by separate routes ------------------------------------------


def hockey(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """delta(eps) = sum over outcomes of (p - e^eps q)+."""
    return float(np.maximum(p - math.exp(eps) * q, 0.0).sum())


class Profile:
    """delta(eps) of a pair from sorted log-ratios and tail sums; O(log n) per eps."""

    def __init__(self, p: np.ndarray, q: np.ndarray):
        live = (p > 0) & (q > 0)
        self.inf_mass = float(p[(p > 0) & (q == 0)].sum())
        loss = np.log(p[live]) - np.log(q[live])
        order = np.argsort(loss)
        self.loss = loss[order]
        # tail sums over losses strictly above a threshold
        self.p_tail = np.concatenate([np.cumsum(p[live][order][::-1])[::-1], [0.0]])
        self.q_tail = np.concatenate([np.cumsum(q[live][order][::-1])[::-1], [0.0]])

    def delta(self, eps: float) -> float:
        k = int(np.searchsorted(self.loss, eps, side="right"))
        return self.inf_mass + max(float(self.p_tail[k] - math.exp(eps) * self.q_tail[k]), 0.0)

    def tight_eps(self, delta: float) -> float:
        """Smallest eps >= 0 with delta(eps) <= delta, by bisection."""
        if self.delta(0.0) <= delta:
            return 0.0
        if self.inf_mass > delta:
            return math.inf
        lo, hi = 0.0, float(self.loss[-1])  # delta(max loss) = inf_mass <= delta
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.delta(mid) <= delta:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-13 * max(1.0, hi):
                break
        return hi


def tight_eps_close(prog: float, prof: Profile, delta: float, what: str) -> None:
    """The program's eps equals the bisection's, up to delta(eps)'s flatness."""
    ref = prof.tight_eps(delta)
    if math.isinf(ref) or math.isinf(prog):
        expect(prog == ref, f"{what}: {prog!r} vs reference {ref!r}")
        return
    if abs(prog - ref) <= 1e-8 * max(1.0, ref):
        return
    # a flat stretch of delta(eps) at delta makes eps ill-conditioned; then
    # the program's eps must still meet delta and be the smallest that does
    ok = prof.delta(prog) <= delta + 1e-12 and (prog == 0.0 or prof.delta(prog - 1e-7) > delta - 1e-12)
    expect(ok, f"{what}: eps {prog!r} vs reference {ref!r}")


def mw_auc(p: np.ndarray, q: np.ndarray) -> float:
    """Likelihood-ratio attacker AUC as a Mann-Whitney sum over ratio ranks.

    P[r(Y_p) > r(Y_q)] + P[r(Y_p) = r(Y_q)] / 2 with r = p/q, folded to >= 1/2.
    """
    live = (p > 0) | (q > 0)
    p, q = p[live], q[live]
    with np.errstate(divide="ignore"):
        r = np.where(q > 0, p / np.where(q > 0, q, 1.0), np.inf)
    uniq, inv = np.unique(r, return_inverse=True)
    pg = np.bincount(inv, weights=p, minlength=uniq.size)
    qg = np.bincount(inv, weights=q, minlength=uniq.size)
    q_below = np.concatenate([[0.0], np.cumsum(qg)[:-1]])
    auc = float((pg * (q_below + 0.5 * qg)).sum())
    return max(auc, 1.0 - auc)


def np_vertices(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Neyman-Pearson trade-off vertices (alpha, beta), vectorized.

    Tests reject in decreasing order of q/p; ties form one vertex; a
    zero-p group lowers the alpha = 0 vertex.
    """
    live = (p > 0) | (q > 0)
    p, q = p[live], q[live]
    with np.errstate(divide="ignore"):
        r = np.where(p > 0, q / np.where(p > 0, p, 1.0), np.inf)
    uniq, inv = np.unique(-r, return_inverse=True)  # decreasing q/p
    pg = np.bincount(inv, weights=p, minlength=uniq.size)
    qg = np.bincount(inv, weights=q, minlength=uniq.size)
    alphas = np.concatenate([[0.0], np.cumsum(pg)])
    betas = np.maximum(np.concatenate([[1.0], 1.0 - np.cumsum(qg)]), 0.0)
    if pg[0] == 0.0:  # infinite-ratio group: drop the (0, 1) start
        alphas, betas = alphas[1:], betas[1:]
    alphas[-1], betas[-1] = 1.0, 0.0
    return alphas, betas


def tau_star(law: np.ndarray, prior: np.ndarray, delta: float) -> float:
    """Closed-form smallest feasible IC ratio bound for a fixed composition."""
    w = law * prior[:, None]
    marg = w.sum(axis=0)
    live = marg > 0
    pi = (w[:, live] / marg[live]).T  # outcomes x secrets
    with np.errstate(divide="ignore"):
        lower = float((prior[None, :] / pi).max())
    if delta == 0.0:
        return max(1.0, lower, float((pi / prior[None, :]).max()))
    return max(1.0, lower, float((pi**2 / prior[None, :]).sum(axis=1).max()) / delta)


def auc_region_max(eps: float, delta: float) -> float:
    """Largest AUC an attacker can reach inside the (eps, delta) ROC region."""
    e = math.exp(eps)
    # upper boundary min(1, e x + delta, 1 - (1 - delta - x)/e): concave,
    # piecewise linear; trapezoids over its kinks integrate it exactly
    kinks = [0.0, 1.0, (1.0 - delta) / (e + 1.0), (1.0 - delta) / e, 1.0 - delta]
    xs = np.unique(np.clip(kinks, 0.0, 1.0))
    ys = np.minimum.reduce([np.ones_like(xs), e * xs + delta, 1.0 - (1.0 - delta - xs) / e])
    return float(np.trapezoid(ys, xs))


# -- cli output checks --------------------------------------------------------


def _body(text: str, cmd: str) -> str:
    head, _, body = text.partition("\n")
    expect(head.startswith(f"# dcp ") and f" cmd={cmd} " in head, f"bad header {head!r}")
    return body


def _num(s: str) -> float:
    return math.inf if s == "unachievable" else float(s)


def check_cli(op: dict, code: int, text: str, ref: RefModel) -> None:
    """Check one cli operation's output and exit code."""
    kind = op["kind"]
    p = op["params"]
    if kind == "check":
        payload = json.loads(_body(text, "check"))
        ok = True
        for i, name in enumerate(ref.names):
            eff = ref.effective(i)
            _check_report(payload["reports"][name], eff, ref, p["delta"], p["eps"], name)
            ok = ok and payload["reports"][name]["holds"]
        law = ref.composed()
        _check_report(payload["reports"]["__composition__"], law, ref, p["delta"], p["eps"], "composition")
        ok = ok and payload["reports"]["__composition__"]["holds"]
        expect(payload["holds"] == ok and code == (0 if ok else 1), f"check verdict/exit {code}")
    elif kind == "compose":
        _check_compose(_body(text, "compose"), code, ref, p, op["invertible"])
    elif kind in ("pld", "pld_mech"):
        body = _body(text, "pld").strip().splitlines()
        expect(body[0] == "loss,mass" and body[-1].startswith("inf,") and code == 0, "pld layout")
        rows = [tuple(float(v) for v in line.split(",")) for line in body[1:-1]]
        losses = np.array([r[0] for r in rows])
        masses = np.array([r[1] for r in rows])
        inf_mass = float(body[-1].split(",")[1])
        close(float(masses.sum()) + inf_mass, 1.0, "pld total mass")
        expect(bool(np.all(np.diff(losses) > 0)), "pld losses not increasing")
        s0, s1 = (ref.secrets.index(s) for s in p["pair"])
        if kind == "pld_mech":
            law = ref.effective(ref.names.index(op["mech"]))
        else:
            law = ref.composed()
        for eps in (0.0, 0.3, 1.0, 2.5):
            with np.errstate(over="ignore"):
                prof = float((masses * np.maximum(1.0 - np.exp(eps - losses), 0.0)).sum()) + inf_mass
            close(prof, hockey(law[s0], law[s1], eps), f"pld profile at eps={eps}")
    elif kind == "ic2":
        payload = json.loads(_body(text, "ic"))
        law = ref.composed()
        tau = tau_star(law, ref.prior, p["ic_delta"])
        close(payload["tau_g"], tau, "ic task-2 tau*")
        active = sorted({s for pr in ref.pairs for s in pr})
        p_star = float(min(ref.prior[s] for s in active))
        close(payload["eps_g"], math.log1p((payload["tau_g"] - 1.0) / p_star), "ic eps_g")
        direct = max(hockey(law[a], law[b], payload["eps_g"]) for a, b in ref.pairs)
        close(payload["direct_check_delta"], direct, "ic direct delta")
        certified = payload["feasibility"] <= 1e-6 and direct <= p["ic_delta"] + 1e-6
        expect(payload["certified"] == certified and code == (0 if certified else 1), "ic verdict")
    elif kind == "audit":
        _check_audit(_body(text, "audit"), code, ref, p)
    elif kind == "copula":
        _check_copula(_body(text, "copula-sample"), code, ref, p["n"])
    else:
        raise CheckError(f"unknown op kind {kind}")


def _check_report(rep: dict, law, ref: RefModel, delta: float, eps: float, what: str) -> None:
    deltas = {pr: hockey(law[pr[0]], law[pr[1]], eps) for pr in ref.pairs}
    worst = max(deltas.values())
    close(rep["worst_delta"], worst, f"check {what} worst delta")
    pair = tuple(ref.secrets.index(s) for s in rep["worst_pair"])
    close(deltas[pair], worst, f"check {what} worst pair")
    expect(rep["holds"] == (worst <= delta + 1e-12), f"check {what} verdict")


def _csv_tables(body: str):
    tables, cur = [], None
    for line in body.splitlines():
        if line.startswith(("s0,s1,delta_g,", "s0,s1,eps_g,")):
            cur = []
            tables.append(cur)
        elif line and not line.startswith("#") and cur is not None:
            cur.append(line.split(","))
        elif not line:
            cur = None
    return tables


def _check_compose(body: str, code: int, ref: RefModel, p: dict, invertible: bool) -> None:
    opt, dt = _csv_tables(body)
    law = ref.composed()
    expect(len(opt) == len(ref.pairs) * len(p["delta_g"]), "compose eps table size")
    expect(len(dt) == len(ref.pairs) * len(p["eps_g"]), "compose delta table size")
    ordering = True
    profiles = {}
    for row in opt:
        s0, s1 = ref.secrets.index(row[0]), ref.secrets.index(row[1])
        dg, under, true, over = (_num(v) for v in row[2:])
        if (s0, s1) not in profiles:
            profiles[(s0, s1)] = (Profile(ref.product(s0), ref.product(s1)), Profile(law[s0], law[s1]))
        prod_prof, true_prof = profiles[(s0, s1)]
        tight_eps_close(under, prod_prof, dg, f"compose underline_opt {row[:3]}")
        tight_eps_close(true, true_prof, dg, f"compose true_opt {row[:3]}")
        if invertible:
            close(over, true, f"compose invertible overline_opt {row[:3]}")
            close(under, true, f"compose invertible underline_opt {row[:3]}")
        ordering = ordering and under <= true + 1e-9 and true <= over + 1e-9
    for row in dt:
        s0, s1 = ref.secrets.index(row[0]), ref.secrets.index(row[1])
        eg, under, true, over = (_num(v) for v in row[2:])
        close(under, hockey(ref.product(s0), ref.product(s1), eg), f"compose underline_dt {row[:3]}")
        close(true, hockey(law[s0], law[s1], eg), f"compose true_dt {row[:3]}")
        if invertible:
            close(over, true, f"compose invertible overline_dt {row[:3]}")
        ordering = ordering and under <= true + 1e-9 and true <= over + 1e-9
    expect("# basic_composition_holds=" in body, "compose basic-composition line")
    expect(code == (0 if ordering else 1), f"compose exit {code} vs ordering {ordering}")


def _check_audit(body: str, code: int, ref: RefModel, p: dict) -> None:
    lines = body.strip().splitlines()
    expect(lines[0] == "eps_g,delta_g,auc_composed,auc_single,gap", "audit header")
    single = ref.names.index(p["single"])
    rest = [i for i in range(len(ref.names)) if i != single]
    law_c = ref.composed(rest)
    law_s = ref.effective(single)
    auc_c = max(mw_auc(law_c[a], law_c[b]) for a, b in ref.pairs)
    auc_s = max(mw_auc(law_s[a], law_s[b]) for a, b in ref.pairs)
    ok = True
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    expect(len(rows) == len(p["eps_g"]) * len(p["delta_g"]), "audit row count")
    for eg, dg, a_c, a_s, gap in rows:
        close(a_c, auc_c, "audit composed AUC (Mann-Whitney)", 1e-12)
        close(a_s, auc_s, "audit single AUC (Mann-Whitney)", 1e-12)
        expect(gap == a_c - a_s, "audit gap")
        for law in (law_c, law_s):
            ok = ok and max(hockey(law[a], law[b], eg) for a, b in ref.pairs) <= dg + 1e-9
    expect(code == (0 if ok else 1), f"audit exit {code}")


def _marginal(spec: dict):
    if spec["family"] == "laplace":
        return stats.laplace(loc=spec.get("loc", 0.0), scale=spec["scale"])
    return stats.norm(loc=spec.get("loc", 0.0), scale=spec["sigma"])


def _check_copula(body: str, code: int, ref: RefModel, n: int) -> None:
    lines = body.strip().splitlines()
    expect(lines[0] == "z1,z2,u1,u2,v1,v2" and len(lines) == n + 1 and code == 0, "copula layout")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    for col, key in ((2, "xi1"), (3, "xi2")):
        u, v = data[:, col], data[:, col + 2]
        expect(bool(np.all((u > 0.0) & (u < 1.0))), f"copula u{col - 1} outside (0, 1)")
        dist = _marginal(ref.copula[key])
        ref_v = dist.ppf(u)
        expect(bool(np.allclose(v, ref_v, rtol=1e-9, atol=1e-12)), f"copula v{col - 1} != ppf(u)")
        # the sample is fixed by --seed, so this test is seeded too
        expect(stats.kstest(v, dist.cdf).pvalue > 1e-6, f"copula v{col - 1} fails KS")


# -- large_alphabet checks ----------------------------------------------------


def check_large(inst: dict, out: dict, ref: RefModel, deltas) -> None:
    law = ref.composed()
    expect(out["joint"].shape == law.shape, "joint shape")
    expect(float(np.abs(out["joint"] - law).max()) <= 1e-13, "composed joint vs einsum")
    pair_profiles = {pr: Profile(law[pr[0]], law[pr[1]]) for pr in ref.pairs}
    prod = {s: ref.product(s) for s in range(len(ref.secrets))}
    prod_profiles = {pr: Profile(prod[pr[0]], prod[pr[1]]) for pr in ref.pairs}
    for d, (worst, per_pair) in zip(deltas, out["true"]):
        for pr, eps in per_pair.items():
            tight_eps_close(eps, pair_profiles[pr], d, f"true_opt {pr} delta={d}")
        expect(worst == max(per_pair.values()), "true_opt worst")
    for d, (worst, per_pair) in zip(deltas, out["under"]):
        for pr, eps in per_pair.items():
            tight_eps_close(eps, prod_profiles[pr], d, f"underline_opt {pr} delta={d}")
    aucs = {pr: mw_auc(law[pr[0]], law[pr[1]]) for pr in ref.pairs}
    close(out["roc_auc"], max(aucs.values()), "worst-pair AUC (Mann-Whitney)", 1e-12)
    close(aucs[out["roc_pair"]], max(aucs.values()), "worst pair", 1e-12)
    # delta(eps) read off the trade-off vertices equals the hockey-stick
    a, b = out["roc_pair"]
    alphas, betas = out["curve"]
    for eps in (0.0, 0.5, 1.0, 2.0):
        vertex_delta = float((1.0 - alphas - math.exp(eps) * betas).max())
        close(max(vertex_delta, 0.0), hockey(law[a], law[b], eps), f"trade-off delta at eps={eps}", 1e-12)
    viol, gap = -math.inf, 0.0
    for s0, s1 in ref.pairs:
        ja, jb = np_vertices(law[s0], law[s1])
        pa, pb = np_vertices(prod[s0], prod[s1])
        grid = np.union1d(ja, pa)
        diff = np.interp(grid, ja, jb) - np.interp(grid, pa, pb)
        viol, gap = max(viol, float(diff.max())), max(gap, float(-diff.min()))
    close(out["dominance"]["max_violation"], viol, "dominance max_violation")
    close(out["dominance"]["max_gap"], gap, "dominance max_gap")
    close(out["tau"], tau_star(law, ref.prior, inst["ic_delta"]), "ic task-2 tau*")


# -- experiments checks -------------------------------------------------------


def check_experiment(point: dict, row) -> None:
    eg, delta = point["eps_g"], point["delta"]
    expect(row.eps_g == eg and row.eps_i == point["eps_i"] and row.delta_g == delta, "row echo")
    for what, d in (("composed", row.composed_delta), ("single", row.single_delta)):
        expect(d <= delta + 1e-9, f"{what} delta {d!r} exceeds {delta}")
        expect(d >= delta * (1.0 - 1e-6), f"{what} delta {d!r} does not fill {delta} tightly")
    for what, v in (("composed", row.roc_violation_composed), ("single", row.roc_violation_single)):
        expect(v <= 1e-9, f"{what} ROC leaves its certificate's region by {v!r}")
    cap = auc_region_max(eg, delta)
    for what, auc in (("composed", row.auc_composed), ("single", row.auc_single)):
        expect(0.5 <= auc <= cap + 1e-9, f"{what} AUC {auc!r} outside [0.5, {cap!r}]")
    expect(row.gap == row.auc_composed - row.auc_single, "gap")
    if point["kind"] == "copula":
        expect(row.ic_flag == "coupling-filled", f"copula flag {row.ic_flag!r}")
        expect(1e-4 < row.fill_parameter < 64.0, "coupling fill at its bracket edge")
    else:
        # gen.py draws "ic" points inside the IC band and the rest below it
        want = ("certified", "uncertified") if point["kind"] == "ic" else ("pi-empty",)
        expect(row.ic_flag in want, f"independent flag {row.ic_flag!r}, wanted {want}")
        expect(1e-3 < row.fill_parameter < 1e4, "channel fill at its bracket edge")
