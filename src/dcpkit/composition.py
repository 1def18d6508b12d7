"""Composition of mechanisms through the shared dataset.

Builds the joint output distribution per secret, computes the naive
(dependence-ignoring), true, and conservative epsilon/delta bounds for the
composition, checks basic composition, and runs the informativeness
comparisons (trade-off dominance and expected cross-entropy loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import config
from .divergence import DistPair, Law, LossProfile, _adjacent_pairs, hockey_stick, tradeoff_curve
from .model import (DependenceGroup, MechanismKernel, TypeClass, World, _freeze, _posterior, atom_index,
                    check_cap, effective_kernel, lay_out, lumped_law, mix_kernel, type_classes)
from .pld import LossSum, convolve, epsilon_for_delta, pld_from_pair


@dataclass(frozen=True, eq=False)
class Composition:
    """The laws of one composition, each built, checked and made read-only
    on first use: the composed ``joint`` (rows secrets, columns the product
    alphabet in C order over the mechanisms' outputs), the effective
    kernels ``effs`` and each group's members and effective joint.  Each
    pair of a law and its twin share one ``LossProfile``, sorted once.

    ``lumped`` is the joint on the type ``classes`` (``model.type_classes``),
    the one build of a composed law (``model.lumped_law``): ungrouped
    mechanisms with bitwise-equal kernels share one atom per multiset of
    their outputs (``index`` maps each outcome to it).  When no class has two
    members the classes are single mechanisms, ``lumped`` is the dense
    composed law and ``joint`` is ``lumped``; else ``joint`` is spread from
    it and hands out its pairs.  ``lumped_product`` is the product of the
    ``effs`` on the same atoms, and ``copula_loss`` the log ratio of the
    two.  The bounds and the IC solvers read these; ``joint.matrix``
    serves the callers that need one column per outcome.
    """

    world: World
    mechs: tuple[MechanismKernel, ...]
    dependence: tuple[DependenceGroup, ...] = ()

    @staticmethod
    def of(world: World, mechs, dependence=()) -> "Composition":
        """The value of these very objects under the current outcome cap: one
        slot keeps the last, keyed on the ids of the objects (which it holds,
        so no id can be reused) and on ``config.OUTCOME_CAP``."""
        mechs, dependence = tuple(mechs), tuple(dependence)
        key = (id(world), tuple(map(id, mechs)), tuple(map(id, dependence)), config.OUTCOME_CAP)
        kept = _SLOT[0]  # read once: a caller on another thread may replace it
        if kept is None or kept[0] != key:
            kept = _SLOT[0] = (key, Composition(world, mechs, dependence))
        return kept[1]

    @cached_property
    def joint(self) -> Law:
        # each outcome its atom's mass over the atom's count
        return self.lumped.spread(self.index) if self.repeats else self.lumped

    @cached_property
    def effs(self) -> list[Law]:
        return [effective_kernel(self.world, mech) for mech in self.mechs]

    @cached_property
    def groups(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        return [(g.members, _freeze(mix_kernel(self.world, g.joint_kernel))) for g in self.dependence]

    @cached_property
    def classes(self) -> tuple[TypeClass, ...]:
        return type_classes(self.mechs, self.dependence)

    @property
    def repeats(self) -> bool:
        return len(self.classes) < len(self.mechs)

    @cached_property
    def lumped(self) -> Law:
        return Law(_freeze(lumped_law(self.world, self.mechs, self.dependence, self.classes)))

    @cached_property
    def lumped_product(self) -> Law:
        law = lay_out([((a,), c.factor(self.effs[c.members[0]].matrix)) for a, c in enumerate(self.classes)],
                      tuple(len(c.types) for c in self.classes))
        return Law(_freeze(law))

    @cached_property
    def copula_loss(self) -> np.ndarray:
        """Per secret and atom, log ``lumped`` less log ``lumped_product``,
        summed from log factors (no product underflows): row s0 less row s1
        is pair (s0, s1)'s world plus dependence loss (``decompose_plrv``).
        Where ``lumped`` is 0 it is -inf if the product is positive, else
        the groups' summed log law less log members' product (-inf where a
        group law is 0, and 0 without groups), as that split books it."""
        dims = tuple(len(c.types) for c in self.classes)
        axis = {i: a for a, c in enumerate(self.classes) for i in c.members}
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = [np.log(np.maximum(eff.matrix, 0.0)) for eff in self.effs]
            log_prod = lay_out([((a,), c.factor(logs[c.members[0]], np.add)) for a, c in enumerate(self.classes)],
                               dims, np.add)
            dep = np.zeros_like(log_prod)
            for members, law in self.groups:
                g = lay_out([(tuple(axis[i] for i in members), np.log(np.maximum(law, 0.0)))], dims, np.add)
                p = lay_out([((axis[i],), logs[i]) for i in members], dims, np.add)
                dep += np.where(np.isneginf(g), -np.inf, g - p)
            log_law = np.log(np.maximum(self.lumped.matrix, 0.0))
            out = np.where(log_law > -np.inf, log_law - log_prod, np.where(log_prod > -np.inf, -np.inf, dep))
        return _freeze(out)

    @cached_property
    def index(self) -> np.ndarray:
        """The atom of ``lumped`` each outcome of ``joint`` lies in."""
        check_cap(self.sizes["outcomes"], f"product outcome space {self.sizes['outcomes']}")
        index = atom_index(self.classes)
        index.flags.writeable = False
        return index

    def per_outcome(self, rows: np.ndarray) -> np.ndarray:
        """Rows given per atom of ``lumped``, or per (atom, symbol) atom-major,
        repeated for each outcome of ``joint``, or each (outcome, symbol)."""
        if not self.repeats:
            return rows
        symbols, outcomes = len(rows) // self.lumped.matrix.shape[1], self.sizes["outcomes"]
        check_cap(outcomes * symbols, f"{outcomes} outcomes x {symbols} symbols")
        return np.take(rows.reshape(-1, symbols, *rows.shape[1:]), self.index, axis=0).reshape(-1, *rows.shape[1:])

    @property
    def sizes(self) -> dict:
        """The dense outcome count, the atom count of ``lumped`` and each
        class's members and number of types."""
        return {"outcomes": math.prod(m.n_outputs for m in self.mechs),
                "atoms": math.prod(len(c.types) for c in self.classes),
                "classes": [(c.members, len(c.types)) for c in self.classes]}


_SLOT: list[tuple[tuple, Composition] | None] = [None]  # the last (key, value) asked for


def composed_joint(
    world: World, mechs: list[MechanismKernel], dependence: list[DependenceGroup] = ()
) -> Law:
    """Mixture over datasets of the per-dataset product (or grouped) kernels."""
    return Composition.of(world, mechs, dependence).joint


def true_opt(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    delta_g: float,
    per_pair: bool = False,
):
    """Tightest epsilon of the actual composition at delta_g (max over adjacency)."""
    worst = Composition.of(world, mechs, dependence).lumped.worst(world, delta=delta_g)
    return (worst.value, worst.values) if per_pair else worst.value


def underline_opt(
    world: World,
    mechs: list[MechanismKernel],
    delta_g: float,
    per_pair: bool = False,
):
    """Dependence-ignoring epsilon: optimal composition of the marginals alone."""
    worst = Composition.of(world, mechs).lumped_product.worst(world, delta=delta_g)
    return (worst.value, worst.values) if per_pair else worst.value


def _overline_loss(value: Composition, s0: int, s1: int) -> LossSum:
    """The accounting object behind the conservative bound: the copula term
    (``copula_loss``), which only pins down the loss under s0 and so is
    pushed forward under ``lumped``'s row s0, plus the marginals' loss as an
    independent factor: the product pair's ``LossProfile``, the sort the
    dependence-ignoring bound reads.  Nothing is convolved."""
    mass, c = value.lumped.matrix[s0], value.copula_loss
    live = mass > 0.0
    mass, loss = mass[live], c[s0, live] - c[s1, live]
    with np.errstate(over="ignore"):  # a loss past the float range is refused as a q-mass
        copula = LossProfile.of_atoms(loss, mass, mass * np.exp(-loss))
    return LossSum(copula, value.lumped_product.pair(s0, s1).profile)


def overline_opt(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    delta_g: float,
    per_pair: bool = False,
):
    """Conservative epsilon: copula loss treated as one extra independent mechanism."""
    value = Composition.of(world, mechs, dependence)
    vals = {pair: _overline_loss(value, *pair).epsilon(delta_g) for pair in _adjacent_pairs(world)}
    worst = max(vals.values())
    return (worst, vals) if per_pair else worst


@dataclass(frozen=True)
class CompositionReport:
    """Per adjacent pair: the three epsilon bounds per delta_g and the three
    delta values per eps_g, plus the basic-composition verdict."""

    opt_rows: list = field(default_factory=list)  # (s0, s1, delta_g, under, true, over)
    dt_rows: list = field(default_factory=list)   # (s0, s1, eps_g, under, true, over)
    basic_holds: bool = True
    basic_witness: tuple | None = None

    def ordering_ok(self) -> bool:
        slack = 1e-9
        return not any(under > true + slack or true > over + slack
                       for (*_, under, true, over) in self.opt_rows + self.dt_rows)


def composition_report(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup],
    delta_gs: list[float],
    eps_gs: list[float],
) -> CompositionReport:
    value = Composition.of(world, mechs, dependence)
    joint, prod = value.lumped, value.lumped_product
    opt_rows, dt_rows = [], []
    for (s0, s1) in sorted(world.adjacency):
        joint_pair, prod_pair = joint.pair(s0, s1), prod.pair(s0, s1)
        over = _overline_loss(value, s0, s1)
        for dg in delta_gs:
            opt_rows.append(
                (s0, s1, dg,
                 prod_pair.profile.epsilon(dg),
                 joint_pair.profile.epsilon(dg),
                 over.epsilon(dg))
            )
        for eg in eps_gs:
            dt_rows.append(
                (s0, s1, eg,
                 hockey_stick(prod_pair, eg),
                 hockey_stick(joint_pair, eg),
                 over.delta(eg))
            )
    basic = basic_composition_check(world, mechs, dependence)
    return CompositionReport(
        opt_rows=opt_rows,
        dt_rows=dt_rows,
        basic_holds=basic["holds"],
        basic_witness=basic["witness"],
    )


def basic_composition_check(
    world: World,
    mechs: list[MechanismKernel],
    dependence: list[DependenceGroup] = (),
    delta_is: list[float] | None = None,
) -> dict:
    """Does the composition satisfy (sum eps_i, sum delta_i)?

    Per-mechanism budgets are the tight epsilons at the caller's delta_i
    grid; when no grid is given, each mechanism gets the tight delta at an
    equal split of eps = 1.  The verdict is ``Law.check`` of the composed
    law at the summed epsilon and the summed delta; the composed joint is
    built only when that sum is finite.
    """
    if delta_is is not None and len(delta_is) != len(mechs):
        raise ValueError(f"delta_is has {len(delta_is)} entries for {len(mechs)} mechanisms")
    value = Composition.of(world, mechs, dependence)
    eps_list, delta_list = [], []
    effs = value.effs
    for i, eff in enumerate(effs):
        if delta_is is not None:
            d_i = delta_is[i]
            e_i = eff.worst(world, delta=d_i).value
        else:
            e_i = 1.0 / len(effs)
            d_i = eff.worst(world, eps=e_i).value
        eps_list.append(e_i)
        delta_list.append(d_i)
    eps_sum, delta_sum = sum(eps_list), sum(delta_list)
    if math.isinf(eps_sum):
        return {"holds": True, "witness": None, "eps_sum": eps_sum, "delta_sum": delta_sum,
                "per_mechanism": list(zip(eps_list, delta_list))}
    report = value.lumped.check(world, eps_sum, delta_sum)
    return {
        "holds": report.holds,
        "witness": (report.worst_pair, eps_sum, delta_sum, report.worst_delta),
        "eps_sum": eps_sum,
        "delta_sum": delta_sum,
        "composed_delta": report.worst_delta,
        "per_mechanism": list(zip(eps_list, delta_list)),
    }


def dominating_pair(eps: float, delta: float) -> DistPair:
    """Canonical 4-outcome pair achieving (eps, delta) with equality."""
    if not eps >= 0 or not 0 <= delta <= 1:
        raise ValueError(f"need eps >= 0 and delta in [0, 1], got ({eps}, {delta})")
    e = math.exp(eps)
    p = np.array([delta, (1 - delta) * e / (1 + e), (1 - delta) / (1 + e), 0.0])
    q = np.array([0.0, (1 - delta) / (1 + e), (1 - delta) * e / (1 + e), delta])
    return DistPair(p, q)


def dp_optcomp(params: list[tuple[float, float]], delta_g: float) -> float:
    """Optimal composition of (eps_i, delta_i) budgets at delta_g.

    Exact for the worst case: convolves the dominating-pair PLDs and inverts
    the privacy profile.  Returns ``math.inf`` when delta_g is below the
    unavoidable combined infinity mass.
    """
    if not params:
        raise ValueError("need at least one (eps, delta) pair")
    pld = pld_from_pair(dominating_pair(*params[0]))
    for eps_i, delta_i in params[1:]:
        pld = convolve(pld, pld_from_pair(dominating_pair(eps_i, delta_i)))
    return epsilon_for_delta(pld, delta_g)


def tradeoff_dominance(
    world: World, mechs: list[MechanismKernel], dependence: list[DependenceGroup] = ()
) -> dict:
    """Compare the composed trade-off curve against the product curve.

    Each curve is evaluated at the other's vertices, where the difference
    of two piecewise-linear curves peaks; ``max_violation`` is the largest
    amount the composed curve sits above the product curve (the composed
    setup being *less* informative there, which redundant mechanisms do
    produce), ``max_gap`` the largest amount it sits below.
    """
    pairs = _adjacent_pairs(world)
    value = Composition.of(world, mechs, dependence)
    worst_violation, worst_gap, worst_at = -math.inf, 0.0, None
    for (s0, s1) in pairs:
        joint = tradeoff_curve(value.lumped.pair(s0, s1))
        prod = tradeoff_curve(value.lumped_product.pair(s0, s1))
        diffs = (joint.betas - prod.beta(joint.alphas), joint.beta(prod.alphas) - prod.betas)
        violation = max(float(d.max()) for d in diffs)
        gap = -min(float(d.min()) for d in diffs)
        if violation > worst_violation:
            worst_violation, worst_at = violation, (s0, s1)
        worst_gap = max(worst_gap, gap)
    return {"max_violation": worst_violation, "max_gap": worst_gap, "worst_pair": worst_at}


def cel_compare(
    world: World, mechs: list[MechanismKernel], dependence: list[DependenceGroup] = ()
) -> dict:
    """Expected cross-entropy loss of the joint-aware vs product posteriors.

    Both posteriors are scored under the true composed law; the joint-aware
    inference can never do worse, and the gap is the KL divergence between
    the two posterior families.
    """
    value = Composition.of(world, mechs, dependence)
    prior = world.marginal_secret
    b = value.lumped.matrix             # secrets x atoms, true law
    post_joint = _posterior(prior, b)[0]  # outcomes x secrets
    post_prod = _posterior(prior, value.lumped_product.matrix)[0]
    cel_joint = 0.0
    cel_prod = 0.0
    for s in range(len(world.secrets)):
        mass = b[s] * prior[s]  # true weight of (s, outcome)
        live = mass > 0.0
        cel_joint -= float((mass[live] * np.log(post_joint[live, s])).sum())
        cel_prod -= float((mass[live] * np.log(post_prod[live, s])).sum())
    return {"cel_joint": cel_joint, "cel_product": cel_prod}
