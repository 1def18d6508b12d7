import contextlib
import gc
import io
import json
import math
import pathlib
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from dcpkit import composition as comp
from dcpkit import config
from dcpkit import model as model_layer
from dcpkit import pld as pld_layer
from dcpkit.cli import main
from dcpkit.divergence import DistPair, LossProfile, hockey_stick, optimal_epsilon, tradeoff_curve
from dcpkit.ic import certify
from dcpkit.model import (
    DependenceGroup,
    MechanismKernel,
    World,
    default_adjacency,
    effective_kernel,
    load_model,
)
from dcpkit.pld import convolve, decompose_plrv, epsilon_for_delta, pld_from_pair, privacy_profile
from dcpkit.synth import mixing_world, triangulating_instance

DATA = pathlib.Path(__file__).parent / "data"
DEMOS = pathlib.Path(__file__).parent.parent / "demos" / "models"


def _world(joint):
    joint = np.asarray(joint, dtype=float)
    return World(
        tuple(f"s{i}" for i in range(joint.shape[0])),
        tuple(f"x{j}" for j in range(joint.shape[1])),
        joint,
        default_adjacency(joint),
    )


def brute_force_joint(world, mechs, s):
    """Oracle: enumerate every (dataset, output-tuple) combination."""
    dims = [m.n_outputs for m in mechs]
    out = np.zeros(int(np.prod(dims)))
    cond = world.conditional_dataset(s)
    for x in range(len(world.datasets)):
        for flat in range(out.size):
            idx = np.unravel_index(flat, dims)
            prob = cond[x]
            for i, m in enumerate(mechs):
                prob *= m.kernel[x, idx[i]]
            out[flat] += prob
    return out


def test_composed_joint_single_mechanism(mixing_world_2x2, rr_mechanism):
    from dcpkit.model import effective_kernel

    cj = comp.composed_joint(mixing_world_2x2, [rr_mechanism], [])
    eff = effective_kernel(mixing_world_2x2, rr_mechanism)
    assert np.allclose(cj.matrix, eff.matrix, atol=1e-15)


def test_composed_joint_invertible_is_product(invertible_world, rr_mechanism):
    cj = comp.composed_joint(invertible_world, [rr_mechanism, rr_mechanism], [])
    row0 = np.outer(rr_mechanism.kernel[0], rr_mechanism.kernel[0]).ravel()
    assert np.allclose(cj.matrix[0], row0, atol=1e-15)


def test_composed_joint_matches_brute_force(mixing_world_2x2):
    rng = np.random.default_rng(31)
    mechs = [
        MechanismKernel("a", ("0", "1"), rng.dirichlet(np.ones(2), size=2)),
        MechanismKernel("b", ("0", "1", "2"), rng.dirichlet(np.ones(3), size=2)),
    ]
    cj = comp.composed_joint(mixing_world_2x2, mechs, [])
    for s in (0, 1):
        assert np.allclose(cj.matrix[s], brute_force_joint(mixing_world_2x2, mechs, s), atol=1e-14)


def test_composed_joint_with_group_matches_brute_force():
    world = _world([[0.4, 0.1], [0.1, 0.4]])
    kernel = np.array([[0.9, 0.1], [0.2, 0.8]])
    mechs = [
        MechanismKernel("a", ("0", "1"), kernel),
        MechanismKernel("b", ("0", "1"), kernel),
        MechanismKernel("c", ("0", "1"), np.array([[0.6, 0.4], [0.3, 0.7]])),
    ]
    group = DependenceGroup(
        members=(0, 1),
        joint_kernel=np.array([[0.9, 0.0, 0.0, 0.1], [0.2, 0.0, 0.0, 0.8]]),
    )
    cj = comp.composed_joint(world, mechs, [group])
    # oracle: per dataset the group's joint times c's kernel, then mixture
    for s in (0, 1):
        cond = world.conditional_dataset(s)
        expect = np.zeros(8)
        for x in range(2):
            blk = group.joint_kernel[x].reshape(2, 2)
            full = np.einsum("ab,c->abc", blk, mechs[2].kernel[x]).ravel()
            expect += cond[x] * full
        assert np.allclose(cj.matrix[s], expect, atol=1e-14)
    assert np.abs(cj.matrix.sum(axis=1) - 1.0).max() <= 1e-10


def test_composed_joint_group_with_unsorted_members():
    # group covers mechanisms (2, 0) in that order; mechanism 1 independent
    world = _world([[0.4, 0.1], [0.1, 0.4]])
    k0 = np.array([[0.9, 0.1], [0.2, 0.8]])
    k1 = np.array([[0.6, 0.4], [0.3, 0.7]])
    k2 = np.array([[0.7, 0.3], [0.4, 0.6]])
    mechs = [
        MechanismKernel("m0", ("0", "1"), k0),
        MechanismKernel("m1", ("0", "1"), k1),
        MechanismKernel("m2", ("0", "1"), k2),
    ]

    def coupled(row2, row0, corr=0.6):
        # mixes the comonotone coupling of two binaries with independence
        a, b = row2[0], row0[0]
        com = np.array([[min(a, b), a - min(a, b)], [b - min(a, b), 1 - a - b + min(a, b)]])
        return corr * com + (1 - corr) * np.outer(row2, row0)

    jk = np.stack([coupled(k2[x], k0[x]).ravel() for x in range(2)])
    group = DependenceGroup(members=(2, 0), joint_kernel=jk)
    group.validate_against(mechs)
    cj = comp.composed_joint(world, mechs, [group])

    expect = np.zeros((2, 8))
    for s in range(2):
        cond = world.conditional_dataset(s)
        for x in range(2):
            jx = jk[x].reshape(2, 2)  # indexed (y2, y0) per member order
            for y0 in range(2):
                for y1 in range(2):
                    for y2 in range(2):
                        expect[s, y0 * 4 + y1 * 2 + y2] += cond[x] * jx[y2, y0] * k1[x, y1]
    assert np.abs(cj.matrix - expect).max() <= 1e-14


def test_composed_joint_outcome_cap():
    world = _world([[0.5, 0.0], [0.0, 0.5]])
    wide = MechanismKernel("w", tuple(map(str, range(500))), np.full((2, 500), 1 / 500))
    with pytest.raises(ValueError, match="cap"):
        comp.composed_joint(world, [wide, wide, wide], [])


def test_true_opt_single_equals_individual(mixing_world_2x2, rr_mechanism):
    from dcpkit.model import effective_kernel

    eff = effective_kernel(mixing_world_2x2, rr_mechanism)
    expect = max(
        optimal_epsilon(eff.pair(a, b), 0.01)
        for (a, b) in sorted(mixing_world_2x2.adjacency)
    )
    assert comp.true_opt(mixing_world_2x2, [rr_mechanism], [], 0.01) == pytest.approx(expect, abs=1e-12)


def test_invertible_world_bounds_coincide(invertible_world, rr_mechanism):
    mechs = [rr_mechanism, rr_mechanism]
    for dg in (0.0, 0.02):
        u = comp.underline_opt(invertible_world, mechs, dg)
        t = comp.true_opt(invertible_world, mechs, [], dg)
        assert abs(u - t) <= 1e-12


def test_underline_convolution_route_agrees(mixing_world_2x2):
    from dcpkit.model import effective_kernel

    rng = np.random.default_rng(32)
    mechs = [
        MechanismKernel(f"m{i}", ("0", "1"), rng.dirichlet(np.ones(2), size=2))
        for i in range(3)
    ]
    for dg in (0.0, 0.02, 0.1):
        direct = comp.underline_opt(mixing_world_2x2, mechs, dg)
        effs = [effective_kernel(mixing_world_2x2, m) for m in mechs]
        worst = -math.inf
        for (a, b) in sorted(mixing_world_2x2.adjacency):
            pld = pld_from_pair(effs[0].pair(a, b))
            for eff in effs[1:]:
                pld = convolve(pld, pld_from_pair(eff.pair(a, b)))
            worst = max(worst, epsilon_for_delta(pld, dg))
        assert direct == pytest.approx(worst, abs=1e-12)


def test_triangulating_instance_orders_strictly():
    world, mechs = triangulating_instance(noise=0.15)
    for dg in (0.0, 0.02):
        u = comp.underline_opt(world, mechs, dg)
        t = comp.true_opt(world, mechs, [], dg)
        assert t - u >= 1e-3
    # strict dt gap at a tested eps
    cj = comp.composed_joint(world, mechs, [])
    pair_t = cj.pair(0, 1)
    pair_u = comp.Composition.of(world, mechs).lumped_product.pair(0, 1)
    gaps = [hockey_stick(pair_t, e) - hockey_stick(pair_u, e) for e in (0.1, 0.3, 0.5)]
    assert max(gaps) > 1e-9


def test_overline_upper_bounds_true_at_delta_zero():
    # max of a sum never exceeds the sum of maxes, so the conservative
    # accountant is provably above the truth at delta = 0
    rng = np.random.default_rng(33)
    for _ in range(25):
        ns, nx = 2, int(rng.integers(2, 5))
        joint = rng.dirichlet(np.ones(ns * nx)).reshape(ns, nx)
        world = _world(joint)
        k = int(rng.integers(2, 4))
        mechs = [
            MechanismKernel(f"m{i}", ("0", "1"), rng.dirichlet(np.ones(2), size=nx))
            for i in range(k)
        ]
        t = comp.true_opt(world, mechs, [], 0.0)
        o = comp.overline_opt(world, mechs, [], 0.0)
        assert t <= o + 1e-9


def test_overline_collapses_without_copula_terms(invertible_world, rr_mechanism):
    mechs = [rr_mechanism, rr_mechanism]
    for dg in (0.0, 0.02):
        o = comp.overline_opt(invertible_world, mechs, [], dg)
        u = comp.underline_opt(invertible_world, mechs, dg)
        assert o == pytest.approx(u, abs=1e-9)


def test_basic_composition_holds_on_invertible(invertible_world, rr_mechanism):
    out = comp.basic_composition_check(invertible_world, [rr_mechanism, rr_mechanism], [],
                                       delta_is=[0.0, 0.0])
    assert out["holds"]


def test_basic_composition_single_mechanism(mixing_world_2x2, rr_mechanism):
    out = comp.basic_composition_check(mixing_world_2x2, [rr_mechanism], [], delta_is=[0.0])
    assert out["holds"]


@pytest.mark.parametrize("delta_is", [[0.01], [0.01, 0.02, 0.5]])
def test_basic_composition_refuses_a_delta_grid_of_the_wrong_length(delta_is):
    # one delta per mechanism: a short grid must not index past its end, a
    # long one must not drop its extra entries from the summed delta
    world, mechs = triangulating_instance()
    with pytest.raises(ValueError, match=f"delta_is has {len(delta_is)} entries for 2 mechanisms"):
        comp.basic_composition_check(world, mechs, [], delta_is=delta_is)


def test_basic_composition_fails_on_shipped_instance():
    model = load_model(DATA / "basic_composition_violation.json")
    out = comp.basic_composition_check(
        model.world, list(model.mechanisms), [], delta_is=[0.0, 0.0]
    )
    assert not out["holds"]
    # verified by direct computation at the summed budgets
    cj = comp.composed_joint(model.world, list(model.mechanisms), [])
    worst = max(
        hockey_stick(cj.pair(a, b), out["eps_sum"]) for (a, b) in sorted(model.world.adjacency)
    )
    assert worst - out["delta_sum"] >= 1e-3


def test_dominating_pair_exactness():
    pair = comp.dominating_pair(0.0, 0.0)
    assert np.allclose(np.sort(pair.p), np.sort(pair.q))
    pair = comp.dominating_pair(math.log(3), 0.0)
    assert np.allclose(sorted(pair.p, reverse=True), [0.75, 0.25])
    for eps, delta in ((1.0, 0.1), (0.3, 0.0), (2.0, 0.25)):
        pair = comp.dominating_pair(eps, delta)
        assert hockey_stick(pair, eps) == pytest.approx(delta, abs=1e-15)


def test_dominating_pair_rejects_bad_params():
    with pytest.raises(ValueError):
        comp.dominating_pair(-0.1, 0.0)
    with pytest.raises(ValueError):
        comp.dominating_pair(1.0, 1.5)


def test_dp_optcomp_identity_on_single():
    # at delta_g = the +inf mass itself the pessimistic rule reads +inf, as
    # optimal_epsilon does; just past its 4 ulps the budget comes back
    assert comp.dp_optcomp([(1.0, 0.01)], 0.01) == math.inf == optimal_epsilon(comp.dominating_pair(1.0, 0.01), 0.01)
    assert comp.dp_optcomp([(1.0, 0.01)], 0.01 + 5 * math.ulp(0.01)) == pytest.approx(1.0, abs=1e-12)


def test_dp_optcomp_pure_addition():
    val = comp.dp_optcomp([(math.log(3), 0.0), (math.log(3), 0.0)], 0.0)
    assert val == pytest.approx(2 * math.log(3), abs=1e-12)


def test_dp_optcomp_matches_product_oracle():
    # oracle: 16-outcome product of the two dominating pairs, inverted directly
    params = [(1.0, 0.01), (1.0, 0.01)]
    for delta_g in (0.05, 0.1, 0.3):
        a = comp.dominating_pair(*params[0])
        b = comp.dominating_pair(*params[1])
        p = np.outer(a.p, b.p).ravel()
        q = np.outer(a.q, b.q).ravel()
        direct = optimal_epsilon(DistPair(p, q), delta_g)
        assert comp.dp_optcomp(params, delta_g) == pytest.approx(direct, abs=1e-12)


def test_dp_optcomp_unachievable():
    assert comp.dp_optcomp([(0.5, 0.3), (0.5, 0.3)], 0.1) == math.inf


def test_overline_route_matches_budget_composition_on_dominating_mechanisms():
    # invertible world whose mechanisms realize the worst-case pairs: the
    # pushforward-and-convolve route must reproduce the budget composition
    world = _world([[0.5, 0.0], [0.0, 0.5]])
    budgets = [(0.8, 0.01), (0.4, 0.05)]
    mechs = []
    for i, (eps, delta) in enumerate(budgets):
        pair = comp.dominating_pair(eps, delta)
        kernel = np.stack([pair.p, pair.q])
        mechs.append(MechanismKernel(f"dom{i}", tuple(map(str, range(4))), kernel))
    for dg in (0.07, 0.1, 0.3):
        via_world = comp.overline_opt(world, mechs, [], dg)
        via_budgets = comp.dp_optcomp(budgets, dg)
        assert via_world == pytest.approx(via_budgets, abs=1e-9)


def test_tradeoff_dominance_invertible_equality(invertible_world, rr_mechanism):
    out = comp.tradeoff_dominance(invertible_world, [rr_mechanism, rr_mechanism])
    assert abs(out["max_violation"]) <= 1e-12
    assert out["max_gap"] <= 1e-12


def test_tradeoff_dominance_k1_degenerate(mixing_world_2x2, rr_mechanism):
    out = comp.tradeoff_dominance(mixing_world_2x2, [rr_mechanism])
    assert abs(out["max_violation"]) <= 1e-12


def test_tradeoff_dominance_triangulating_gap():
    world, mechs = triangulating_instance(noise=0.15)
    out = comp.tradeoff_dominance(world, mechs)
    assert out["max_gap"] > 1e-3  # the joint curve dips strictly below somewhere


def test_cel_invertible_equal(invertible_world, rr_mechanism):
    out = comp.cel_compare(invertible_world, [rr_mechanism, rr_mechanism])
    assert out["cel_joint"] == pytest.approx(out["cel_product"], abs=1e-12)


def test_cel_uniform_outputs_equal_prior_entropy(uniform_world, noise_mechanism):
    out = comp.cel_compare(uniform_world, [noise_mechanism, noise_mechanism])
    assert out["cel_joint"] == pytest.approx(math.log(2), abs=1e-12)
    assert out["cel_product"] == pytest.approx(math.log(2), abs=1e-12)


def test_cel_joint_never_worse():
    rng = np.random.default_rng(34)
    for _ in range(40):
        ns = int(rng.integers(2, 4))
        nx = int(rng.integers(2, 5))
        joint = rng.dirichlet(np.ones(ns * nx)).reshape(ns, nx)
        world = _world(joint)
        k = int(rng.integers(2, 4))
        mechs = [
            MechanismKernel(f"m{i}", ("0", "1"), rng.dirichlet(np.ones(2), size=nx))
            for i in range(k)
        ]
        out = comp.cel_compare(world, mechs)
        assert out["cel_joint"] <= out["cel_product"] + 1e-12


def test_cel_strict_on_mixing_world(mixing_world_2x2, rr_mechanism):
    out = comp.cel_compare(mixing_world_2x2, [rr_mechanism, rr_mechanism])
    assert out["cel_product"] - out["cel_joint"] > 1e-6


def test_composition_report_shape(mixing_world_2x2, rr_mechanism):
    rep = comp.composition_report(
        mixing_world_2x2, [rr_mechanism, rr_mechanism], [], [0.0, 0.02], [0.5]
    )
    assert len(rep.opt_rows) == 2 * 2  # two pairs x two delta values
    assert len(rep.dt_rows) == 2 * 1


def _overline_instances():
    rng = np.random.default_rng(35)
    kernel = np.array([[0.9, 0.1], [0.2, 0.8]])
    grouped = [MechanismKernel("a", ("0", "1"), kernel), MechanismKernel("b", ("0", "1"), kernel),
               MechanismKernel("c", ("0", "1"), np.array([[0.6, 0.4], [0.3, 0.7]]))]
    group = DependenceGroup(members=(0, 1),
                            joint_kernel=np.array([[0.9, 0.0, 0.0, 0.1], [0.2, 0.0, 0.0, 0.8]]))
    yield _world([[0.4, 0.1], [0.1, 0.4]]), grouped, [group]
    for _ in range(8):
        ns, nx = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        world = _world(rng.dirichlet(np.ones(ns * nx)).reshape(ns, nx))
        mechs = [MechanismKernel(f"m{i}", tuple(map(str, range(n))), rng.dirichlet(np.ones(n), size=nx))
                 for i, n in enumerate(rng.integers(2, 5, size=int(rng.integers(1, 4))))]
        yield world, mechs, []
    # s0 sees datasets x0 and x1, s1 sees x1 and x2
    partial = _world([[0.3, 0.2, 0.0], [0.0, 0.2, 0.3]])
    a = MechanismKernel("a", ("0", "1"), np.array([[0.5, 0.5], [0.6, 0.4], [0.2, 0.8]]))
    b = MechanismKernel("b", ("0", "1"), np.array([[0.4, 0.6], [0.7, 0.3], [0.5, 0.5]]))
    c = MechanismKernel("c", ("0", "1"), np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]]))
    c_zero = MechanismKernel("c", ("0", "1"), np.array([[0.6, 0.4], [0.0, 1.0], [0.0, 1.0]]))
    # the group's law is 0 at (0, 1) under s1 alone, where its members' product is positive
    zero_cell = DependenceGroup(members=(0, 1), joint_kernel=np.array(
        [np.outer(a.kernel[0], b.kernel[0]).ravel(), [0.6, 0.0, 0.1, 0.3], [0.2, 0.0, 0.3, 0.5]]))
    yield partial, [a, b, c], [zero_cell]
    # next to that group, c's output 0 is impossible under s1 alone: joint and product are 0 there
    yield partial, [a, b, c_zero], [zero_cell]
    # a grouped member's output 0 is impossible under s1 alone, and so its group's law there
    a_zero = MechanismKernel("a", ("0", "1"), np.array([[0.5, 0.5], [0.0, 1.0], [0.0, 1.0]]))
    yield partial, [a_zero, b, c], [DependenceGroup(members=(0, 1), joint_kernel=np.array(
        [np.outer(a_zero.kernel[0], b.kernel[0]).ravel(), [0.0, 0.0, 0.7, 0.3], [0.0, 0.0, 0.5, 0.5]]))]
    # output 2 is impossible under s0 alone
    k = MechanismKernel("k", ("0", "1", "2"), np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.1, 0.1, 0.8]]))
    yield partial, [k, c], []
    # a repeated kernel: its two copies form one type class
    world = _world(rng.dirichlet(np.ones(9)).reshape(3, 3))
    twice = MechanismKernel("r", ("0", "1", "2"), rng.dirichlet(np.ones(3), size=3))
    yield world, [twice, MechanismKernel("m", ("0", "1"), rng.dirichlet(np.ones(2), size=3)), twice], []
    # a zero-prior secret, which no adjacent pair touches
    yield _world([[0.3, 0.2], [0.25, 0.25], [0.0, 0.0]]), [
        MechanismKernel("d", ("0", "1"), kernel), MechanismKernel("e", ("0", "1", "2"), rng.dirichlet(np.ones(3), size=2))], []
    # output 2 of each mechanism comes from the dataset of prior 1e-200 alone: the
    # product's cell (2, 2) underflows to 0 on both rows, the joint's does not
    rare = _world([[0.5, 1e-200], [0.5, 2e-200]])
    yield rare, [MechanismKernel("u", ("0", "1", "2"), np.array([[0.6, 0.4, 0.0], [0.0, 0.0, 1.0]])),
                 MechanismKernel("v", ("0", "1", "2"), np.array([[0.3, 0.7, 0.0], [0.0, 0.0, 1.0]]))], []


def _world_pld(dec):
    """Pushforward of world_term + dependence_term under the s0 law."""
    combined, mass = dec.world_term + dec.dependence_term, dec.ref_masses
    live = mass > 0.0
    combined, mass = combined[live], mass[live]
    return LossProfile.of_atoms(combined, mass, mass * np.exp(-combined))


def test_overline_columns_match_the_materialized_convolution():
    # oracle: the copula-term PLD convolved with every marginal PLD, the
    # alphabet^2 object the conservative bound no longer builds
    for world, mechs, dependence in _overline_instances():
        report = comp.composition_report(world, mechs, dependence, [0.0, 0.02, 0.2], [0.0, 0.5, 2.0])
        plds = {}
        for (s0, s1) in sorted(world.adjacency):
            pld = _world_pld(decompose_plrv(world, mechs, dependence, s0, s1))
            for mech in mechs:
                pld = convolve(pld, pld_from_pair(effective_kernel(world, mech).pair(s0, s1)))
            plds[(s0, s1)] = pld
        for (s0, s1, dg, _, _, over) in report.opt_rows:
            assert over == pytest.approx(epsilon_for_delta(plds[(s0, s1)], dg), abs=1e-12)
        for (s0, s1, eg, _, _, over) in report.dt_rows:
            assert over == pytest.approx(privacy_profile(plds[(s0, s1)], eg), abs=1e-12)


def test_conservative_bound_reads_inf_within_4_ulps_of_the_inf_mass(tmp_path):
    # an invertible world, where the three bounds coincide: pair (s1, s0) has
    # +inf mass 0.5 per copy of the kernel, and a delta_g at that mass reads
    # +inf in every column, as the tight epsilon's pessimistic rule has it
    world = _world([[0.5, 0.0], [0.0, 0.5]])
    mech = MechanismKernel("k", ("0", "1"), np.array([[1.0, 0.0], [0.5, 0.5]]))
    for mechs, dg in (([mech, mech], 0.75), ([mech], 0.5)):
        report = comp.composition_report(world, mechs, [], [dg], [0.5])
        assert [row[3:] for row in report.opt_rows if row[:2] == (1, 0)] == [(math.inf,) * 3]
        assert report.ordering_ok()
        assert comp.overline_opt(world, mechs, [], dg) == math.inf
    path = tmp_path / "invertible.json"
    path.write_text(json.dumps({"secrets": ["s0", "s1"], "datasets": ["x0", "x1"], "joint": world.joint.tolist(),
                                "mechanisms": [{"name": f"k{i}", "outputs": ["0", "1"], "kernel": mech.kernel.tolist()}
                                               for i in range(2)]}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--model", str(path), "compose", "--delta-g", "0.75", "--eps-g", "0.5"]) == 0


def test_report_convolves_nothing_and_sorts_each_product_pair_once(monkeypatch):
    # the conservative bound reads the product pair's one LossProfile, which
    # the dependence-ignoring column sorts: no convolution, no per-mechanism
    # PLD, no dense decomposition
    from dcpkit import divergence

    calls = {"convolve": 0, "pld_from_pair": 0, "PlrvDecomposition": 0}
    for layer in (pld_layer, comp):
        for name in calls:
            if hasattr(layer, name):
                def counted(*a, _f=getattr(layer, name), _name=name, **k):
                    calls[_name] += 1
                    return _f(*a, **k)
                monkeypatch.setattr(layer, name, counted)
    sorts, marginals = [], []
    steps, loss_sum = divergence._np_steps, comp.LossSum
    monkeypatch.setattr(divergence, "_np_steps", lambda loss, p, q: sorts.append(1) or steps(loss, p, q))
    monkeypatch.setattr(comp, "LossSum", lambda w, m: marginals.append(m) or loss_sum(w, m))
    for rel in ("demos/models/dependent_pair.json", "tests/data/repeated_kernel.json"):
        model = load_model(pathlib.Path(__file__).parent.parent / rel)
        world, mechs, dependence = model.world, list(model.mechanisms), list(model.dependence)
        del sorts[:], marginals[:]
        comp.composition_report(world, mechs, dependence, [0.0, 0.02], [0.5, 1.0])
        value = comp.Composition.of(world, mechs, dependence)
        assert calls == {"convolve": 0, "pld_from_pair": 0, "PlrvDecomposition": 0}
        # one sort per unordered pair of the joint and of the product, and
        # one of the copula term per ordered pair
        assert len(sorts) == 2 * len({frozenset(pair) for pair in world.adjacency}) + len(world.adjacency)
        assert [id(m) for m in marginals] == [id(value.lumped_product.pair(*pair).profile)
                                              for pair in sorted(world.adjacency)]


def test_compose_on_seven_to_the_four_outcomes_stays_small(monkeypatch):
    # the copula term alone has one atom per outcome; convolved with the
    # marginals it would hold 2401^2 atoms (about 600 MB)
    rng = np.random.default_rng(36)
    world = _world(rng.dirichlet(np.ones(9)).reshape(3, 3))
    mechs = [MechanismKernel(f"m{i}", tuple(map(str, range(7))), rng.dirichlet(np.ones(7), size=3))
             for i in range(4)]
    monkeypatch.setattr(config, "OUTCOME_CAP", 7**4)  # no convolution may outgrow the joint
    tracemalloc.start()
    try:
        report = comp.composition_report(world, mechs, [], [0.0, 0.02], [0.5, 1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert len(report.opt_rows) == 2 * len(world.adjacency)
    assert all(true <= over + 1e-9 for (_, _, dg, _, true, over) in report.opt_rows if dg == 0.0)


# ------------------------------------------------- member order, zero-prior secrets

_K0 = [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]]
_K1 = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]
_K2 = [[0.8, 0.2], [0.5, 0.5], [0.25, 0.75]]


def _coupled_model(members, coupling, zero_prior):
    """2 secrets, 3 datasets, mechanisms of 2, 3 and 2 outputs; mechanisms 0
    and 2 form a group listed as ``members``, comonotone (zeros in the same
    cell on every dataset) or independent, with ``joint_kernel`` columns in
    member order; ``zero_prior`` appends a third secret of prior 0."""
    kernels = {0: np.array(_K0), 2: np.array(_K2)}
    rows = []
    for x in range(3):
        a, b = kernels[0][x], kernels[2][x]
        if coupling == "comonotone":  # a[0] <= b[0] on every dataset
            cell = np.array([[a[0], 0.0], [b[0] - a[0], b[1]]])
        else:
            cell = np.outer(a, b)
        rows.append((cell if members == [0, 2] else cell.T).ravel().tolist())
    joint = [[0.3, 0.15, 0.05], [0.05, 0.15, 0.3]] + ([[0.0, 0.0, 0.0]] if zero_prior else [])
    return {
        "secrets": ["s0", "s1", "s2"][:len(joint)],
        "datasets": ["x0", "x1", "x2"],
        "joint": joint,
        "mechanisms": [{"name": f"m{i}", "outputs": [str(o) for o in range(len(k[0]))], "kernel": k}
                       for i, k in enumerate((_K0, _K1, _K2))],
        "dependence": [{"members": members, "joint_kernel": rows}],
    }


def _cli_bodies(path, argvs):
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["--model", str(path), *argv])
        text = buf.getvalue()
        assert text.startswith("# dcp ")
        body = text.split("\n", 1)[1]  # the header carries the model file's hash
        if argv[0] == "ic":  # alpha and pi hold one entry per secret
            body = {k: v for k, v in json.loads(body).items() if k not in ("alpha", "pi")}
        out.append((code, body))
    return out


@pytest.mark.parametrize("coupling", ["comonotone", "independent"])
def test_member_order_and_zero_prior_secrets_change_no_output(tmp_path, coupling):
    # (a) a group listed as [2, 0] with its joint kernel's axes transposed
    # to match, (b) a secret of prior 0, and both, describe the same
    # composition as the base model and must print the same numbers
    argvs = [["check", "--eps", "1.0", "--delta", "0.05"],
             ["compose", "--delta-g", "0", "0.05", "--eps-g", "0.5", "1"],
             ["ic", "--task", "2"], ["ic", "--task", "2", "--delta-g", "0.05"]]
    results = []
    for members, zero_prior in (([0, 2], False), ([2, 0], False), ([0, 2], True), ([2, 0], True)):
        path = tmp_path / f"m{members[0]}{zero_prior}.json"
        path.write_text(json.dumps(_coupled_model(members, coupling, zero_prior)))
        model = load_model(path)
        world, mechs, dependence = model.world, list(model.mechanisms), list(model.dependence)
        report = comp.composition_report(world, mechs, dependence, [0.0, 0.05], [0.5, 1.0])
        terms = []
        for (s0, s1) in sorted(world.adjacency):
            dec = decompose_plrv(world, mechs, dependence, s0, s1)
            terms.append([t[dec.finite].tolist() for t in (
                dec.total, dec.world_term, dec.dependence_term, dec.independent_term, dec.ref_masses)])
        results.append((report.opt_rows, report.dt_rows, report.basic_holds, terms,
                        _cli_bodies(path, argvs)))
    for other in results[1:]:
        assert other == results[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_prior_secret_leaves_the_ic_certificate_alone(tmp_path):
    # pi^2/P on a zero-prior secret is 0/0; the expectation constraint must
    # still bind on the other secrets
    raw = json.loads((DEMOS / "dependent_pair.json").read_text())
    path = tmp_path / "base.json"
    path.write_text(json.dumps(raw))
    raw["secrets"].append("s2")
    raw["joint"].append([0.0, 0.0])
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps(raw))
    argvs = [["ic", "--task", "2", "--delta-g", "0.05"], ["ic", "--task", "2"],
             ["compose"], ["check", "--eps", "1.0", "--delta", "0.05"]]
    base, other = _cli_bodies(path, argvs), _cli_bodies(padded, argvs)
    assert other == base
    assert base[0][1]["tau_g"] > 20.0  # the constraint set is empty below tau = 20
    certs = [certify(m.world, list(m.mechanisms), list(m.dependence), None, 30.0, 0.05)
             for m in (load_model(path), load_model(padded))]
    assert certs[0] == certs[1]


def test_report_and_bounds_build_each_law_once(monkeypatch):
    model = load_model(DEMOS / "dependent_pair.json")  # two ordered pairs and a group
    world, mechs, dependence = model.world, list(model.mechanisms), list(model.dependence)
    joints, effs, mixes, _ = _count_builds(monkeypatch)
    # the basic check asks for the joint only, the group law not at all
    comp.basic_composition_check(world, mechs, dependence)
    assert (len(joints), sorted(effs), mixes) == (1, sorted(m.name for m in mechs), [])
    comp.composition_report(world, mechs, dependence, [0.0, 0.02], [0.5, 1.0])
    comp.overline_opt(world, mechs, dependence, 0.02)
    comp.true_opt(world, mechs, dependence, 0.02)
    decompose_plrv(world, mechs, dependence, 0, 1)
    assert (len(joints), sorted(effs)) == (1, sorted(m.name for m in mechs))
    assert mixes == [id(dependence[0].joint_kernel)]


# ------------------------------------------------- one Composition value per composition


def _count_builds(monkeypatch):
    """Empty the composition slot and count, in the composition layer, the
    joint builds (on type classes, the one build of a composed law), the
    product-law layouts, the effective kernels by mechanism name and the
    group laws by kernel id."""
    monkeypatch.setattr(comp, "_SLOT", [None])
    joints, layouts, effs, mixes = [], [], [], []
    build, lay, eff, mix = comp.lumped_law, comp.lay_out, comp.effective_kernel, comp.mix_kernel
    monkeypatch.setattr(comp, "lumped_law", lambda *a: joints.append(1) or build(*a))
    monkeypatch.setattr(comp, "lay_out", lambda *a: layouts.append(1) or lay(*a))
    monkeypatch.setattr(comp, "effective_kernel", lambda w, m: effs.append(m.name) or eff(w, m))
    monkeypatch.setattr(comp, "mix_kernel", lambda w, k: mixes.append(id(k)) or mix(w, k))
    return joints, effs, mixes, layouts


def _spread_joint(world, mechs):
    """The composed joint as the composition lays it out: each outcome its
    type's mass over the type's count, built from the model layer alone (the
    dense ``composed_law`` itself, bit for bit, when no kernel repeats)."""
    classes = model_layer.type_classes(mechs)
    index = model_layer.atom_index(classes)
    return (model_layer.lumped_law(world, mechs, (), classes) / np.bincount(index))[:, index]


def _random_instance(rng, n_secrets=2, n_datasets=3, dims=(4, 4, 4, 3)):
    world = _world(rng.dirichlet(np.ones(n_secrets * n_datasets)).reshape(n_secrets, n_datasets))
    repeated = MechanismKernel("r", tuple(map(str, range(dims[0]))),
                               rng.dirichlet(np.ones(dims[0]), size=n_datasets))
    mechs = [repeated if n == dims[0] else
             MechanismKernel(f"m{i}", tuple(map(str, range(n))), rng.dirichlet(np.ones(n), size=n_datasets))
             for i, n in enumerate(dims)]
    return world, mechs


def test_one_instance_asked_many_bounds_builds_each_law_once(monkeypatch):
    # the large-alphabet benchmark operation: the joint, the true and the
    # dependence-ignoring epsilon at three deltas, the worst-pair ROC, a
    # trade-off curve, trade-off dominance and the IC task-2 bound
    from dcpkit import divergence, ic
    from dcpkit.audit import worst_pair_roc
    from dcpkit.divergence import tradeoff_curve, worst_pair

    world, mechs = _random_instance(np.random.default_rng(41), n_secrets=3)
    joints, effs, mixes, layouts = _count_builds(monkeypatch)
    profiles = []

    class CountedProfile(divergence.LossProfile):
        def __init__(self, pair):
            profiles.append(1)
            super().__init__(pair)

    monkeypatch.setattr(divergence, "LossProfile", CountedProfile)
    deltas = (0.0, 0.01, 0.05)
    cj = comp.composed_joint(world, mechs, [])
    true = [comp.true_opt(world, mechs, [], d, per_pair=True) for d in deltas]
    under = [comp.underline_opt(world, mechs, d, per_pair=True) for d in deltas]
    roc, pair = worst_pair_roc(world, cj.matrix)
    tradeoff_curve(cj.pair(*pair))
    comp.tradeoff_dominance(world, mechs, [])
    ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=0.05))
    # the joint on type classes, which the bounds read and the joint spreads,
    # and the product law, the one layout here
    assert (len(joints), len(layouts), mixes) == (1, 1, [])
    assert sorted(effs) == sorted(m.name for m in mechs)
    # one per unordered adjacent pair of the joint and of the product: a pair's twin reads it reversed
    assert len(profiles) == len(world.adjacency)
    # the same answers as the laws built afresh: the bounds read the laws on
    # type classes (three copies of one kernel here), within the last bits
    # of the dense laws
    joint = model_layer.composed_law(world, mechs)
    product = model_layer.lay_out([((i,), effective_kernel(world, m).matrix) for i, m in enumerate(mechs)],
                                  tuple(m.n_outputs for m in mechs))
    assert np.array_equal(cj.matrix, _spread_joint(world, mechs))
    assert np.allclose(cj.matrix, joint, rtol=1e-13, atol=0.0)
    fresh = comp.Composition(world, tuple(mechs))
    assert fresh.sizes["atoms"] == 20 * 3 < fresh.sizes["outcomes"] == 4 * 4 * 4 * 3
    for d, t, u in zip(deltas, true, under):
        assert t == worst_pair(world, fresh.lumped.matrix, delta=d)[::2]
        assert u == worst_pair(world, fresh.lumped_product.matrix, delta=d)[::2]
        for got, law in ((t, joint), (u, product)):
            dense = worst_pair(world, law, delta=d)
            assert got[1].keys() == dense.values.keys()
            for pair, eps in dense.values.items():
                assert abs(got[1][pair] - eps) <= 1e-12 * max(1.0, abs(eps))


def test_new_objects_are_never_served_the_previous_law(monkeypatch):
    monkeypatch.setattr(comp, "_SLOT", [None])
    rng = np.random.default_rng(42)
    kept = []
    for _ in range(6):
        world, mechs = _random_instance(rng, dims=(3, 3, 2))
        expect = _spread_joint(world, mechs)
        assert np.array_equal(comp.composed_joint(world, mechs).matrix, expect)
        # the previous round's objects were dropped by their caller; the slot
        # kept them alive, so no id in its key could be reused, until now
        gc.collect()
        assert all(ref() is None for ref in kept)
        # the same objects in another order compose another law
        swapped = [mechs[2], mechs[0], mechs[1]]
        assert np.array_equal(comp.composed_joint(world, swapped).matrix, _spread_joint(world, swapped))
        # equal numbers in new objects are a new composition, built anew
        twin = World(world.secrets, world.datasets, world.joint.copy(), world.adjacency)
        assert comp.Composition.of(twin, mechs) is not comp.Composition.of(world, mechs)
        assert np.array_equal(comp.composed_joint(twin, mechs).matrix, expect)
        assert np.array_equal(comp.composed_joint(world, mechs).matrix, expect)
        kept = [weakref.ref(obj) for obj in (world, *mechs)]
        del world, mechs, swapped, twin
        gc.collect()
        assert all(ref() is not None for ref in kept)


def _large_alphabet_op(world, mechs):
    """The large-alphabet benchmark operation's library calls, in its order."""
    from dcpkit import ic
    from dcpkit.audit import worst_pair_roc
    from dcpkit.divergence import tradeoff_curve

    cj = comp.composed_joint(world, mechs, [])
    for d in (0.0, 0.01, 0.05):
        comp.true_opt(world, mechs, [], d, per_pair=True)
        comp.underline_opt(world, mechs, d, per_pair=True)
    roc, pair = worst_pair_roc(world, cj.matrix)
    tradeoff_curve(cj.pair(*pair))
    comp.tradeoff_dominance(world, mechs, [])
    ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=0.05))


@pytest.mark.parametrize("n_secrets, dims, sorts", [
    (2, (3, 4, 5), 2),      # joint and product, 1 unordered pair each
    (3, (3, 4, 5), 6),      # joint and product, 3 unordered pairs each
    (2, (4, 4, 4, 3), 2),   # the type-class law (the joint hands out its pairs) and its product
])
def test_each_law_sorts_each_unordered_adjacent_pair_once(monkeypatch, n_secrets, dims, sorts):
    from dcpkit import divergence

    world, mechs = _random_instance(np.random.default_rng(46), n_secrets=n_secrets, dims=dims)
    assert len(world.adjacency) == n_secrets * (n_secrets - 1)
    monkeypatch.setattr(comp, "_SLOT", [None])
    calls, steps = [], divergence._np_steps
    monkeypatch.setattr(divergence, "_np_steps", lambda loss, p, q: calls.append(loss.size) or steps(loss, p, q))
    _large_alphabet_op(world, mechs)
    assert len(calls) == sorts
    assert max(calls) <= comp.Composition.of(world, mechs).sizes["atoms"]  # no sort of dense outcomes
    _large_alphabet_op(world, mechs)  # the same objects again: the slot's laws keep their sorts
    assert len(calls) == sorts


def _tie_heavy_worlds():
    """A kernel with zeros in a mixing and in an invertible world: its
    copies tie exactly and leave outcomes with mass on one side only."""
    kernel = np.array([[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [0.3, 0.3, 0.4], [0.2, 0.0, 0.8]])
    mech = MechanismKernel("z", ("0", "1", "2"), kernel)
    one_hot = np.array([[0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5]])
    for world in (mixing_world(0.3), World(("s0", "s1"), tuple("abcd"), one_hot, default_adjacency(one_hot))):
        yield world, mech


def union_grid_dominance(world, mechs):
    """``tradeoff_dominance`` as it was: both curves on the union of their
    vertex grids, on the laws the library reads."""
    value = comp.Composition.of(world, mechs)
    violation, gap, at = -math.inf, 0.0, None
    for pair in sorted(world.adjacency):
        jc = tradeoff_curve(value.lumped.pair(*pair))
        pc = tradeoff_curve(value.lumped_product.pair(*pair))
        grid = np.union1d(jc.alphas, pc.alphas)
        diff = jc.beta(grid) - pc.beta(grid)
        if float(diff.max()) > violation:
            violation, at = float(diff.max()), pair
        gap = max(gap, float(-diff.min()))
    return {"max_violation": violation, "max_gap": gap, "worst_pair": at}


def test_dominance_at_each_curves_vertices_equals_the_union_grid():
    # a difference of two piecewise-linear curves peaks at a vertex of one of
    # them, and np.interp reads a curve's own vertex exactly: the same numbers,
    # bit for bit, on random instances and on tie-heavy repeated kernels
    rng = np.random.default_rng(47)
    instances = [_random_instance(rng, n_secrets=n, dims=dims)
                 for n in (2, 3) for dims in ((2, 3), (3, 4, 5), (4, 4, 4, 3), (3, 3, 3))]
    instances += [(world, [mech] * copies) for world, mech in _tie_heavy_worlds() for copies in (2, 4, 6)]
    for world, mechs in instances:
        assert comp.tradeoff_dominance(world, mechs) == union_grid_dominance(world, mechs)


def test_empty_adjacency_is_refused_by_the_composition_bounds(rr_mechanism):
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    world = World(("s0", "s1"), ("x0", "x1"), joint, frozenset())
    mechs = [rr_mechanism, rr_mechanism]
    with pytest.raises(ValueError, match="nothing to certify: world has an empty adjacency relation"):
        comp.tradeoff_dominance(world, mechs)


def test_empty_adjacency_is_refused_by_the_conservative_bound(rr_mechanism):
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    world = World(("s0", "s1"), ("x0", "x1"), joint, frozenset())
    with pytest.raises(ValueError, match="nothing to certify: world has an empty adjacency relation"):
        comp.overline_opt(world, [rr_mechanism, rr_mechanism], [], 0.1)


def test_threads_asking_about_their_own_compositions_get_their_own_laws(monkeypatch):
    monkeypatch.setattr(comp, "_SLOT", [None])
    rng = np.random.default_rng(44)
    instances = [_random_instance(rng, dims=(2, 3)) for _ in range(4)]  # more threads than cores
    wrong = []
    start = threading.Barrier(len(instances))

    def ask(world, mechs, expect):
        start.wait(timeout=60)
        for _ in range(2000):
            if not np.array_equal(comp.composed_joint(world, mechs).matrix, expect):
                wrong.append(id(world))

    threads = [threading.Thread(target=ask, args=(w, m, model_layer.composed_law(w, m))) for w, m in instances]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_a_law_cached_under_a_large_cap_is_refused_under_a_lower_one(monkeypatch):
    # three copies of one 4-output kernel: 64 outcomes, 20 atoms
    monkeypatch.setattr(comp, "_SLOT", [None])
    world, mechs = _random_instance(np.random.default_rng(43), dims=(4, 4, 4))
    comp.composed_joint(world, mechs)
    comp.true_opt(world, mechs, [], 0.0)
    monkeypatch.setattr(config, "OUTCOME_CAP", 63)
    with pytest.raises(ValueError, match="cap"):
        comp.composed_joint(world, mechs)
    monkeypatch.setattr(config, "OUTCOME_CAP", 19)
    for call in (lambda: comp.true_opt(world, mechs, [], 0.0), lambda: comp.tradeoff_dominance(world, mechs)):
        with pytest.raises(ValueError, match="cap"):
            call()


def test_cached_arrays_are_read_only():
    model = load_model(DEMOS / "dependent_pair.json")
    world, mechs, dependence = model.world, list(model.mechanisms), list(model.dependence)
    value = comp.Composition.of(world, mechs, dependence)
    arrays = [comp.composed_joint(world, mechs, dependence).matrix, value.joint.matrix,
              value.lumped_product.matrix, *(eff.matrix for eff in value.effs),
              *(law for _, law in value.groups)]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.5
