"""Laws on type classes against the dense route.

Ungrouped mechanisms with bitwise-equal kernels share one atom per multiset
of their outputs; every bound read on those laws, and every reading of the
composed joint spread from them, must match the same reading of the dense
laws (``dense_route``) within ``TOL`` relative, and a composition without
repeats must read the dense joint itself and a product law with the dense
product's bytes.
"""

import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpkit import composition as comp
from dcpkit import config, ic
from dcpkit.audit import lr_attack_roc, worst_pair_roc
from dcpkit.divergence import Law, LossProfile, hockey_stick, tradeoff_curve, worst_pair
from dcpkit.model import (DependenceGroup, MechanismKernel, World, atom_index, composed_law, default_adjacency,
                          load_model)
from dcpkit.pld import pld_from_pair, privacy_profile
from dense_route import (close, close_arrays, close_curves, dense_cel, dense_decomposition, dense_dominance,
                         dense_laws, dense_mechanism, dense_task2)


def _normalized(weights):
    weights = np.asarray(weights, dtype=float)
    return weights / weights.sum(axis=1, keepdims=True)


def _northwest(a, b):
    """A coupling of the distributions ``a`` and ``b`` (the north-west
    corner rule): a joint table with those marginals and strong dependence."""
    table, a, b = np.zeros((a.size, b.size)), a.copy(), b.copy()
    i = j = 0
    while i < a.size and j < b.size:
        m = min(a[i], b[j])
        table[i, j] += m
        a[i] -= m
        b[j] -= m
        if a[i] <= b[j]:
            i += 1
        else:
            j += 1
    return table


@st.composite
def compositions(draw):
    """2-3 secrets, 2-4 datasets; 1-4 copies of each of 1-2 kernels, an
    optional distinct mechanism, all in a drawn order, and an optional
    dependence group of two of them (members listed in a drawn order)."""
    n_s, n_x = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    cells = st.lists(st.integers(0, 4), min_size=n_s * n_x, max_size=n_s * n_x)
    joint = np.array(draw(cells), dtype=float).reshape(n_s, n_x)
    joint[np.arange(n_s), np.arange(n_s) % n_x] += 1.0  # every secret live
    world = World(tuple(f"s{s}" for s in range(n_s)), tuple(f"x{x}" for x in range(n_x)),
                  joint / joint.sum(), default_adjacency(joint))

    def kernel(name):
        n = draw(st.integers(2, 3))
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=n_x * n, max_size=n_x * n)),
                           dtype=float).reshape(n_x, n)
        weights[np.arange(n_x), np.arange(n_x) % n] += 1.0
        return MechanismKernel(name, tuple(map(str, range(n))), _normalized(weights))

    mechs = []
    for k in range(draw(st.integers(1, 2))):
        mechs += [kernel(f"k{k}")] * draw(st.integers(1, 4))
    if draw(st.booleans()):
        mechs.append(kernel("distinct"))
    mechs = [mechs[i] for i in draw(st.permutations(range(len(mechs))))]
    dependence = []
    if len(mechs) >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, len(mechs) - 1), min_size=2, max_size=2, unique=True))
        ka, kb = mechs[a].kernel, mechs[b].kernel
        mix = draw(st.sampled_from([0.0, 0.5, 1.0]))
        rows = [(mix * _northwest(ka[x], kb[x]) + (1 - mix) * np.outer(ka[x], kb[x])).ravel()
                for x in range(n_x)]
        dependence.append(DependenceGroup((a, b), np.array(rows)))
    return world, mechs, dependence


def _assert_pairs_close(got: dict, want: dict):
    assert got.keys() == want.keys()
    for pair, value in want.items():
        assert close(got[pair], value), (pair, got[pair], value)


def _assert_joint_matches(world, mechs, dependence, value, joint, dense):
    """The composed joint and every reader of its pairs against the dense
    joint: byte for byte without repeats; with them, the joint spread from
    the atoms hands out the atoms' pairs and each reading is ``close``
    (curves as functions, since a type's outcomes fall into ratio groups a
    few ulps apart)."""
    cj, want_law = comp.composed_joint(world, mechs, dependence), Law(joint)
    pairs = sorted(world.adjacency)
    if not value.repeats:
        assert cj.matrix.tobytes() == joint.tobytes()
        for pair in pairs:
            got, want = cj.pair(*pair), want_law.pair(*pair)
            assert (got.p.tobytes(), got.q.tobytes()) == (want.p.tobytes(), want.q.tobytes())
        return
    assert np.allclose(cj.matrix, joint, rtol=1e-13, atol=0.0)
    for pair in pairs:
        got, want = cj.pair(*pair), want_law.pair(*pair)
        assert got is value.lumped.pair(*pair)
        curves = [tradeoff_curve(got), tradeoff_curve(want)]
        assert close_curves(*((c.alphas, c.betas) for c in curves))
        rocs = [lr_attack_roc(got), lr_attack_roc(want)]
        assert close(rocs[0].auc, rocs[1].auc)
        assert close_curves(*((r.fpr, r.tpr) for r in rocs))
        plds = [pld_from_pair(got), pld_from_pair(want)]  # as ``dcp pld`` builds it
        assert close(plds[0].inf_mass, plds[1].inf_mass)
        for eps in np.union1d(*(p.losses[np.isfinite(p.losses)] for p in plds)):
            assert close(privacy_profile(plds[0], eps), privacy_profile(plds[1], eps)), eps
        assert close_arrays(comp.decompose_plrv(world, mechs, dependence, *pair).total,
                            comp.decompose_plrv(world, [dense], [], *pair).total)
    assert close(worst_pair_roc(world, cj.matrix)[0].auc, worst_pair_roc(world, joint)[0].auc)
    for eps in (0.0, 0.3, 1.0, 2.5):
        assert close(cj.check(world, eps, 0.05).worst_delta, worst_pair(world, joint, eps=eps).value)


def _assert_task1_matches(world, mechs, dependence, dense, tau_g, delta_g):
    """IC task 1 on the composition against task 1 on its dense joint: the
    added channel, its columns in their canonical order, the response (per
    atom, spread to the outcomes) and its live (outcome, symbol) rows; then
    ``certify``'s three stages."""
    got, want = (ic.solve_task1(ic.IcProblem(world=world, mechs=ms, dependence=dep, delta_g=delta_g, tau_g=tau_g))
                 for ms, dep in ((mechs, dependence), ([dense], [])))
    assert got.certified == want.certified
    assert close_arrays(got.alpha, want.alpha)
    assert close_arrays(comp.Composition.of(world, mechs, dependence).per_outcome(got.pi), want.pi)
    assert close(got.feasibility, want.feasibility)
    assert got.diagnostics["live_outcomes"] == want.diagnostics["live_outcomes"]
    for alpha in (None, want.alpha):
        reports = [ic.certify(world, ms, dep, alpha, tau_g, delta_g)
                   for ms, dep in ((mechs, dependence), ([dense], []))]
        for key in ("stage1_residual", "stage2_max_tail", "stage3_delta"):
            assert close(*(getattr(r, key) for r in reports)), key


@settings(derandomize=True, max_examples=60, deadline=None)
@given(compositions())
def test_lumped_answers_match_the_dense_route(case):
    world, mechs, dependence = case
    joint, product = dense_laws(world, mechs, dependence)
    value = comp.Composition.of(world, mechs, dependence)
    assert value.sizes["outcomes"] == joint.shape[1] == int(np.bincount(value.index).sum())
    assert np.array_equal(value.counts, np.bincount(value.index)) and value.counts.sum() == value.sizes["outcomes"]
    assert value.sizes["atoms"] == value.lumped.matrix.shape[1] == value.lumped_product.matrix.shape[1]
    # the epsilon bounds at fixed deltas and at each pair's own delta(0)
    delta0s = [float(LossProfile(Law(joint).pair(*pair))._breaks[1][0]) for pair in sorted(world.adjacency)]
    for d in (0.0, 0.01, 0.05, *delta0s):
        _assert_pairs_close(comp.true_opt(world, mechs, dependence, d, per_pair=True)[1],
                            worst_pair(world, joint, delta=d).values)
        _assert_pairs_close(comp.underline_opt(world, mechs, d, per_pair=True)[1],
                            worst_pair(world, product, delta=d).values)
    # hockey-stick deltas: the report's dependence-ignoring and true columns, the basic check
    eps_gs = [0.0, 0.3, 1.0, 2.5]
    report = comp.composition_report(world, mechs, dependence, [0.02], eps_gs)
    for (s0, s1, eg, under, true, _) in report.dt_rows:
        assert close(under, hockey_stick(Law(product).pair(s0, s1), eg))
        assert close(true, hockey_stick(Law(joint).pair(s0, s1), eg))
    basic = comp.basic_composition_check(world, mechs, dependence)
    assert close(basic["composed_delta"], worst_pair(world, joint, eps=basic["eps_sum"]).value)
    dominance = comp.tradeoff_dominance(world, mechs, dependence)
    for key, want in dense_dominance(world, joint, product).items():
        assert close(dominance[key], want), key
    cel = comp.cel_compare(world, mechs, dependence)
    for key, want in dense_cel(world, joint, product).items():
        assert close(cel[key], want), key
    for delta_g in (0.0, 0.05):
        want = dense_task2(world, joint, delta_g)
        problem = ic.IcProblem(world=world, mechs=mechs, dependence=dependence, delta_g=delta_g)
        if want["tau_g"] > ic.TAU_CAP:
            with pytest.raises(ValueError, match="cap"):
                ic.solve_task2(problem)
            continue
        sol = ic.solve_task2(problem)
        for key in ("tau_g", "eps_g", "direct_check_delta", "loss_value"):
            assert close(getattr(sol, key), want[key]), key
        assert abs(sol.feasibility - want["feasibility"]) <= 1e-12
        assert len(sol.pi) == value.sizes["atoms"]
        pi = value.per_outcome(sol.pi)
        assert pi.shape == want["pi"].shape
        assert float(np.abs(pi - want["pi"]).max()) <= 1e-12
        assert sol.diagnostics["live_outcomes"] == want["live_outcomes"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(compositions())
def test_joint_spread_from_the_atoms_reads_as_the_dense_joint(case):
    world, mechs, dependence = case
    joint, _ = dense_laws(world, mechs, dependence)
    dense = dense_mechanism(world, mechs, dependence)
    assert composed_law(world, [dense]).tobytes() == joint.tobytes()
    _assert_joint_matches(world, mechs, dependence, comp.Composition.of(world, mechs, dependence), joint, dense)
    _assert_task1_routes_match(world, mechs, dependence, joint, dense)


def _assert_decompositions_match(world, mechs, dependence):
    """``decompose_plrv``, read on the atoms and spread, against the dense
    split on every adjacent ordered pair: each term ``close``, with the same
    NaN and infinities, and the reference masses byte for byte."""
    for pair in sorted(world.adjacency):
        got = comp.decompose_plrv(world, mechs, dependence, *pair)
        want = dense_decomposition(world, mechs, dependence, *pair)
        for term in ("total", "world_term", "dependence_term", "independent_term"):
            assert close_arrays(getattr(got, term), getattr(want, term)), (pair, term)
        assert got.ref_masses.tobytes() == want.ref_masses.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(compositions())
def test_decomposition_on_the_atoms_matches_the_dense_split(case):
    _assert_decompositions_match(*case)


@pytest.mark.parametrize("path", [*sorted(pathlib.Path(__file__).parent.parent.glob("demos/models/*.json")),
                                  pathlib.Path(__file__).parent / "data" / "repeated_kernel.json"],
                         ids=lambda p: p.stem)
def test_decomposition_on_the_models_matches_the_dense_split(path):
    model = load_model(path)
    _assert_decompositions_match(model.world, list(model.mechanisms), list(model.dependence))


def _assert_task1_routes_match(world, mechs, dependence, joint, dense):
    for delta_g in (0.0, 0.05):
        tau_star = dense_task2(world, joint, delta_g)["tau_g"]
        for tau_g in (max(1.0, 0.9 * tau_star), 1.5 * tau_star) if tau_star <= ic.TAU_CAP else ():
            _assert_task1_matches(world, mechs, dependence, dense, tau_g, delta_g)


@pytest.mark.parametrize("cells,kernel", [
    # s0 and s2 alike: at delta_g = 0 two column merges cost the same
    ([[3, 2], [0, 2], [3, 2]], [[1.0, 0.0], [0.5, 0.5]]),
    # an uninformative kernel: both columns have v_1 / v_0 = 1
    ([[1, 0], [0, 2], [1, 4]], [[0.5, 0.5], [0.5, 0.5]]),
])
def test_task1_designs_one_channel_where_ulps_could_pick_it(cells, kernel):
    joint = np.array(cells, dtype=float)
    world = World(("s0", "s1", "s2"), ("x0", "x1"), joint / joint.sum(), default_adjacency(joint))
    mechs = [MechanismKernel("k0", ("0", "1"), np.array(kernel))] * 3
    _assert_task1_routes_match(world, mechs, [], dense_laws(world, mechs)[0], dense_mechanism(world, mechs))


def test_an_inf_mass_an_ulp_apart_reads_inf_on_both_routes():
    # pair (0, 1)'s +inf mass is one ulp larger on the type-class law than
    # on the dense joint; at delta = the smaller mass both read +inf
    joint = np.array([[5 / 13, 3 / 13], [0.0, 5 / 13]])
    world = World(("s0", "s1"), ("x0", "x1"), joint, default_adjacency(joint))
    mechs = [MechanismKernel("k", ("0", "1"), np.array([[5 / 7, 2 / 7], [0.0, 1.0]]))] * 2
    dense = dense_laws(world, mechs)[0]
    lumped = comp.Composition.of(world, mechs).lumped.pair(0, 1).profile.inf_mass
    delta = Law(dense).pair(0, 1).profile.inf_mass
    assert lumped == math.nextafter(delta, 1.0)
    assert comp.true_opt(world, mechs, [], delta) == worst_pair(world, dense, delta=delta).value == math.inf


def _mixing_world():
    joint = np.array([[0.3, 0.15, 0.05], [0.05, 0.15, 0.3]])
    return World(("s0", "s1"), ("x0", "x1", "x2"), joint, default_adjacency(joint))


def _kernel(name, n, seed):
    return MechanismKernel(name, tuple(map(str, range(n))), np.random.default_rng(seed).dirichlet(np.ones(n), 3))


def test_six_copies_of_one_kernel_read_one_atom_per_multiset():
    mech = _kernel("m", 7, 1)
    value = comp.Composition(_mixing_world(), (mech,) * 6)
    assert value.sizes == {"outcomes": 7**6, "atoms": 924, "classes": [((0, 1, 2, 3, 4, 5), 924)]}
    assert value.lumped.matrix.shape == (2, 924)
    # the outcomes per atom are the multinomial coefficients of the types
    counts = np.bincount(value.index)
    assert np.array_equal(counts, value.classes[0].counts) and int(counts.sum()) == 7**6
    # a type's mass is its count times the probability of any one of its outcomes
    index = atom_index(value.classes)
    per_outcome = value.lumped.matrix[:, index] / counts[index]
    assert np.array_equal(value.joint.matrix, per_outcome)
    assert np.allclose(per_outcome, dense_laws(value.world, value.mechs)[0], rtol=1e-13, atol=0.0)
    assert np.array_equal(np.bincount(index, minlength=924), counts)


def test_classes_follow_first_members_and_leave_grouped_mechanisms_alone():
    a, b, c = _kernel("a", 2, 2), _kernel("b", 3, 3), _kernel("c", 2, 4)
    twin = MechanismKernel("a2", a.outputs, a.kernel.copy())  # equal bytes, another object
    mechs = (b, a, c, twin, a, b)
    group = DependenceGroup((5, 2), np.array([np.outer(c.kernel[x], b.kernel[x]).ravel() for x in range(3)]))
    value = comp.Composition(_mixing_world(), mechs, (group,))
    # b at 0 and 5 does not merge: 5 is grouped; a, twin, a do
    assert value.sizes["classes"] == [((0,), 3), ((1, 3, 4), 4), ((2,), 2), ((5,), 3)]
    assert value.sizes["outcomes"] == 3 * 2 * 2 * 2 * 2 * 3
    assert value.sizes["atoms"] == 3 * 4 * 2 * 3
    assert np.bincount(value.index).sum() == value.sizes["outcomes"]


def test_without_repeats_the_dense_laws_are_read():
    mechs = (_kernel("a", 3, 5), _kernel("b", 3, 6), _kernel("c", 2, 7))
    value = comp.Composition(_mixing_world(), mechs)
    assert value.lumped is value.joint
    assert value.lumped_product.matrix.tobytes() == dense_laws(value.world, mechs)[1].tobytes()
    assert value.sizes["atoms"] == value.sizes["outcomes"] == 18
    pi = np.arange(36.0).reshape(18, 2)
    assert value.per_outcome(pi) is pi


def test_the_cap_counts_atoms_and_refuses_the_per_outcome_spreads(monkeypatch):
    # 4 copies of a 4-output kernel: 35 atoms, 256 outcomes
    world, mechs = _mixing_world(), [_kernel("m", 4, 8)] * 4
    joint, product = dense_laws(world, mechs)
    deltas, eps_sum = (0.0, 0.02), 1.5
    problem = ic.IcProblem(world=world, mechs=mechs, tau_g=2.0)  # 35 x 2 atom cells, 256 x 2 outcome cells
    want = {"true": [worst_pair(world, joint, delta=d).value for d in deltas],
            "under": [worst_pair(world, product, delta=d).value for d in deltas],
            "over": [comp.overline_opt(world, mechs, [], d) for d in deltas],
            "check": worst_pair(world, joint, eps=eps_sum).value,
            "ic": [solve(problem) for solve in (ic.solve_task1, ic.solve_task2)]}
    monkeypatch.setattr(comp, "_SLOT", [None])
    monkeypatch.setattr(config, "OUTCOME_CAP", 100)
    value = comp.Composition.of(world, mechs)
    assert value.sizes["atoms"] == 35 and value.sizes["outcomes"] == 256
    got = {"true": [comp.true_opt(world, mechs, [], d) for d in deltas],
           "under": [comp.underline_opt(world, mechs, d) for d in deltas],
           "over": [comp.overline_opt(world, mechs, [], d) for d in deltas],
           "check": value.lumped.check(world, eps_sum, 0.05).worst_delta}
    for key in ("true", "under", "over"):
        assert all(close(g, w) for g, w in zip(got[key], want[key])), key
    assert close(got["check"], want["check"])
    # both IC tasks answer on the atoms as under the default cap; their pi
    # cannot be spread to the outcomes
    for solve, sol in zip((ic.solve_task1, ic.solve_task2), want["ic"]):
        got = solve(problem)
        assert got.pi.tobytes() == sol.pi.tobytes() and len(got.pi) == 35 * got.alpha.shape[1]
        assert (got.tau_g, got.certified, got.diagnostics["live_outcomes"]) == (
            sol.tau_g, sol.certified, sol.diagnostics["live_outcomes"])
        with pytest.raises(ValueError, match="256 outcomes x .* exceeds cap 100"):
            value.per_outcome(got.pi)
    for call in (lambda: value.joint, lambda: comp.composed_joint(world, mechs),
                 lambda: ic.solve_task1(dataclasses.replace(problem, alpha_size=3))):  # 35 x 3 atom cells
        with pytest.raises(ValueError, match="cap"):
            call()


def test_twenty_copies_answer_on_their_atoms_under_the_default_cap():
    # 7^20 outcomes, C(26, 6) = 230 230 atoms
    world, mechs = _mixing_world(), [_kernel("m", 7, 9)] * 20
    value = comp.Composition.of(world, mechs)
    assert value.sizes["atoms"] == math.comb(26, 6) < config.OUTCOME_CAP < value.sizes["outcomes"] == 7**20
    true = comp.true_opt(world, mechs, [], 0.02, per_pair=True)[1]
    over = comp.overline_opt(world, mechs, [], 0.02, per_pair=True)[1]
    report = comp.composition_report(world, mechs, [], [0.02], [1.0])
    for s0, s1, _, under, tight, conservative in report.opt_rows:
        assert tight == true[(s0, s1)] and conservative == over[(s0, s1)] and math.isfinite(under)
    assert pld_from_pair(value.lumped.pair(0, 1)).epsilon(0.02) == true[(0, 1)]
    # both IC tasks answer with a pi row per (atom, symbol), and count the
    # live outcomes exactly past 2^53; neither the joint nor pi spread fits
    task2 = ic.solve_task2(ic.IcProblem(world=world, mechs=mechs, delta_g=0.02))
    task1 = ic.solve_task1(ic.IcProblem(world=world, mechs=mechs, delta_g=0.02, tau_g=task2.tau_g))
    assert task2.pi.shape == (math.comb(26, 6), 2) and task2.diagnostics["live_outcomes"] == 7**20
    assert task1.pi.shape == (math.comb(26, 6) * 2, 2) and task1.certified
    assert task1.diagnostics["live_outcomes"] == 7**20 * int((task1.alpha > 0.0).any(axis=0).sum())
    for call in (lambda: comp.composed_joint(world, mechs), lambda: value.per_outcome(task2.pi),
                 lambda: value.per_outcome(task1.pi)):
        with pytest.raises(ValueError, match="cap"):
            call()
    # 3^40 outcomes on 861 atoms: an int64 sum of the counts would wrap
    forty = [_kernel("t", 3, 10)] * 40
    assert ic.solve_task2(ic.IcProblem(world=world, mechs=forty)).diagnostics["live_outcomes"] == 3**40 > 2**63


def test_task1_and_certify_read_the_lumped_law_and_build_no_joint(monkeypatch):
    model = load_model(pathlib.Path(__file__).parent / "data" / "repeated_kernel.json")
    world, mechs = model.world, list(model.mechanisms)
    alpha = ic.solve_task1(ic.IcProblem(world=world, mechs=mechs, tau_g=2.0)).alpha
    for call in (lambda: ic.solve_task1(ic.IcProblem(world=world, mechs=mechs, tau_g=2.0, delta_g=0.02)),
                 lambda: ic.certify(world, mechs, [], alpha, 2.0, 0.0),
                 lambda: ic.certify(world, mechs, [], None, 2.0, 0.02)):
        monkeypatch.setattr(comp, "_SLOT", [None])
        call()
        value = comp._SLOT[0][1]
        assert value.repeats and "lumped" in value.__dict__ and "joint" not in value.__dict__


def test_decomposition_reads_the_atoms_and_builds_no_joint(monkeypatch):
    model = load_model(pathlib.Path(__file__).parent / "data" / "repeated_kernel.json")
    world, mechs = model.world, list(model.mechanisms)
    monkeypatch.setattr(comp, "_SLOT", [None])
    for pair in sorted(world.adjacency):
        dec = comp.decompose_plrv(world, mechs, [], *pair)
        assert dec.total.shape == (comp._SLOT[0][1].sizes["outcomes"],)
    value = comp._SLOT[0][1]
    assert value.repeats and "log_terms" in value.__dict__ and "joint" not in value.__dict__
