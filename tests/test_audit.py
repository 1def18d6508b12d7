import math

import numpy as np
import pytest

from conftest import random_dist_pair
from dcpkit.audit import compare_protocol, lr_attack_roc, roc_bound_check, worst_pair_roc
from dcpkit.composition import composed_joint
from dcpkit.divergence import DistPair, Law, check_dcp, optimal_epsilon, worst_pair
from dcpkit.model import MechanismKernel, World, default_adjacency, effective_kernel

RR = DistPair(np.array([0.75, 0.25]), np.array([0.25, 0.75]))


def test_roc_diagonal_for_identical():
    roc = lr_attack_roc(DistPair(np.array([0.3, 0.7]), np.array([0.3, 0.7])))
    assert roc.auc == pytest.approx(0.5, abs=1e-15)


def test_roc_disjoint_supports():
    roc = lr_attack_roc(DistPair(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert roc.auc == pytest.approx(1.0, abs=1e-15)


def test_roc_rr_vertices_and_auc():
    roc = lr_attack_roc(RR)
    assert np.allclose(roc.fpr, [0.0, 0.25, 1.0])
    assert np.allclose(roc.tpr, [0.0, 0.75, 1.0])
    # oracle: trapezoid area
    area = 0.25 * 0.75 / 2 + 0.75 * (0.75 + 1.0) / 2
    assert roc.auc == pytest.approx(area, abs=1e-12)
    assert roc.auc == pytest.approx(0.75, abs=1e-12)


def test_roc_endpoints_and_concavity():
    rng = np.random.default_rng(51)
    for _ in range(60):
        p, q = random_dist_pair(rng)
        roc = lr_attack_roc(DistPair(p, q))
        assert roc.fpr[0] == 0.0 and roc.tpr[-1] == 1.0
        assert roc.fpr[-1] == 1.0
        assert roc.auc >= 0.5 - 1e-12
        slopes = np.diff(roc.tpr) / np.diff(roc.fpr)
        assert np.all(np.diff(slopes) <= 1e-9)  # concave upper envelope
        area = float(np.trapezoid(roc.tpr, roc.fpr))
        assert roc.auc == pytest.approx(area, abs=1e-12)


def test_roc_dominates_random_threshold_rules():
    rng = np.random.default_rng(52)
    for _ in range(5):
        p, q = random_dist_pair(rng, max_outcomes=10)
        pair = DistPair(p, q)
        roc = lr_attack_roc(pair)
        for _ in range(100):
            accept = rng.random(pair.p.size) < rng.random()
            fpr = float(pair.q[accept].sum())
            tpr = float(pair.p[accept].sum())
            if tpr < fpr:
                fpr, tpr = 1.0 - fpr, 1.0 - tpr  # inverted decision
            assert tpr <= roc.tpr_at(fpr) + 1e-12


def test_roc_invariant_under_relabeling():
    rng = np.random.default_rng(53)
    p, q = random_dist_pair(rng, max_outcomes=12)
    perm = rng.permutation(p.size)
    a = lr_attack_roc(DistPair(p, q))
    b = lr_attack_roc(DistPair(p[perm], q[perm]))
    assert a.auc == pytest.approx(b.auc, abs=1e-12)
    assert np.allclose(a.fpr, b.fpr) and np.allclose(a.tpr, b.tpr)


def test_roc_bound_check_diagonal():
    roc = lr_attack_roc(DistPair(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    assert roc_bound_check(roc, 0.0, 0.0) <= 1e-12
    assert roc_bound_check(roc, 1.0, 0.1) < 0


def test_roc_bound_check_rr_exact():
    roc = lr_attack_roc(RR)
    # tight certificate: violation exactly zero at the interior vertex
    assert roc_bound_check(roc, math.log(3), 0.0) == pytest.approx(0.0, abs=1e-12)
    # undersized certificate: positive violation of known size
    v = roc_bound_check(roc, 0.5, 0.0)
    assert v == pytest.approx(0.75 - math.exp(0.5) * 0.25, abs=1e-12)


def test_roc_bound_sound_for_certified_pairs():
    # certificates hold in both orientations (adjacency is symmetric), so
    # take the max of the two tight epsilons before checking the region
    rng = np.random.default_rng(54)
    for _ in range(40):
        p, q = random_dist_pair(rng)
        pair = DistPair(p, q)
        delta = float(rng.uniform(0.01, 0.3))
        eps = max(optimal_epsilon(pair, delta), optimal_epsilon(DistPair(pair.q, pair.p), delta))
        if math.isinf(eps):
            continue
        roc = lr_attack_roc(pair)
        assert roc_bound_check(roc, eps, delta) <= 1e-9


def test_worst_pair_roc_picks_max(mixing_world_2x2, rr_mechanism):
    eff = effective_kernel(mixing_world_2x2, rr_mechanism)
    roc, pair = worst_pair_roc(mixing_world_2x2, eff.matrix)
    assert pair in mixing_world_2x2.adjacency
    assert roc.auc >= 0.5


def test_worst_pair_roc_names_the_first_orientation_of_each_pair():
    # (s0, s1) and (s1, s0) have equal AUCs in exact arithmetic; on repeated
    # kernels the spread joint and the dense joint round them differently,
    # and both must still name (0, 1) and return that pair's ROC
    from dcpkit.model import composed_law

    rng = np.random.default_rng(16)
    for _ in range(8):
        joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
        world = World(("s0", "s1"), ("x0", "x1", "x2"), joint, default_adjacency(joint))
        kernel = 0.6 * rng.dirichlet(np.ones(5), size=3) + 0.4 / 5
        mechs = [MechanismKernel("m", tuple("abcde"), kernel)] * 4
        for law in (composed_joint(world, mechs, []), Law(composed_law(world, mechs))):
            roc, pair = worst_pair_roc(world, law)
            want = lr_attack_roc(law.pair(0, 1))
            assert pair == (0, 1)
            assert roc.fpr.tobytes() == want.fpr.tobytes() and roc.tpr.tobytes() == want.tpr.tobytes()


def test_compare_protocol_uninformative(uniform_world, noise_mechanism):
    law = effective_kernel(uniform_world, noise_mechanism).matrix
    rows = compare_protocol(uniform_world, law, law, [(1.0, 0.1)])
    assert rows[0]["auc_composed"] == pytest.approx(0.5)
    assert rows[0]["gap"] == pytest.approx(0.0)


def test_compare_protocol_returns_uncertified_rows(invertible_world, rr_mechanism):
    # the uncertified row comes back with its delta, for the caller to judge
    law = effective_kernel(invertible_world, rr_mechanism).matrix
    (row,) = compare_protocol(invertible_world, law, law, [(0.2, 0.0)])
    delta = worst_pair(invertible_world, law, eps=0.2).value
    assert delta > 0.0
    assert row["delta_composed"] == row["delta_single"] == delta


def test_compare_protocol_large_budget_approaches_bayes(mixing_world_2x2):
    # at eps large both setups may reveal the full data channel, so both
    # AUCs approach the world's own distinguishability
    ident = MechanismKernel("id", ("0", "1"), np.eye(2))
    law_single = effective_kernel(mixing_world_2x2, ident).matrix
    law_comp = composed_joint(mixing_world_2x2, [ident, ident], []).matrix
    rows = compare_protocol(mixing_world_2x2, law_comp, law_single, [(5.0, 0.02)])
    bayes = lr_attack_roc(DistPair(np.array([0.9, 0.1]), np.array([0.1, 0.9]))).auc
    assert rows[0]["auc_single"] == pytest.approx(bayes, abs=1e-12)
    assert rows[0]["auc_composed"] == pytest.approx(bayes, abs=1e-12)
    assert abs(rows[0]["gap"]) <= 1e-12


def test_compare_protocol_sweeps_each_law_once(monkeypatch, mixing_world_2x2, rr_mechanism):
    from dcpkit import audit

    calls = []

    def counted(pair):
        calls.append(pair)
        return lr_attack_roc(pair)

    monkeypatch.setattr(audit, "lr_attack_roc", counted)
    law_single = effective_kernel(mixing_world_2x2, rr_mechanism).matrix
    law_comp = composed_joint(mixing_world_2x2, [rr_mechanism, rr_mechanism], []).matrix
    rows = compare_protocol(mixing_world_2x2, law_comp, law_single, [(0.5, 0.1), (1.0, 0.2)])
    assert len(calls) == 2 * (len(mixing_world_2x2.adjacency) // 2)   # two laws, one sweep per unordered pair
    assert [(r["eps_g"], r["delta_g"]) for r in rows] == [(0.5, 0.1), (1.0, 0.2)]
    for r in rows:
        assert r["delta_composed"] == worst_pair(mixing_world_2x2, law_comp, eps=r["eps_g"]).value
        assert r["delta_single"] == worst_pair(mixing_world_2x2, law_single, eps=r["eps_g"]).value
        assert r["auc_composed"] == worst_pair_roc(mixing_world_2x2, law_comp)[0].auc


def test_compare_protocol_takes_the_laws_callers_hold(monkeypatch, mixing_world_2x2, rr_mechanism):
    # ``dcp audit`` and the experiments pass a composed joint's and an effective kernel's Law
    law_single = effective_kernel(mixing_world_2x2, rr_mechanism)
    law_comp = composed_joint(mixing_world_2x2, [rr_mechanism, rr_mechanism], [])
    grid = [(0.5, 0.1), (1.0, 0.2)]
    copies = (law_comp.matrix.copy(), law_single.matrix.copy())  # writeable: checked anew
    from_arrays = compare_protocol(mixing_world_2x2, *copies, grid)
    built, init = [], Law.__post_init__
    monkeypatch.setattr(Law, "__post_init__", lambda self: built.append(self) or init(self))
    from_laws = compare_protocol(mixing_world_2x2, law_comp, law_single, grid)
    assert built == []

    def flat(rows):
        return [{k: (v.fpr.tobytes(), v.tpr.tobytes(), v.auc, v.flipped) if k.startswith("roc_") else v
                 for k, v in row.items()} for row in rows]

    assert flat(from_laws) == flat(from_arrays)


def test_compare_protocol_on_an_empty_adjacency(rr_mechanism):
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    world = World(("s0", "s1"), ("x0", "x1"), joint, frozenset())
    law = effective_kernel(world, rr_mechanism).matrix
    with pytest.raises(ValueError, match="no adjacent pairs to audit"):
        compare_protocol(world, law, law, [(1.0, 0.1)])


def test_a_read_only_law_is_found_again_and_a_writeable_one_never(mixing_world_2x2, rr_mechanism):
    cj = composed_joint(mixing_world_2x2, [rr_mechanism, rr_mechanism], [])
    assert Law.of(cj.matrix) is cj
    copy = cj.matrix.copy()
    first = Law.of(copy)
    assert Law.of(copy) is not first and Law.of(copy) is not cj
    (roc_a, pair_a), (roc_b, pair_b) = (worst_pair_roc(mixing_world_2x2, m) for m in (cj.matrix, copy))
    assert pair_a == pair_b and roc_a.auc == roc_b.auc and roc_a.flipped == roc_b.flipped
    assert roc_a.fpr.tobytes() == roc_b.fpr.tobytes() and roc_a.tpr.tobytes() == roc_b.tpr.tobytes()
