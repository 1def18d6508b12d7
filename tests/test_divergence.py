import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bisection import full_bisection
from conftest import random_dist_pair
from dense_route import close_arrays, close_curves
from dcpkit.audit import lr_attack_roc
from dcpkit.composition import composed_joint
from dcpkit.divergence import (
    _ITP_N0,
    DistPair,
    Law,
    LossProfile,
    check_dcp,
    hockey_stick,
    monotone_root,
    monotone_roots,
    optimal_epsilon,
    tradeoff_curve,
    worst_pair,
)
from dcpkit.model import MechanismKernel, World, default_adjacency, join_per_secret
from dcpkit.synth import mixing_world

RR = DistPair(np.array([0.75, 0.25]), np.array([0.25, 0.75]))


def brute_force_hockey_stick(p, q, eps):
    # oracle: explicit sup over all subsets
    n = len(p)
    best = 0.0
    for mask in range(1 << n):
        pw = sum(p[i] for i in range(n) if mask >> i & 1)
        qw = sum(q[i] for i in range(n) if mask >> i & 1)
        best = max(best, pw - math.exp(eps) * qw)
    return best


def test_hockey_stick_identical():
    pair = DistPair(np.array([0.3, 0.7]), np.array([0.3, 0.7]))
    assert hockey_stick(pair, 0.0) == 0.0
    assert hockey_stick(pair, 2.0) == 0.0


def test_hockey_stick_disjoint():
    pair = DistPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert hockey_stick(pair, 5.0) == 1.0


def test_hockey_stick_rr_at_ln3():
    # oracle: per-outcome sum max(p - 3q, 0) = max(0.75-0.75,0) + 0
    assert hockey_stick(RR, math.log(3)) == pytest.approx(0.0, abs=1e-15)


def test_hockey_stick_matches_subset_sup():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p, q = random_dist_pair(rng, max_outcomes=8)
        eps = rng.uniform(0, 2)
        pair = DistPair(p, q)
        assert hockey_stick(pair, eps) == pytest.approx(
            brute_force_hockey_stick(p, q, eps), abs=1e-12
        )


def test_hockey_stick_monotone_and_tv():
    rng = np.random.default_rng(12)
    for _ in range(40):
        p, q = random_dist_pair(rng)
        pair = DistPair(p, q)
        vals = [hockey_stick(pair, e) for e in (0.0, 0.5, 1.0, 2.0)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        tv = 0.5 * np.abs(pair.p - pair.q).sum()
        assert abs(hockey_stick(pair, 0.0) - tv) <= 1e-12


def test_optimal_epsilon_zero_when_delta_covers_tv():
    assert optimal_epsilon(RR, 0.5) == 0.0
    assert optimal_epsilon(RR, 0.7) == 0.0


def test_optimal_epsilon_rr_delta_zero():
    assert optimal_epsilon(RR, 0.0) == pytest.approx(math.log(3), abs=1e-12)


def test_optimal_epsilon_unachievable_atom():
    pair = DistPair(np.array([0.1, 0.9, 0.0]), np.array([0.0, 0.5, 0.5]))
    assert optimal_epsilon(pair, 0.05) == math.inf
    # at the +inf mass and up to 4 ulps past it the answer stays +inf
    assert optimal_epsilon(pair, 0.1) == optimal_epsilon(pair, 0.1 + 4 * math.ulp(0.1)) == math.inf
    assert math.isfinite(optimal_epsilon(pair, 0.1 + 5 * math.ulp(0.1)))


def test_optimal_epsilon_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(200):
        p, q = random_dist_pair(rng)
        pair = DistPair(p, q)
        delta = float(rng.uniform(0, 0.5))
        eps = optimal_epsilon(pair, delta)
        if math.isinf(eps):
            inf_mass = pair.p[pair.q == 0].sum()
            assert inf_mass > delta
            continue
        assert hockey_stick(pair, eps) <= delta + 1e-12
        if eps > 0:
            assert hockey_stick(pair, eps - 1e-9) > delta


def test_optimal_epsilon_rejects_bad_delta():
    with pytest.raises(ValueError):
        optimal_epsilon(RR, 1.5)


def test_optimal_epsilon_at_breakpoint_values():
    # delta exactly equal to the profile at a breakpoint: the solve lands
    # on the breakpoint itself
    pair = DistPair(np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.3, 0.6]))
    losses = np.log(pair.p / pair.q)
    top = float(losses.max())
    delta_at_top = hockey_stick(pair, top)
    assert optimal_epsilon(pair, delta_at_top) == pytest.approx(top, abs=1e-12)


def test_optimal_epsilon_duplicate_losses_merge():
    # two outcomes with identical ratios behave as one atom
    pair = DistPair(np.array([0.3, 0.3, 0.4]), np.array([0.1, 0.1, 0.8]))
    merged = DistPair(np.array([0.6, 0.4]), np.array([0.2, 0.8]))
    for delta in (0.0, 0.05, 0.2):
        assert optimal_epsilon(pair, delta) == pytest.approx(
            optimal_epsilon(merged, delta), abs=1e-12
        )


def test_optimal_epsilon_inf_mass_exactly_delta():
    # the unabsorbable atom exactly equals delta: one ulp of that mass would
    # decide between +inf and a finite epsilon, so the answer is +inf; just
    # past the 4-ulp window the remaining atoms force a finite epsilon at the
    # largest finite loss
    pair = DistPair(np.array([0.1, 0.6, 0.3]), np.array([0.0, 0.3, 0.7]))
    assert optimal_epsilon(pair, 0.1) == math.inf
    delta = 0.1 + 5 * math.ulp(0.1)
    eps = optimal_epsilon(pair, delta)
    assert eps == pytest.approx(math.log(0.6 / 0.3), abs=1e-12)
    assert hockey_stick(pair, eps) <= delta + 1e-15


def test_check_dcp(invertible_world, rr_mechanism):
    ident = MechanismKernel("id", ("0", "1"), np.eye(2))
    rep = check_dcp(invertible_world, ident, 0.0, 1.0)
    assert rep.holds  # delta = 1 always holds

    rep = check_dcp(invertible_world, rr_mechanism, math.log(3), 0.0)
    assert rep.holds and rep.worst_delta <= 1e-15

    rep = check_dcp(invertible_world, rr_mechanism, 1.0, 0.0)
    assert not rep.holds
    # oracle: hockey stick of the RR pair at eps=1
    assert rep.worst_delta == pytest.approx(0.75 - math.e * 0.25, abs=1e-12)


def test_check_dcp_empty_adjacency(rr_mechanism):
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    world = World(("a", "b"), ("x", "y"), joint, frozenset())
    with pytest.raises(ValueError, match="nothing to certify"):
        check_dcp(world, rr_mechanism, 1.0, 0.1)


def test_tradeoff_curve_diagonal():
    pair = DistPair(np.array([0.4, 0.6]), np.array([0.4, 0.6]))
    curve = tradeoff_curve(pair)
    assert np.allclose(curve.alphas, [0.0, 1.0])
    assert np.allclose(curve.betas, [1.0, 0.0])
    assert curve.beta(0.3) == pytest.approx(0.7)


def test_tradeoff_curve_disjoint():
    pair = DistPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    curve = tradeoff_curve(pair)
    assert curve.beta(0.5) == 0.0
    assert curve.beta(1e-9) <= 1.0 - 1e-9 + 1e-12


def test_tradeoff_curve_rr_vertices():
    curve = tradeoff_curve(RR)
    assert np.allclose(curve.alphas, [0.0, 0.25, 1.0])
    assert np.allclose(curve.betas, [1.0, 0.25, 0.0])


def test_tradeoff_curve_convex_below_diagonal():
    rng = np.random.default_rng(14)
    for _ in range(60):
        p, q = random_dist_pair(rng)
        curve = tradeoff_curve(DistPair(p, q))
        assert np.all(curve.betas <= 1.0 - curve.alphas + 1e-12)
        slopes = np.diff(curve.betas) / np.diff(curve.alphas)
        assert np.all(np.diff(slopes) >= -1e-9)  # convex
        assert curve.alphas[0] == 0.0 and curve.alphas[-1] == 1.0
        assert np.all(np.diff(curve.alphas) > 0)
        assert np.all(np.diff(curve.betas) <= 1e-15)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_dist_pair_rejects_non_finite(value):
    with pytest.raises(ValueError, match="non-finite"):
        DistPair(np.array([value, 0.5]), np.array([0.5, 0.5]))


# ------------------------------------------------- likelihood-ratio sweep


def tie_heavy_pairs():
    """Composed joints of one mechanism repeated 2-6 times, in a mixing and
    an invertible world; zeros in the kernel leave outcomes with mass on one
    side only."""
    kernel = np.array([[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [0.3, 0.3, 0.4], [0.2, 0.0, 0.8]])
    mech = MechanismKernel("z", ("0", "1", "2"), kernel)
    one_hot = np.array([[0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5]])
    worlds = [mixing_world(0.3), World(("s0", "s1"), tuple("abcd"), one_hot, default_adjacency(one_hot))]
    for world in worlds:
        for copies in range(2, 7):
            cj = composed_joint(world, [mech] * copies)
            yield cj.pair(0, 1)
            yield cj.pair(1, 0)


def mann_whitney_auc(pair):
    """P(score under p > score under q) + P(tie) / 2, score = p/q."""
    with np.errstate(divide="ignore"):
        score = np.where(pair.q > 0, pair.p / np.where(pair.q > 0, pair.q, 1.0), np.inf)
    values, group = np.unique(score, return_inverse=True)
    p_mass = np.bincount(group, weights=pair.p, minlength=values.size)
    q_mass = np.bincount(group, weights=pair.q, minlength=values.size)
    q_below = np.concatenate([[0.0], np.cumsum(q_mass)[:-1]])
    return float((p_mass * (q_below + 0.5 * q_mass)).sum())


def test_sweep_on_tied_and_one_sided_outcomes():
    pairs = list(tie_heavy_pairs())
    assert any(np.any(pr.p == 0.0) and np.any(pr.q == 0.0) for pr in pairs)
    for pair in pairs:
        curve = tradeoff_curve(pair)
        assert np.all(np.diff(curve.alphas) > 0)
        for eps in (0.0, 0.3, 1.0, 2.5):
            # delta(eps) of the best test: reject the complement of a level set
            delta = float((1.0 - curve.alphas - math.exp(eps) * curve.betas).max())
            assert delta == pytest.approx(hockey_stick(pair, eps), abs=1e-12)

        roc = lr_attack_roc(pair)
        mw = mann_whitney_auc(pair)
        assert roc.flipped == (mw < 0.5)
        assert roc.auc == pytest.approx(1.0 - mw if roc.flipped else mw, abs=1e-12)
        if not roc.flipped:
            swapped = tradeoff_curve(DistPair(pair.q, pair.p))
            for fpr in (roc.fpr, swapped.alphas):
                assert np.allclose(roc.tpr_at(fpr), 1.0 - swapped.beta(fpr), rtol=0, atol=1e-12)


def loss_key(a, b):
    """The sort key of a sweep: the loss log a - log b, ascending."""
    with np.errstate(divide="ignore"):
        return np.log(a) - np.log(b)


def ratio_key(a, b):
    """The sort key the sweep had before it shared the loss order: b/a,
    descending, with +inf where a = 0."""
    with np.errstate(divide="ignore"):
        return -np.where(a > 0.0, b / np.where(a > 0.0, a, 1.0), np.inf)


def loop_sweep(a, b, b_from, key=loss_key):
    """The per-outcome loop the vectorized sweep replaced, kept as its
    reference: outcomes in ascending ``key``, equal keys one group."""
    keys = key(a, b)
    order = np.argsort(keys, kind="stable")
    a, b, keys = a[order], b[order], keys[order]
    a_run, b_run = [0.0], [b_from]
    acc_a, acc_b, i = 0.0, b_from, 0
    while i < a.size:
        j = i
        while j < a.size and keys[j] == keys[i]:
            j += 1
        acc_a += float(a[i:j].sum())
        acc_b += float(b[i:j].sum()) * (1.0 if b_from == 0.0 else -1.0)
        if acc_a > a_run[-1]:
            a_run.append(acc_a)
            b_run.append(max(acc_b, 0.0))
        else:
            b_run[-1] = max(acc_b, 0.0)
        i = j
    a_run[-1], b_run[-1] = 1.0, 1.0 - b_from
    return np.array(a_run), np.array(b_run)


def test_sweep_matches_reference_loop():
    rng = np.random.default_rng(15)
    pairs = list(tie_heavy_pairs())
    for _ in range(40):
        p, q = random_dist_pair(rng)
        dup = rng.integers(0, p.size, size=p.size)  # repeated outcomes tie exactly
        pairs.append(DistPair(np.concatenate([p, p[dup]]) / (1 + p[dup].sum()),
                              np.concatenate([q, q[dup]]) / (1 + q[dup].sum())))
    for pair in pairs:
        curve = tradeoff_curve(pair)
        alphas, betas = loop_sweep(pair.p, pair.q, 1.0)
        np.testing.assert_allclose(curve.alphas, alphas, rtol=0, atol=1e-15)
        np.testing.assert_allclose(curve.betas, betas, rtol=0, atol=1e-15)

        roc = lr_attack_roc(pair)
        fpr, tpr = loop_sweep(pair.q, pair.p, 0.0)
        if roc.flipped:
            fpr, tpr = 1.0 - tpr[::-1], 1.0 - fpr[::-1]
        np.testing.assert_allclose(roc.fpr, fpr, rtol=0, atol=1e-15)
        np.testing.assert_allclose(roc.tpr, tpr, rtol=0, atol=1e-15)


def stable_groups(a, b):
    """The losses log a - log b ascending, each with the a- and b-mass of
    its outcomes summed in outcome order, by one stable sort: the reference
    for the unstable sort plus the (group, outcome) key sort."""
    loss = loss_key(a, b)
    order = np.argsort(loss, kind="stable")
    loss = loss[order]
    starts = np.flatnonzero(np.concatenate(([True], loss[1:] != loss[:-1])))
    padded = starts + np.arange(starts.size)
    a_mass, b_mass = (np.add.reduceat(np.insert(v[order], starts, 0.0), padded) for v in (a, b))
    return loss[starts], a_mass, b_mass


def stable_sweep(a, b, b_from):
    """The sweep on the groups of ``stable_groups``."""
    _, a_steps, b_steps = stable_groups(a, b)
    a_run = np.concatenate(([0.0], np.cumsum(a_steps)))
    b_run = np.subtract.accumulate(np.concatenate(([b_from], b_steps if b_from else -b_steps)))
    vertex = np.concatenate(([True], a_run[1:] > a_run[:-1]))
    ends = np.append(np.flatnonzero(vertex)[1:] - 1, a_run.size - 1)
    a_run, b_run = a_run[vertex], np.maximum(b_run[ends], 0.0)
    a_run[-1], b_run[-1] = 1.0, 1.0 - b_from
    return a_run, b_run


def reference_optimal_epsilon(pair, delta):
    """``optimal_epsilon`` in one piece on the groups of ``stable_groups``;
    kept as the reference for the shared order and the split build and query."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    loss, p_mass, q_mass = stable_groups(pair.p, pair.q)
    p_from, q_from = (np.append(np.cumsum(v[::-1])[::-1], 0.0) for v in (p_mass, q_mass))
    inf_mass = float(p_mass[-1]) if loss[-1] == math.inf else 0.0
    first = int(np.searchsorted(loss, 0.0, side="right"))
    gaps = np.append(np.cumsum((p_mass[first:] - q_mass[first:])[::-1])[::-1], 0.0)
    if gaps[0] <= delta:
        return 0.0
    if inf_mass > delta:
        return math.inf
    end = loss.size - (loss[-1] == math.inf)
    delta_bp = p_from[first + 1:end + 1] - np.exp(loss[first:end]) * q_from[first + 1:end + 1]
    j = first + int(np.searchsorted(-delta_bp, -delta))
    gap, b = gaps[j - first] - delta, q_from[j]
    return float(max(math.log1p(gap / b) if gap < b else math.log((p_from[j] - delta) / b), 0.0))


def parent_optimal_epsilon(pair, delta):
    """``optimal_epsilon`` as it was before the shared order: positive
    losses merged by ``np.unique`` and a, b summed afresh per query, b as
    the sum of p e^-loss."""
    p, q = pair.p, pair.q
    inf_mass = float(p[(q == 0.0) & (p > 0.0)].sum())
    both = (p > 0.0) & (q > 0.0)
    losses = np.log(p[both]) - np.log(q[both])
    masses = p[both]
    pos = losses > 0.0
    losses, masses = losses[pos], masses[pos]
    delta0 = inf_mass + float((masses * (1.0 - np.exp(-losses))).sum())
    if delta0 <= delta:
        return 0.0
    if inf_mass > delta:
        return math.inf
    uniq, inverse = np.unique(losses, return_inverse=True)
    umass = np.zeros_like(uniq)
    np.add.at(umass, inverse, masses)
    strict_mass = np.concatenate([np.cumsum(umass[::-1])[::-1][1:], [0.0]])
    strict_b = np.concatenate([np.cumsum((umass * np.exp(-uniq))[::-1])[::-1][1:], [0.0]])
    delta_bp = inf_mass + strict_mass - strict_b * np.exp(uniq)
    j = int(np.searchsorted(-delta_bp, -delta))
    a = inf_mass + float(umass[j:].sum())
    b = float((umass[j:] * np.exp(-uniq[j:])).sum())
    return float(max(math.log((a - delta) / b), 0.0))


def oracle_pairs(rng):
    """Tie-heavy pairs: one kernel repeated 2-6 times, random pairs with
    duplicated outcomes, dead outcomes and one-sided (infinite-ratio) ones."""
    pairs = list(tie_heavy_pairs())
    for _ in range(40):
        p, q = random_dist_pair(rng)
        p[rng.random(p.size) < 0.2] = 0.0  # q-only outcomes, and dead ones where q is cut too
        q[rng.random(q.size) < 0.2] = 0.0  # p-only outcomes: infinite ratios
        if p.sum() == 0.0 or q.sum() == 0.0:
            continue
        p, q = p / p.sum(), q / q.sum()
        dup = rng.integers(0, p.size, size=2 * p.size)  # repeated outcomes tie exactly
        pairs.append(DistPair(np.concatenate([p, p[dup]]) / (1 + p[dup].sum()),
                              np.concatenate([q, q[dup]]) / (1 + q[dup].sum())))
    return pairs


def stable_roc(pair):
    """``lr_attack_roc``'s vertices on the stable-sort sweep."""
    fpr, tpr = stable_sweep(pair.q, pair.p, 0.0)
    if np.trapezoid(tpr, fpr) < 0.5:
        fpr, tpr = 1.0 - tpr[::-1], 1.0 - fpr[::-1]
    return fpr, tpr


def test_sweep_order_equals_the_stable_sort_bit_for_bit():
    rng = np.random.default_rng(16)
    rows = [(pr.p, pr.q) for pr in oracle_pairs(rng)]
    # signed zeros and dead outcomes, which a law clips and cuts
    a = np.array([0.2, -0.0, 0.0, 0.3, 0.0, 0.2, 0.3, 0.0])
    b = np.array([0.1, 0.25, -0.0, 0.15, 0.0, 0.1, 0.15, 0.25])
    rows += [(a, b), (np.abs(a), b)]
    rows.append((np.full(4, 0.25), np.array([-0.0, 0.5, 0.0, 0.5])))  # ratios -0.0 and 0.0 tie
    # tie-free rows, where every likelihood-ratio group is one outcome
    tie_free = [random_dist_pair(rng, max_outcomes=40) for _ in range(20)]
    tie_free += [(np.array([0.4, -0.0, 0.6]), np.array([0.3, 0.5, 0.2])),
                 (np.array([0.2, 0.5, 0.3]), np.array([0.5, -0.0, 0.5]))]
    for k, (x, y) in enumerate(rows + tie_free):
        law = Law(np.stack([x, y]))
        for s0, s1 in ((0, 1), (1, 0)):
            pair = law.pair(s0, s1)
            assert law.pair(s0, s1) is pair and pair.swapped() is law.pair(s1, s0)
            want_curve, want_roc = stable_sweep(pair.p, pair.q, 1.0), stable_roc(pair)
            for _ in range(2):  # the second call reads the pair's kept sort
                curve, roc = tradeoff_curve(law.pair(s0, s1)), lr_attack_roc(law.pair(s0, s1))
                for got, want in zip((curve.alphas, curve.betas, roc.fpr, roc.tpr), (*want_curve, *want_roc)):
                    assert got.tobytes() == want.tobytes()
            if k >= len(rows):
                assert pair.profile.p_mass.size == pair.p.size


def derandomized_laws():
    """Two-row laws of small integer weights, drawn from a fixed seed:
    tied losses, zeros on either side (losses -inf and +inf) and dead
    outcomes, with each zero's sign drawn."""
    rng = np.random.default_rng(21)
    for _ in range(300):
        w = rng.integers(0, 4, size=(2, int(rng.integers(1, 12)))).astype(float)
        w[:, 0] += w.sum(axis=1) == 0.0
        w /= w.sum(axis=1, keepdims=True)
        w[(w == 0.0) & (rng.random(w.shape) < 0.5)] = -0.0
        yield Law(w)


def close_vertices(got, want):
    """(agree, same vertices): equal vertex lists within 1e-12 relative;
    where the tie groups of the two sort keys differ (equal ratios b/a with
    losses an ulp apart, or the reverse), the lists differ by collinear
    vertices, and the curves agree within 1e-12 on the union of both lists."""
    if got[0].shape == want[0].shape and all(close_arrays(g, w) for g, w in zip(got, want)):
        return True, True
    return close_curves(got, want), False


def breakpoints(profile):
    """A profile's delta(0) and its profile at each finite positive loss."""
    _, gaps, drops = profile._breaks
    return float(gaps[0]), -drops


def test_the_shared_order_reads_as_the_parents_three_sorts():
    # trade-off vertices, ROC, AUC and tight epsilon off the one loss order
    # of each pair against the separate sorts they had before it, and the
    # joined delta against the direct route on the joined law
    rng = np.random.default_rng(22)
    pairs = [law.pair(s0, s1) for law in derandomized_laws() for s0, s1 in ((0, 1), (1, 0))]
    pairs += oracle_pairs(rng)
    seen = dict.fromkeys(("ties", "neg_inf", "pos_inf", "signed_zero", "split_groups"), 0)
    for pair in pairs:
        curve = tradeoff_curve(pair)
        same, equal_groups = close_vertices((curve.alphas, curve.betas),
                                            loop_sweep(pair.p, pair.q, 1.0, key=ratio_key))
        assert same
        seen["split_groups"] += not equal_groups

        roc = lr_attack_roc(pair)
        fpr, tpr = loop_sweep(pair.q, pair.p, 0.0, key=ratio_key)
        auc = float(np.trapezoid(tpr, fpr))
        if auc < 0.5:
            fpr, tpr = 1.0 - tpr[::-1], 1.0 - fpr[::-1]
            auc = float(np.trapezoid(tpr, fpr))
        assert abs(roc.auc - auc) <= 1e-12 * max(1.0, abs(auc))
        assert close_vertices((roc.fpr, roc.tpr), (fpr, tpr))[0]

        profile = pair.profile
        window = profile.inf_mass + 4.0 * math.ulp(profile.inf_mass) if profile.inf_mass > 0.0 else -1.0
        delta0, deltas = breakpoints(profile)
        for delta in (0.0, 1.0, delta0, math.nextafter(window, 2.0), *np.linspace(0.0, 1.0, 21), *deltas):
            delta = float(min(max(delta, 0.0), 1.0))
            got = profile.epsilon(delta)
            want = math.inf if delta <= window else parent_optimal_epsilon(pair, delta)
            assert got == want if math.isinf(want) else abs(got - want) <= 1e-12 * max(1.0, abs(want))

        with np.errstate(divide="ignore"):
            losses = np.log(pair.p) - np.log(pair.q)
        seen["ties"] += np.unique(losses).size < losses.size
        seen["neg_inf"] += bool((losses == -math.inf).any())
        seen["pos_inf"] += bool((losses == math.inf).any())
    for law in derandomized_laws():
        seen["signed_zero"] += bool(np.signbit(law.matrix).any())
        world = World(("s0", "s1"), ("x0",), np.full((2, 1), 0.5), frozenset({(0, 1), (1, 0)}))
        channel = rng.integers(0, 3, size=(2, int(rng.integers(1, 5)))).astype(float)
        channel[:, 0] += channel.sum(axis=1) == 0.0
        channel /= channel.sum(axis=1, keepdims=True)
        for eps in (0.0, 0.4, 1.3, 4.0):
            want = worst_pair(world, join_per_secret(law.matrix, channel), eps=eps).value
            got = law.worst_joined(world, channel, eps)
            assert abs(got - want) <= max(1e-12 * abs(want), 1e-15)
    assert min(seen.values()) >= 10, seen


def test_a_law_and_its_pairs_die_together():
    law = Law(np.array([[0.5, 0.3, 0.2, 0.0], [0.2, 0.3, 0.4, 0.1]]))
    pair = law.pair(0, 1)
    tradeoff_curve(pair)
    lr_attack_roc(pair)
    assert pair.swapped() is law.pair(1, 0) and pair.swapped().swapped() is pair
    profiles = (pair.profile, pair.swapped().profile)
    kept = [weakref.ref(obj) for obj in (law, pair, pair.swapped(), *profiles,
                                          *(v for pr in profiles for v in (pr.losses, pr.p_mass, pr.q_mass)))]
    del profiles
    del pair
    gc.disable()  # reference counting alone must free them: no cycle
    try:
        del law
        assert [ref() for ref in kept] == [None] * len(kept)
    finally:
        gc.enable()


def test_a_law_hands_out_views_of_live_rows_and_cuts_dead_ones():
    live = Law(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]))
    pair = live.pair(0, 1)
    assert np.shares_memory(pair.p, live.matrix) and np.shares_memory(pair.q, live.matrix)
    assert not (pair.p.flags.writeable or pair.q.flags.writeable)
    assert live.matrix.flags.writeable  # the views are read-only, not the law's matrix
    dead = Law(np.array([[0.5, 0.3, 0.0, 0.2], [0.2, 0.3, 0.0, 0.5]]))
    pair = dead.pair(1, 0)
    assert not (np.shares_memory(pair.p, dead.matrix) or np.shares_memory(pair.q, dead.matrix))
    assert pair.p.tolist() == [0.2, 0.3, 0.5] and pair.q.tolist() == [0.5, 0.3, 0.2]
    assert not (pair.p.flags.writeable or pair.q.flags.writeable)


def test_hockey_stick_is_the_one_expression_bit_for_bit():
    # the in-place (p - e^eps q)+ sums what the expression sums, zeros and
    # subnormals included
    rng = np.random.default_rng(23)
    for k in range(300):
        n = int(rng.integers(1, 60))
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n) * rng.choice([0.05, 1.0]))
        for v in (p, q):
            v[rng.random(n) < 0.2] = 0.0
            v[rng.random(n) < 0.1] = 5e-324 * rng.integers(1, 2**20)
        if p.sum() == 0.0 or q.sum() == 0.0:
            continue
        pair = DistPair(p / p.sum(), q / q.sum())
        for eps in (0.0, 1e-9, 0.3, 2.0, 40.0, 709.0):
            want = float(np.maximum(pair.p - math.exp(eps) * pair.q, 0.0).sum())
            assert hockey_stick(pair, eps).hex() == want.hex(), (k, eps)
        for eps in (709.79, 740.0, 800.0):  # e^eps past the float range: the log domain
            with np.errstate(divide="ignore", over="ignore"):
                want = float(np.maximum(pair.p - np.exp(eps + np.log(pair.q)), 0.0).sum())
            assert hockey_stick(pair, eps).hex() == want.hex(), (k, eps)


def test_a_pair_of_its_own_keeps_its_sort_and_its_twin():
    pair = DistPair(np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]))
    assert pair.swapped() is pair.swapped() and pair.swapped().swapped() is pair
    assert pair.profile is pair.profile
    assert pair.swapped().p is pair.q and pair.swapped().q is pair.p
    # the twin reads the pair's one order reversed, on the very same masses
    twin = pair.swapped().profile
    assert twin is pair.swapped().profile
    assert twin.p_mass.base is pair.profile.q_mass and twin.q_mass.base is pair.profile.p_mass
    assert np.array_equal(twin.losses, -pair.profile.losses[::-1])


def test_a_pair_keeps_its_loss_profile():
    for pair in tie_heavy_pairs():
        assert pair.profile is pair.profile
        fresh = LossProfile(pair)
        delta0, deltas = breakpoints(fresh)
        for delta in (0.0, 1e-3, 0.05, 0.3, 1.0, delta0, fresh.inf_mass, *deltas):
            delta = float(min(max(delta, 0.0), 1.0))
            assert optimal_epsilon(pair, delta).hex() == fresh.epsilon(delta).hex()


def test_loss_table_reads_the_joined_laws_worst_delta():
    # the worst delta of join_per_secret(base, channel) off base's loss
    # tables equals the direct route's on the joined law: zero cells on one
    # or both rows, tied losses, a channel output with zero on one side
    # (the profile at -inf), shifted eps below 0 and past every loss
    rng = np.random.default_rng(29)
    seen = dict.fromkeys(("both_zero", "one_zero", "ties", "one_sided_channel",
                          "negative_shift", "past_every_loss"), 0)
    for _ in range(400):
        n_secrets = int(rng.integers(2, 5))
        # small integer weights give zero cells and tied losses
        base = rng.integers(0, 4, size=(n_secrets, int(rng.integers(1, 9)))).astype(float)
        channel = rng.integers(0, 3, size=(n_secrets, int(rng.integers(1, 5)))).astype(float)
        base[:, 0] += base.sum(axis=1) == 0.0
        channel[:, 0] += channel.sum(axis=1) == 0.0
        base /= base.sum(axis=1, keepdims=True)
        channel /= channel.sum(axis=1, keepdims=True)
        world = World(tuple(f"s{i}" for i in range(n_secrets)), ("x0",),
                      np.full((n_secrets, 1), 1.0 / n_secrets),
                      frozenset((a, b) for a in range(n_secrets) for b in range(n_secrets) if a != b))
        law = Law(base)
        with np.errstate(divide="ignore", invalid="ignore"):
            losses = np.log(base[:, None, :]) - np.log(base[None, :, :])
            shifts = np.log(channel[:, None, :]) - np.log(channel[None, :, :])
        finite = losses[np.isfinite(losses)]
        top = float(finite.max()) + float(np.nan_to_num(shifts, posinf=0.0, neginf=0.0).max())
        # 800: e^eps is past the float range
        for eps in (0.0, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 3.0)), top + 0.5, 800.0):
            want = worst_pair(world, join_per_secret(base, channel), eps=eps).value
            got = law.worst_joined(world, channel, eps)
            assert abs(got - want) <= max(1e-12 * abs(want), 1e-15), (base, channel, eps)
            seen["negative_shift"] += bool((eps - shifts[np.isfinite(shifts)] < 0.0).any())
            seen["past_every_loss"] += eps > top
        zeros = base == 0.0
        seen["both_zero"] += bool((zeros[:, None, :] & zeros[None, :, :]).any())
        seen["one_zero"] += bool((zeros[:, None, :] != zeros[None, :, :]).any())
        seen["ties"] += any(np.unique(row[np.isfinite(row)]).size < np.isfinite(row).sum()
                            for a, rows in enumerate(losses) for b, row in enumerate(rows) if a != b)
        czeros = channel == 0.0
        seen["one_sided_channel"] += bool((czeros[:, None, :] != czeros[None, :, :]).any())
    assert min(seen.values()) >= 20, seen


def test_loss_profile_equals_one_piece_optimal_epsilon():
    rng = np.random.default_rng(17)
    for pair in oracle_pairs(rng):
        profile = LossProfile(pair)
        # a positive +inf mass reads as above every delta up to 4 ulps past it
        window = profile.inf_mass + 4.0 * math.ulp(profile.inf_mass) if profile.inf_mass > 0.0 else -1.0
        delta0, breaks = breakpoints(profile)
        deltas = [0.0, 1.0, delta0, profile.inf_mass, window, math.nextafter(window, 2.0),
                  *np.linspace(0.0, 1.0, 23), *breaks, *np.nextafter(breaks, 1.0)]
        deltas = [float(min(max(d, 0.0), 1.0)) for d in deltas]
        rng.shuffle(deltas)  # the one profile answers in any order
        for delta in deltas:
            want = math.inf if delta <= window else reference_optimal_epsilon(pair, delta)
            assert profile.epsilon(delta) == want
            assert optimal_epsilon(pair, delta) == want


# ------------------------------------------- monotone root finder (ITP)


def replay(lo, hi, calls, value, above):
    """The brackets the root finder held, from its evaluations in order:
    each evaluation lies strictly inside the bracket before it."""
    brackets = [(lo, hi)]
    for x in calls:
        assert lo < x < hi
        lo, hi = (lo, x) if above(value(x)) else (x, hi)
        brackets.append((lo, hi))
    return brackets


def run_root(value, lo, hi, above, tol, v_lo=None, v_hi=None):
    """``monotone_root`` from the values at the ends, and its evaluations."""
    calls = []

    def counted(x):
        calls.append(x)
        assert len(calls) <= 2_000, "the root finder does not stop"
        return value(x)

    got = monotone_root(counted, lo, hi, value(lo) if v_lo is None else v_lo,
                        value(hi) if v_hi is None else v_hi, above=above, tol=tol)
    return got, calls


def bisection_count(pred, lo, hi, tol):
    calls = []
    full_bisection(lambda x: calls.append(x) or pred(x), lo, hi, True, 10_000, tol=tol)
    return len(calls)


# rising values with their switch at s; the calibrations' tie rule reads
# ``v <= 0`` on the value negated, the copula fill's ``v > 0`` on it as is
SHAPES = {
    "smooth": lambda s, k: lambda x: k * math.log(x / s) + (x - s) / s,
    "step": lambda s, k: lambda x: 1.0 if x >= s else -1.0,
    "plateaus": lambda s, k: lambda x: math.floor(k * math.log(x / s)) + 0.5,
    "inf prefix": lambda s, k: lambda x: -math.inf if x < s / (1.0 + k) else math.log(x / s),
    "tie": lambda s, k: lambda x: min(math.log(x / s), 0.0) + max(math.log(x / s) - k, 0.0),
}


def signed(shape, strict):
    if strict:
        return shape, (lambda v: v > 0.0)
    return (lambda x: -shape(x)), (lambda v: v <= 0.0)


def test_bisect_monotone_keeps_the_bracket():
    # every evaluation lies inside the bracket held, the ends returned were
    # evaluated, and a smooth value needs far fewer steps than bisection's 44
    for strict in (False, True):
        value, above = signed(SHAPES["smooth"](0.3, 0.7), strict)
        (lo, hi), calls = run_root(value, 1e-3, 10.0, above, 1e-12)
        assert replay(1e-3, 10.0, calls, value, above)[-1] == (lo, hi)
        assert not above(value(lo)) and above(value(hi)) and lo <= 0.3 <= hi
        assert {lo, hi} <= set(calls) and hi / lo < 1.0 + 1e-12
        assert len(calls) <= 12 < bisection_count(lambda x: above(value(x)), 1e-3, 10.0, 1e-12) == 44
    # an infinite value at an end gets a bisection step, not a secant one
    value, above = signed(SHAPES["smooth"](0.3, 0.7), False)
    for v_lo, v_hi in ((math.inf, value(1.0)), (value(0.1), -math.inf)):
        _, calls = run_root(value, 0.1, 1.0, above, 1e-12, v_lo, v_hi)
        assert calls[0] == pytest.approx(math.sqrt(0.1), rel=1e-15)


@pytest.mark.parametrize("strict", [False, True])
def test_bisect_monotone_stop_rules(strict):
    # it stops the first time the bracket is within tol, and at most one
    # step after bisection would
    value, above = signed(SHAPES["step"](2.0, 0.0), strict)
    for tol in (1e-3, 1e-6, 1e-9, 1e-12):
        (lo, hi), calls = run_root(value, 1.0, 1e4, above, tol)
        brackets = replay(1.0, 1e4, calls, value, above)
        assert brackets[-1] == (lo, hi) and lo < 2.0 <= hi
        assert [b / a < 1.0 + tol for a, b in brackets] == [False] * len(calls) + [True]
        assert len(calls) <= bisection_count(lambda x: x >= 2.0, 1.0, 1e4, tol) + 1


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SHAPES)), st.booleans(), st.floats(-6.0, 6.0),
       st.floats(0.05, 0.95), st.floats(0.5, 9.0), st.floats(0.01, 5.0),
       st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_monotone_root_property(shape, strict, log_s, where, decades, k, tol):
    s = math.exp(log_s)
    lo, hi = s / 10.0 ** (where * decades), s * 10.0 ** ((1.0 - where) * decades)
    value, above = signed(SHAPES[shape](s, k), strict)
    pred = lambda x: above(value(x))  # noqa: E731
    assume(not pred(lo) and pred(hi))  # a tie's plateau may reach past hi
    (got_lo, got_hi), calls = run_root(value, lo, hi, above, tol)
    # the bracket contract: evaluated ends on either side, within tol
    assert replay(lo, hi, calls, value, above)[-1] == (got_lo, got_hi)
    assert not pred(got_lo) and pred(got_hi) and got_hi / got_lo < 1.0 + tol
    # at most ITP's slack n0 evaluations more than bisection
    assert len(calls) <= bisection_count(pred, lo, hi, tol) + _ITP_N0
    # and it holds the switch that bisection run to float resolution finds
    ref_lo, ref_hi = full_bisection(pred, lo, hi, True, 400)
    assert got_lo < ref_hi and ref_lo < got_hi


@pytest.mark.parametrize("strict", [False, True])
def test_monotone_roots_runs_each_search_as_it_runs_alone(strict):
    # K searches in lockstep: each round asks once for the points of the
    # searches still running, in order, and each search evaluates the same
    # points and returns the same bracket as ``monotone_root`` on it alone;
    # a bracket already within tol takes no evaluation
    rng = np.random.default_rng(7)
    above = signed(SHAPES["smooth"](1.0, 1.0), strict)[1]
    for trial in range(40):
        k = int(rng.integers(1, 6))
        searches = []
        for _ in range(k):
            shape = sorted(SHAPES)[int(rng.integers(len(SHAPES)))]
            s = math.exp(rng.uniform(-5.0, 5.0))
            lo, hi = s / 10.0 ** rng.uniform(0.0, 4.0), s * 10.0 ** rng.uniform(0.0, 4.0)
            if rng.random() < 0.1:
                lo, hi = s, s * (1.0 + 1e-13)
            value = signed(SHAPES[shape](s, float(rng.uniform(0.01, 5.0))), strict)[0]
            if above(value(lo)) or not above(value(hi)):
                continue
            searches.append((value, lo, hi))
        tol = float(rng.choice([1e-12, 1e-9, 1e-6]))
        rounds, points = [], [[] for _ in searches]

        def values(which, xs):
            rounds.append(list(which))
            for j, x in zip(which, xs):
                points[j].append(x)
            return [searches[j][0](x) for j, x in zip(which, xs)]

        got = monotone_roots(values, [(lo, hi, value(lo), value(hi)) for value, lo, hi in searches],
                             above=above, tol=tol)
        for j, (value, lo, hi) in enumerate(searches):
            alone, calls = run_root(value, lo, hi, above, tol)
            assert got[j] == alone and points[j] == calls
        assert all(r == sorted(r) and r for r in rounds)
        assert [len(r) for r in rounds] == sorted((len(r) for r in rounds), reverse=True)
        assert len(rounds) == max((len(p) for p in points), default=0)


# -------------------------------------------------- worst adjacent pair


def test_worst_pair_first_pair_wins_ties():
    joint = np.full((3, 1), 1.0 / 3.0)
    world = World(("a", "b", "c"), ("x",), joint, default_adjacency(joint))
    law = np.array([[0.7, 0.3], [0.2, 0.8], [0.2, 0.8]])  # rows b and c coincide
    worst = worst_pair(world, law, eps=0.1)
    assert worst.pair == (0, 1)
    assert worst.values[(0, 1)] == worst.values[(0, 2)] == worst.value
    assert list(worst.values) == sorted(world.adjacency)
    tight = worst_pair(world, law, delta=0.0)
    assert tight.pair == (0, 1)
    assert tight.value == pytest.approx(math.log(0.7 / 0.2), abs=1e-12)


def test_tight_epsilon_past_the_float_range_of_e_loss():
    # a loss of log(0.5 / 1e-310) = 713.1 puts e^loss past the float range,
    # and (a - delta) / b with b = 1e-310 overflows too: the tight epsilon is
    # finite all the same, the one that bisection on the direct route finds
    pair = DistPair(np.array([0.5, 0.5]), np.array([1e-310, 1.0 - 1e-310]))
    world = World(("s0", "s1"), ("x0", "x1"), np.array([[0.5, 0.0], [0.0, 0.5]]),
                  default_adjacency(np.array([[0.5, 0.0], [0.0, 0.5]])))
    law = np.stack([pair.p, pair.q])
    for delta in (0.4, 0.1):
        eps = optimal_epsilon(pair, delta)
        _, ref = full_bisection(lambda e: hockey_stick(pair, e) <= delta, 700.0, 720.0, True, 400, tol=1e-15)
        assert eps == pytest.approx(ref, rel=1e-13)
        assert hockey_stick(pair, eps) <= delta < hockey_stick(pair, eps * (1.0 - 1e-12))
        worst = worst_pair(world, law, delta=delta)
        assert (worst.value, worst.pair) == (eps, (0, 1)) and worst.values[(1, 0)] < 1.0


def test_worst_pair_empty_adjacency_names_it():
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    world = World(("a", "b"), ("x", "y"), joint, frozenset())
    with pytest.raises(ValueError, match="empty adjacency") as err:
        worst_pair(world, np.eye(2), eps=1.0)
    assert "max()" not in str(err.value)


def test_hockey_stick_past_the_float_range_of_e_eps():
    # e^eps overflows past eps = 709.78; delta is then the p-mass where q = 0,
    # plus whatever outcomes with q below e^-eps still contribute
    pair = DistPair(np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4, 0.0]))
    for eps in (709.0, 710.0, 800.0, 1e300):
        assert hockey_stick(pair, eps) == 0.2
    tiny = DistPair(np.array([0.5, 0.5]), np.array([1.0, 5e-324]))
    assert hockey_stick(tiny, 740.0) == pytest.approx(0.5 - math.exp(740.0 + math.log(5e-324)), rel=1e-12)
    assert hockey_stick(tiny, 800.0) == 0.0
    world = World(("s0", "s1"), ("x0", "x1"), np.array([[0.5, 0.0], [0.0, 0.5]]),
                  default_adjacency(np.array([[0.5, 0.0], [0.0, 0.5]])))
    cut = MechanismKernel("cut", ("0", "1"), np.array([[0.5, 0.5], [0.0, 1.0]]))
    worst = worst_pair(world, composed_joint(world, [cut]).matrix, eps=800.0)
    assert (worst.value, worst.pair) == (0.5, (0, 1))
