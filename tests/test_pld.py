import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dist_pair
from dcpkit import config
from dcpkit.divergence import DistPair, hockey_stick, optimal_epsilon
from dcpkit.model import MechanismKernel, World, default_adjacency
from dcpkit.pld import (
    MERGE_ATOL,
    LossSum,
    Pld,
    _merge_atoms,
    convolve,
    decompose_plrv,
    epsilon_for_delta,
    pld_from_pair,
    privacy_profile,
    read_pld_csv,
    write_pld_csv,
)

RR = DistPair(np.array([0.75, 0.25]), np.array([0.25, 0.75]))


def test_pld_from_identical_pair():
    pld = pld_from_pair(DistPair(np.array([0.3, 0.7]), np.array([0.3, 0.7])))
    assert pld.losses.size == 1
    assert pld.losses[0] == 0.0 and pld.masses[0] == pytest.approx(1.0)
    assert pld.inf_mass == 0.0


def test_pld_from_rr_pair():
    pld = pld_from_pair(RR)
    assert np.allclose(pld.losses, [-math.log(3), math.log(3)])
    assert np.allclose(pld.masses, [0.25, 0.75])


def test_pld_with_infinity_atom():
    pld = pld_from_pair(DistPair(np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    assert np.allclose(pld.losses, [-math.log(2)])
    assert np.allclose(pld.masses, [0.5])
    assert pld.inf_mass == pytest.approx(0.5)


def test_convolve_point_masses():
    a = Pld.point(1.5)
    b = Pld.point(-0.5)
    c = convolve(a, b)
    assert np.allclose(c.losses, [1.0]) and np.allclose(c.masses, [1.0])


def test_convolve_identity_element():
    pld = pld_from_pair(RR)
    out = convolve(pld, Pld.point(0.0))
    assert np.allclose(out.losses, pld.losses)
    assert np.allclose(out.masses, pld.masses)


def test_convolve_rr_with_itself():
    # oracle: 4-term expansion of the two-atom distribution
    out = convolve(pld_from_pair(RR), pld_from_pair(RR))
    l3 = math.log(3)
    assert np.allclose(out.losses, [-2 * l3, 0.0, 2 * l3])
    assert np.allclose(out.masses, [0.0625, 0.375, 0.5625])


def test_convolve_commutative_associative():
    rng = np.random.default_rng(21)
    for _ in range(20):
        plds = [pld_from_pair(DistPair(*random_dist_pair(rng, 6))) for _ in range(3)]
        a, b, c = plds
        ab = convolve(a, b)
        ba = convolve(b, a)
        assert np.allclose(ab.losses, ba.losses, atol=1e-12)
        assert np.allclose(ab.masses, ba.masses, atol=1e-12)
        left = convolve(ab, c)
        right = convolve(a, convolve(b, c))
        for eps in (0.0, 0.5, 1.0):
            assert privacy_profile(left, eps) == pytest.approx(
                privacy_profile(right, eps), abs=1e-12
            )


def test_privacy_profile_examples():
    assert privacy_profile(Pld.point(0.0), 0.0) == 0.0
    assert privacy_profile(pld_from_pair(RR), 0.0) == pytest.approx(0.5, abs=1e-15)
    heavy = Pld(losses=np.array([-1.0, 0.5]), masses=np.array([0.3, 0.4]), inf_mass=0.3)
    assert privacy_profile(heavy, 2.0) == pytest.approx(0.3)


def test_profile_matches_hockey_stick():
    rng = np.random.default_rng(22)
    for _ in range(200):
        p, q = random_dist_pair(rng)
        pair = DistPair(p, q)
        pld = pld_from_pair(pair)
        for eps in (0.0, 0.5, 1.0, 2.0):
            assert abs(privacy_profile(pld, eps) - hockey_stick(pair, eps)) <= 1e-12


def test_epsilon_for_delta_matches_direct_route():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p, q = random_dist_pair(rng)
        pair = DistPair(p, q)
        delta = float(rng.uniform(0, 0.4))
        via_pld = epsilon_for_delta(pld_from_pair(pair), delta)
        direct = optimal_epsilon(pair, delta)
        if math.isinf(direct):
            assert math.isinf(via_pld)
        else:
            assert via_pld == pytest.approx(direct, abs=1e-12)
    with pytest.raises(ValueError):
        epsilon_for_delta(pld_from_pair(RR), 1.5)


def test_convolution_equals_product_law_on_invertible_world():
    # independent mechanisms on an invertible world: the convolved loss
    # profile equals the composed joint's divergence at every eps
    from dcpkit.composition import composed_joint
    from dcpkit.model import effective_kernel

    world = _world([[0.5, 0.0], [0.0, 0.5]])
    rng = np.random.default_rng(26)
    mechs = [
        MechanismKernel(f"m{i}", ("0", "1", "2"), rng.dirichlet(np.ones(3), size=2))
        for i in range(3)
    ]
    effs = [effective_kernel(world, m) for m in mechs]
    pld = pld_from_pair(effs[0].pair(0, 1))
    for eff in effs[1:]:
        pld = convolve(pld, pld_from_pair(eff.pair(0, 1)))
    cj = composed_joint(world, mechs, [])
    for eps in (0.0, 0.3, 0.8, 1.5):
        assert privacy_profile(pld, eps) == pytest.approx(
            hockey_stick(cj.pair(0, 1), eps), abs=1e-12
        )


def test_negative_infinity_atoms_are_inert():
    pld = Pld(losses=np.array([-np.inf, 1.0]), masses=np.array([0.25, 0.75]))
    assert privacy_profile(pld, 0.0) == pytest.approx(0.75 * (1 - math.exp(-1.0)))


def test_positive_infinity_atoms_join_the_mass_at_infinity():
    pld = Pld(losses=np.array([np.inf, 0.0]), masses=np.array([0.5, 0.5]))
    assert (pld.losses.tolist(), pld.inf_mass) == ([0.0], 0.5)
    assert epsilon_for_delta(pld, 0.1) == math.inf


@pytest.mark.parametrize("losses,masses,inf_mass", [
    ([math.nan, 0.0], [0.5, 0.5], 0.0),
    ([0.0], [1.0], math.nan),
    ([0.0], [0.5], math.inf),
    ([0.0, 1.0], [math.nan, 1.0], 0.0),
])
def test_pld_refuses_nan_losses_and_non_finite_masses(losses, masses, inf_mass):
    with pytest.raises(ValueError):
        Pld(losses=np.array(losses), masses=np.array(masses), inf_mass=inf_mass)


def test_read_pld_csv_books_overflowing_losses_at_infinity_and_refuses_nan(tmp_path):
    path = tmp_path / "pld.csv"
    path.write_text("loss,mass\n1e400,0.5\n0.0,0.5\ninf,0.0\n")
    pld = read_pld_csv(path)
    assert (pld.losses.tolist(), pld.inf_mass) == ([0.0], 0.5)
    assert epsilon_for_delta(pld, 0.0) == math.inf
    for rows in ("1e400,0.5\nnan,0.3\n0.0,0.2\n", "0.0,1.0\ninf,nan\n"):
        path.write_text("loss,mass\n" + rows)
        with pytest.raises(ValueError):
            read_pld_csv(path)


def test_csv_round_trip(tmp_path):
    pld = pld_from_pair(DistPair(np.array([0.5, 0.4, 0.1]), np.array([0.2, 0.8, 0.0])))
    path = tmp_path / "pld.csv"
    write_pld_csv(pld, path)
    back = read_pld_csv(path)
    assert np.array_equal(back.losses, pld.losses)
    assert np.array_equal(back.masses, pld.masses)
    assert back.inf_mass == pld.inf_mass


def _world(joint):
    joint = np.asarray(joint, dtype=float)
    return World(
        tuple(f"s{i}" for i in range(joint.shape[0])),
        tuple(f"x{j}" for j in range(joint.shape[1])),
        joint,
        default_adjacency(joint),
    )


def test_decomposition_invertible_world(rr_mechanism):
    world = _world([[0.5, 0.0], [0.0, 0.5]])
    dec = decompose_plrv(world, [rr_mechanism, rr_mechanism], [], 0, 1)
    fin = dec.finite
    assert np.abs(dec.world_term[fin]).max() <= 1e-12
    assert np.abs(dec.dependence_term[fin]).max() == 0.0


def test_decomposition_single_mechanism(rr_mechanism, mixing_world_2x2):
    dec = decompose_plrv(mixing_world_2x2, [rr_mechanism], [], 0, 1)
    fin = dec.finite
    assert np.abs(dec.total[fin] - dec.independent_term[fin]).max() <= 1e-12
    assert np.abs(dec.world_term[fin]).max() <= 1e-12


def test_decomposition_mixing_world_nonzero(rr_mechanism, mixing_world_2x2):
    dec = decompose_plrv(mixing_world_2x2, [rr_mechanism, rr_mechanism], [], 0, 1)
    fin = dec.finite
    assert np.abs(dec.world_term[fin]).max() > 1e-3
    # brute-force comparison: world term equals joint-vs-product log ratio
    from dcpkit.composition import composed_joint
    from dcpkit.model import effective_kernel

    cj = composed_joint(mixing_world_2x2, [rr_mechanism, rr_mechanism], [])
    eff = effective_kernel(mixing_world_2x2, rr_mechanism).matrix
    prod0, prod1 = (np.outer(eff[s], eff[s]).ravel() for s in (0, 1))
    expect = np.log(cj.matrix[0] / prod0) - np.log(cj.matrix[1] / prod1)
    assert np.allclose(dec.world_term, expect, atol=1e-12)


def test_decomposition_pointwise_identity():
    rng = np.random.default_rng(24)
    for _ in range(20):
        ns, nx = 2, int(rng.integers(2, 4))
        joint = rng.dirichlet(np.ones(ns * nx)).reshape(ns, nx)
        world = _world(joint)
        mechs = [
            MechanismKernel(f"m{i}", ("0", "1"), rng.dirichlet(np.ones(2), size=nx))
            for i in range(2)
        ]
        dec = decompose_plrv(world, mechs, [], 0, 1)
        fin = dec.finite
        lhs = dec.total[fin]
        rhs = (dec.world_term + dec.dependence_term + dec.independent_term)[fin]
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_decomposition_with_dependence_group():
    world = _world([[0.4, 0.1], [0.1, 0.4]])
    kernel = np.array([[0.9, 0.1], [0.2, 0.8]])
    mechs = [MechanismKernel("a", ("0", "1"), kernel), MechanismKernel("b", ("0", "1"), kernel)]
    from dcpkit.model import DependenceGroup

    group = DependenceGroup(members=(0, 1), joint_kernel=np.array(
        [[0.9, 0.0, 0.0, 0.1], [0.2, 0.0, 0.0, 0.8]]))
    dec = decompose_plrv(world, mechs, [group], 0, 1)
    fin = dec.finite
    assert np.abs(dec.dependence_term[fin]).max() > 0.1
    identity_gap = np.abs(
        dec.total[fin]
        - (dec.world_term + dec.dependence_term + dec.independent_term)[fin]
    ).max()
    assert identity_gap <= 1e-9


def test_decomposition_requires_adjacent_pair(invertible_world, rr_mechanism):
    world = World(
        invertible_world.secrets, invertible_world.datasets, invertible_world.joint,
        frozenset({(0, 1), (1, 0)}),
    )
    with pytest.raises(ValueError, match="adjacent"):
        decompose_plrv(world, [rr_mechanism], [], 0, 0)


def test_convolve_refuses_past_the_cap(monkeypatch):
    a = Pld(losses=np.array([-1.0, 0.0, 1.0]), masses=np.array([0.2, 0.3, 0.5]))
    b = pld_from_pair(RR)
    monkeypatch.setattr(config, "OUTCOME_CAP", 5)
    with pytest.raises(ValueError, match="3 x 2 loss atoms exceeds cap 5"):
        convolve(a, b)
    monkeypatch.setattr(config, "OUTCOME_CAP", 6)
    assert convolve(a, b).losses.size == 6


# losses on a quarter grid make many sums tie exactly; -inf atoms stand for
# outcomes the other secret cannot produce
GRID_LOSS = st.one_of(st.integers(-12, 12).map(lambda i: i / 4), st.floats(-3.0, 3.0),
                      st.just(-math.inf))


@st.composite
def plds(draw):
    losses = draw(st.lists(GRID_LOSS, min_size=1, max_size=6))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(losses),
                                     max_size=len(losses))))
    inf_mass = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))
    return Pld(losses=np.array(losses), masses=(1.0 - inf_mass) * weights / weights.sum(),
               inf_mass=inf_mass)


def fsum_profile(w, m, eps):
    """delta(eps) of W + M summed pair by pair with math.fsum."""
    inf_mass = w.inf_mass + m.inf_mass - w.inf_mass * m.inf_mass
    terms = [a * b * max(1.0 - math.exp(eps - x - y), 0.0)
             for x, a in zip(w.losses, w.masses) for y, b in zip(m.losses, m.masses)
             if math.isfinite(x) and math.isfinite(y) and eps - x - y < 700.0]
    return inf_mass + math.fsum(terms)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(w=plds(), m=plds(), eps=st.one_of(st.floats(-4.0, 8.0), st.integers(-8, 24).map(lambda i: i / 4),
                                         st.sampled_from([-800.0, 800.0, 1e300])),
       pick=st.sampled_from(["zero", "at_zero", "above_zero", "below_inf", "random"]),
       u=st.floats(0.0, 1.0))
def test_loss_sum_matches_the_materialized_convolution(w, m, eps, pick, u):
    total = LossSum(w, m)
    conv = convolve(w, m)
    ref = fsum_profile(w, m, eps)
    assert abs(total.delta(eps) - ref) <= 1e-12
    assert abs(LossSum(m, w).delta(eps) - ref) <= 1e-12
    assert abs(privacy_profile(conv, eps) - ref) <= 1e-12

    at_zero = fsum_profile(w, m, 0.0)
    delta = {"zero": 0.0, "at_zero": at_zero, "above_zero": min(1.0, at_zero + u * (1 - at_zero)),
             "below_inf": u * total.inf_mass, "random": u}[pick]
    eps_star = total.epsilon(delta)
    assert eps_star == pytest.approx(epsilon_for_delta(conv, delta), abs=1e-12)
    if total.inf_mass > 0.0 and delta <= total.inf_mass + 4.0 * math.ulp(total.inf_mass):
        assert eps_star == math.inf  # the pessimistic rule at the +inf mass
    elif at_zero <= delta:
        assert eps_star == pytest.approx(0.0, abs=1e-12)
    else:
        # the profile is continuous, so the smallest eps meeting delta hits it
        assert eps_star > 0.0 and fsum_profile(w, m, eps_star) == pytest.approx(delta, abs=1e-12)


def test_loss_sum_refuses_losses_past_the_float_range():
    # a probability ratio past e^709.78 cannot enter the e^-loss sums
    far = Pld(losses=np.array([0.0, 750.0]), masses=np.array([0.5, 0.5]))
    for w, m in ((Pld.point(0.0), far), (Pld.point(-750.0), Pld.point(0.0))):
        with pytest.raises(ValueError, match="float range"):
            LossSum(w, m)
    # within it, delta holds at any eps; a root whose e^eps leaves the range is refused
    near = LossSum(Pld.point(700.0), Pld.point(700.0))
    assert near.delta(1399.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert near.delta(1e300) == 0.0
    with pytest.raises(ValueError, match="float range"):
        near.epsilon(0.0)


def test_nan_delta_and_eps_are_refused():
    loss_sum = LossSum(pld_from_pair(RR), pld_from_pair(RR))
    for call in (lambda: optimal_epsilon(RR, math.nan), lambda: loss_sum.epsilon(math.nan),
                 lambda: loss_sum.delta(math.nan), lambda: epsilon_for_delta(pld_from_pair(RR), math.nan)):
        with pytest.raises(ValueError):
            call()


def _merge_atoms_by_scatter_add(losses, masses):
    """``pld._merge_atoms`` as written with ``np.add.at``: the oracle of its bits."""
    keep = masses > 0.0
    losses, masses = losses[keep], masses[keep]
    if losses.size == 0:
        return losses, masses
    order = np.argsort(losses)
    losses, masses = losses[order], masses[order]
    new_group = np.empty(losses.size, dtype=bool)
    new_group[0] = True
    with np.errstate(invalid="ignore"):
        new_group[1:] = np.diff(losses) > MERGE_ATOL
    gid = np.cumsum(new_group) - 1
    n = gid[-1] + 1
    gmass = np.zeros(n)
    gloss = np.zeros(n)
    np.add.at(gmass, gid, masses)
    finite = np.isfinite(losses)
    np.add.at(gloss, gid[finite], (losses * masses)[finite])
    with np.errstate(invalid="ignore"):
        out_loss = np.where(gmass > 0, gloss / np.where(gmass > 0, gmass, 1.0), 0.0)
    neg_inf_groups = np.zeros(n, dtype=bool)
    np.logical_or.at(neg_inf_groups, gid, ~finite)
    return np.where(neg_inf_groups, -np.inf, out_loss), gmass


# exact ties, ties within MERGE_ATOL, a gap just past it, and -inf atoms
MERGE_LOSS = st.one_of(
    st.builds(lambda base, step: base + step, st.sampled_from([-2.5, 0.0, 0.1, 3.0]),
              st.sampled_from([0.0, 0.0, 3e-13, 1e-12, 1.5e-12, 1e-6])),
    st.floats(-5.0, 5.0), st.just(-math.inf))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(atoms=st.lists(st.tuples(MERGE_LOSS, st.one_of(st.just(0.0), st.floats(1e-300, 1.0))), max_size=12))
def test_merge_atoms_matches_the_scatter_add_bit_for_bit(atoms):
    losses = np.array([a for a, _ in atoms], dtype=float)
    masses = np.array([b for _, b in atoms], dtype=float)
    got, want = _merge_atoms(losses, masses), _merge_atoms_by_scatter_add(losses, masses)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(w=plds(), m=plds(), eps=st.one_of(st.floats(-8.0, 8.0), st.integers(-8, 24).map(lambda i: i / 4),
                                         st.sampled_from([-math.inf, math.inf, 1e300])))
def test_loss_sum_search_matches_the_ascending_search(w, m, eps):
    loss_sum = LossSum(w, m)
    t = eps - loss_sum._w
    want = np.searchsorted(loss_sum._m, t, side="right")
    assert np.array_equal(loss_sum._active(t), want)


def test_loss_sum_searches_zero_once(monkeypatch):
    loss_sum = LossSum(pld_from_pair(RR), pld_from_pair(DistPair(np.array([0.6, 0.4]), np.array([0.2, 0.8]))))
    searches, search = [], LossSum._active
    monkeypatch.setattr(LossSum, "_active", lambda self, t: searches.append(t.copy()) or search(self, t))
    at_zero = lambda: sum(np.array_equal(t, 0.0 - loss_sum._w) for t in searches)
    first = loss_sum.epsilon(0.01)
    assert first > 0.0 and at_zero() == 1  # the profile's root lies past 0
    assert loss_sum.epsilon(0.001) > first and loss_sum.epsilon(1.0) == 0.0
    assert at_zero() == 1
    # delta(0), taken with that search, is the value the public profile gives
    assert loss_sum.delta(0.0) == loss_sum._zero[1] and at_zero() == 2
