import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_dist_pair
from dcpkit import config
from dcpkit.divergence import DistPair, LossProfile, hockey_stick, optimal_epsilon
from dcpkit.model import MechanismKernel, World, default_adjacency
from dcpkit.pld import (
    convolve,
    decompose_plrv,
    epsilon_for_delta,
    pld_csv,
    pld_from_pair,
    privacy_profile,
    read_pld_csv,
    write_pld_csv,
)

RR = DistPair(np.array([0.75, 0.25]), np.array([0.25, 0.75]))


def point(loss):
    """The PLD of one loss atom of mass 1, its q-mass e^-loss."""
    return LossProfile.of_atoms([loss], [1.0], [math.exp(-loss)])


def test_pld_from_pair_is_the_pairs_profile():
    pair = DistPair(np.array([0.5, 0.3, 0.2, 0.0]), np.array([0.1, 0.3, 0.0, 0.6]))
    assert pld_from_pair(pair) is pair.profile


def test_pld_from_identical_pair():
    pld = pld_from_pair(DistPair(np.array([0.3, 0.7]), np.array([0.3, 0.7])))
    assert pld.losses.size == 1
    assert pld.losses[0] == 0.0 and pld.p_mass[0] == pytest.approx(1.0) and pld.q_mass[0] == pytest.approx(1.0)
    assert pld.inf_mass == 0.0


def test_pld_from_rr_pair():
    pld = pld_from_pair(RR)
    assert np.allclose(pld.losses, [-math.log(3), math.log(3)])
    assert np.allclose(pld.p_mass, [0.25, 0.75]) and np.allclose(pld.q_mass, [0.75, 0.25])


def test_pld_with_infinity_atom():
    pld = pld_from_pair(DistPair(np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    assert np.allclose(pld.losses, [-math.log(2), math.inf])
    assert np.allclose(pld.p_mass, [0.5, 0.5]) and np.allclose(pld.q_mass, [1.0, 0.0])
    assert pld.inf_mass == pytest.approx(0.5)


def test_convolve_point_masses():
    c = convolve(point(1.5), point(-0.5))
    assert np.allclose(c.losses, [1.0]) and np.allclose(c.p_mass, [1.0])
    assert np.allclose(c.q_mass, [math.exp(-1.0)])


def test_convolve_identity_element():
    pld = pld_from_pair(RR)
    out = convolve(pld, point(0.0))
    assert np.allclose(out.losses, pld.losses)
    assert np.allclose(out.p_mass, pld.p_mass) and np.allclose(out.q_mass, pld.q_mass)


def test_convolve_rr_with_itself():
    # oracle: 4-term expansion of the two-atom distribution
    out = convolve(pld_from_pair(RR), pld_from_pair(RR))
    l3 = math.log(3)
    assert np.allclose(out.losses, [-2 * l3, 0.0, 2 * l3])
    assert np.allclose(out.p_mass, [0.0625, 0.375, 0.5625])
    assert np.allclose(out.q_mass, [0.5625, 0.375, 0.0625])


def test_convolve_commutative_associative():
    rng = np.random.default_rng(21)
    for _ in range(20):
        plds = [pld_from_pair(DistPair(*random_dist_pair(rng, 6))) for _ in range(3)]
        a, b, c = plds
        ab = convolve(a, b)
        ba = convolve(b, a)
        assert np.allclose(ab.losses, ba.losses, atol=1e-12)
        assert np.allclose(ab.p_mass, ba.p_mass, atol=1e-12)
        assert np.allclose(ab.q_mass, ba.q_mass, atol=1e-12)
        left = convolve(ab, c)
        right = convolve(a, convolve(b, c))
        for eps in (0.0, 0.5, 1.0):
            assert privacy_profile(left, eps) == pytest.approx(
                privacy_profile(right, eps), abs=1e-12
            )


@st.composite
def zero_pairs(draw):
    """A pair whose sides both draw zeros: outcomes at loss -inf and +inf."""
    n = draw(st.integers(1, 5))
    p, q = (np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=n, max_size=n)))
            for _ in range(2))
    assume(p.sum() > 0.0 and q.sum() > 0.0)
    return DistPair(p / p.sum(), q / q.sum())


@settings(derandomize=True, deadline=None, max_examples=200)
@given(a=zero_pairs(), b=zero_pairs())
def test_convolve_of_two_pairs_is_the_profile_of_their_product_pair(a, b):
    conv = convolve(a.profile, b.profile)
    product = DistPair(np.multiply.outer(a.p, b.p).ravel(), np.multiply.outer(a.q, b.q).ravel()).profile
    assert (np.diff(conv.losses) > 0.0).all()  # no two groups share a loss
    for eps in (0.0, 0.3, 1.0, 2.5):
        assert abs(privacy_profile(conv, eps) - privacy_profile(product, eps)) <= 1e-12
    for delta in (0.0, 0.01, 0.2):
        got, want = epsilon_for_delta(conv, delta), epsilon_for_delta(product, delta)
        assert got == want if math.isinf(want) else abs(got - want) <= 1e-12


def test_privacy_profile_examples():
    assert privacy_profile(point(0.0), 0.0) == 0.0
    assert privacy_profile(pld_from_pair(RR), 0.0) == pytest.approx(0.5, abs=1e-15)
    heavy = LossProfile.of_atoms([-1.0, 0.5, math.inf], [0.3, 0.4, 0.3],
                                 [0.3 * math.e, 0.4 * math.exp(-0.5), 0.0])
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
    # q-mass at -inf, where the other secret alone reaches: no eps sees it
    pld = LossProfile.of_atoms([-math.inf, 1.0], [0.0, 1.0], [0.6, math.exp(-1.0)])
    assert privacy_profile(pld, 0.0) == pytest.approx(1 - math.exp(-1.0))
    assert privacy_profile(pld, 0.0) == privacy_profile(point(1.0), 0.0)


def test_positive_infinity_atoms_join_the_mass_at_infinity():
    pld = LossProfile.of_atoms([math.inf, 0.0], [0.5, 0.5], [0.0, 0.5])
    assert (pld.losses.tolist(), pld.p_mass.tolist(), pld.inf_mass) == ([0.0, math.inf], [0.5, 0.5], 0.5)
    assert epsilon_for_delta(pld, 0.1) == math.inf


@pytest.mark.parametrize("losses,masses,inf_mass", [
    ([math.nan, 0.0], [0.5, 0.5], 0.0),
    ([0.0], [1.0], math.nan),
    ([0.0], [0.5], math.inf),
    ([0.0, 1.0], [math.nan, 1.0], 0.0),
    ([0.0, 1.0], [1.5, -0.5], 0.0),       # a negative mass
    ([0.0, 1.0], [1.0, -math.inf], 0.0),  # a mass of -inf
    ([-800.0], [1.0], 0.0),               # a q-mass of e^800, past the float range
    ([0.0], [0.5], 0.4),                  # a total p-mass off 1
])
def test_pld_refuses_nan_losses_and_non_finite_masses(losses, masses, inf_mass):
    # finite atoms of q-mass p e^-loss, and inf_mass at +inf
    losses, masses = np.array(losses + [math.inf]), np.array(masses + [inf_mass])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        LossProfile.of_atoms(losses, masses, masses * np.exp(-losses))


def test_read_pld_csv_books_overflowing_losses_at_infinity_and_refuses_nan(tmp_path):
    path = tmp_path / "pld.csv"
    path.write_text("loss,mass\n1e400,0.5\n0.0,0.5\ninf,0.0\n")
    pld = read_pld_csv(path)
    assert (pld.losses.tolist(), pld.p_mass.tolist(), pld.inf_mass) == ([0.0, math.inf], [0.5, 0.5], 0.5)
    assert pld.q_mass.tolist() == [0.5, 0.0]
    assert epsilon_for_delta(pld, 0.0) == math.inf
    for rows in ("1e400,0.5\nnan,0.3\n0.0,0.2\n", "0.0,1.0\ninf,nan\n", "0.0,1.2\n-1.0,-0.2\ninf,0.0\n",
                 "0.0,0.5\ninf,0.4\n"):
        path.write_text("loss,mass\n" + rows)
        with pytest.raises(ValueError):
            read_pld_csv(path)


def test_csv_round_trip(tmp_path):
    pld = pld_from_pair(DistPair(np.array([0.5, 0.4, 0.1]), np.array([0.2, 0.8, 0.0])))
    path = tmp_path / "pld.csv"
    write_pld_csv(pld, path)
    back = read_pld_csv(path)
    assert np.array_equal(back.losses, pld.losses)
    assert np.array_equal(back.p_mass, pld.p_mass)
    assert np.allclose(back.q_mass, pld.q_mass, rtol=1e-15, atol=0.0)
    assert back.inf_mass == pld.inf_mass
    assert pld_csv(back) == pld_csv(pld)


def test_read_pld_csv_takes_a_q_mass_past_e709_in_the_log_domain(tmp_path):
    # loss log(1e-310 / 0.5) = -713.1: e^-loss overflows, p e^-loss is 0.5
    pld = pld_from_pair(DistPair(np.array([1e-310, 0.5, 0.5]), np.array([0.5, 0.5, 0.0])))
    path = tmp_path / "pld.csv"
    write_pld_csv(pld, path)
    back = read_pld_csv(path)
    assert np.array_equal(back.losses, pld.losses) and np.array_equal(back.p_mass, pld.p_mass)
    assert np.allclose(back.q_mass, pld.q_mass, rtol=1e-12, atol=0.0)
    assert pld_csv(back) == pld_csv(pld)


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
    a = LossProfile.of_atoms([-1.0, 0.0, 1.0], [0.2, 0.3, 0.5], [0.2 * math.e, 0.3, 0.5 / math.e])
    b = pld_from_pair(RR)
    monkeypatch.setattr(config, "OUTCOME_CAP", 5)
    with pytest.raises(ValueError, match="3 x 2 loss atoms exceeds cap 5"):
        convolve(a, b)
    monkeypatch.setattr(config, "OUTCOME_CAP", 6)
    assert convolve(a, b).losses.size == 6


# losses on a quarter grid make many sums tie exactly; -inf atoms stand for
# outcomes only the other secret can produce
FINITE_LOSS = st.one_of(st.integers(-12, 12).map(lambda i: i / 4), st.floats(-3.0, 3.0))
GRID_LOSS = st.one_of(FINITE_LOSS, st.just(-math.inf))


@st.composite
def plds(draw):
    """A PLD of explicit p- and q-masses: q = p e^-loss at a finite loss, a
    -inf atom q-mass only, a +inf atom p-mass only."""
    losses = np.array([draw(FINITE_LOSS)] + draw(st.lists(GRID_LOSS, max_size=5)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=losses.size, max_size=losses.size)))
    inf_mass = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))
    finite = np.isfinite(losses)
    p_mass, q_mass = np.zeros(losses.size), weights.copy()
    p_mass[finite] = (1.0 - inf_mass) * weights[finite] / weights[finite].sum()
    q_mass[finite] = p_mass[finite] * np.exp(-losses[finite])
    if inf_mass:
        losses, p_mass, q_mass = np.append(losses, math.inf), np.append(p_mass, inf_mass), np.append(q_mass, 0.0)
    return LossProfile.of_atoms(losses, p_mass, q_mass)


def fsum_profile(w, m, eps):
    """delta(eps) of W + M summed pair by pair with math.fsum."""
    inf_mass = joined_inf_mass(w, m)
    terms = [a * b * max(1.0 - math.exp(eps - x - y), 0.0)
             for x, a in zip(w.losses, w.p_mass) for y, b in zip(m.losses, m.p_mass)
             if math.isfinite(x) and math.isfinite(y) and eps - x - y < 700.0]
    return inf_mass + math.fsum(terms)


def joined_inf_mass(w, m):
    """The +inf mass of W + M."""
    return w.inf_mass + m.inf_mass - w.inf_mass * m.inf_mass


@settings(derandomize=True, deadline=None, max_examples=300)
@given(w=plds(), m=plds(), eps=st.one_of(st.floats(-4.0, 8.0), st.integers(-8, 24).map(lambda i: i / 4),
                                         st.sampled_from([-800.0, 800.0, 1e300])),
       pick=st.sampled_from(["zero", "at_zero", "above_zero", "below_inf", "random"]),
       u=st.floats(0.0, 1.0))
def test_loss_sum_matches_the_materialized_convolution(w, m, eps, pick, u):
    # W joined with M's pair, and M joined with W's, without convolving
    conv = convolve(w, m)
    ref = fsum_profile(w, m, eps)
    assert abs(m.hockey_stick(w.p_mass, w.q_mass, eps) - ref) <= 1e-12
    assert abs(w.hockey_stick(m.p_mass, m.q_mass, eps) - ref) <= 1e-12
    assert abs(privacy_profile(conv, eps) - ref) <= 1e-12

    at_zero, inf_mass = fsum_profile(w, m, 0.0), joined_inf_mass(w, m)
    delta = {"zero": 0.0, "at_zero": at_zero, "above_zero": min(1.0, at_zero + u * (1 - at_zero)),
             "below_inf": u * inf_mass, "random": u}[pick]
    eps_star = m.joined_epsilon(w.p_mass, w.q_mass, delta)
    assert eps_star == pytest.approx(epsilon_for_delta(conv, delta), abs=1e-12)
    assert w.joined_epsilon(m.p_mass, m.q_mass, delta) == pytest.approx(eps_star, abs=1e-12)
    if inf_mass > 0.0 and delta <= inf_mass + 4.0 * math.ulp(inf_mass):
        assert eps_star == math.inf  # the pessimistic rule at the +inf mass
    elif at_zero <= delta:
        assert eps_star == pytest.approx(0.0, abs=1e-12)
    else:
        # the profile is continuous, so the smallest eps meeting delta hits it
        assert eps_star > 0.0 and fsum_profile(w, m, eps_star) == pytest.approx(delta, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(w=plds(), m=plds(), eps=st.floats(-4.0, 8.0), u=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_loss_sum_term_order_does_not_change_values(w, m, eps, u, seed):
    # the reversed search is only fastest on a sorted term; any order reads the same
    order = np.random.default_rng(seed).permutation(w.losses.size)
    a, b = w.p_mass[order], w.q_mass[order]
    assert abs(m.hockey_stick(a, b, eps) - m.hockey_stick(w.p_mass, w.q_mass, eps)) <= 1e-12
    assert m.joined_epsilon(a, b, u) == pytest.approx(m.joined_epsilon(w.p_mass, w.q_mass, u), abs=1e-12)


def test_loss_sum_holds_past_the_float_range():
    # a loss above 709.78 enters no exponent through e^eps alone: the joined
    # delta matches the convolution's at any eps
    far = LossProfile.of_atoms([0.0, 750.0], [0.5, 0.5], [0.5, 0.0])
    conv = convolve(point(0.0), far)
    for eps in (0.0, 1.0, 700.0, 749.9, 760.0, 800.0):
        assert abs(far.hockey_stick(np.ones(1), np.ones(1), eps) - privacy_profile(conv, eps)) <= 1e-12
    # a loss below -709.78 enters no exponent: the masses are read as given
    # (p-mass 0.5 e^-750 underflows to 0)
    low = LossProfile.of_atoms([-750.0, math.log(2.0)], [0.0, 1.0], [0.5, 0.5])
    conv = convolve(low, point(0.0))
    for eps in (0.0, 0.3, 0.69, 1.0):
        assert abs(point(0.0).hockey_stick(low.p_mass, low.q_mass, eps) - privacy_profile(conv, eps)) <= 1e-12
    for delta in (0.0, 0.1, 0.3):
        assert abs(point(0.0).joined_epsilon(low.p_mass, low.q_mass, delta)
                   - epsilon_for_delta(conv, delta)) <= 1e-12
    # within it, delta holds at any eps, where b q underflows too; a root
    # whose e^eps leaves the range is refused
    near = point(700.0)
    assert near.hockey_stick(near.p_mass, near.q_mass, 1399.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert near.hockey_stick(near.p_mass, near.q_mass, 1e300) == 0.0
    with pytest.raises(ValueError, match="float range"):
        near.joined_epsilon(near.p_mass, near.q_mass, 0.0)


def test_epsilon_past_a_zero_q_mass_is_that_loss(tmp_path):
    # q-mass 0 at a finite loss (p e^-750 underflows): the profile stays at
    # 0.5 up to loss 750 and is 0 there, so eps is 750, not a division by 0
    far = LossProfile.of_atoms([0.0, 750.0], [0.5, 0.5], [0.5, 0.0])
    assert far.epsilon(0.3) == 750.0
    assert far.hockey_stick(np.ones(1), np.ones(1), 750.0) == 0.0
    assert far.hockey_stick(np.ones(1), np.ones(1), math.nextafter(750.0, 0.0)) == 0.5
    path = tmp_path / "far.csv"
    path.write_text("loss,mass\n0.0,0.5\n750.0,0.5\ninf,0.0\n", encoding="utf-8")
    assert epsilon_for_delta(read_pld_csv(path), 0.1) == 750.0


def test_nan_delta_and_eps_are_refused():
    rr = pld_from_pair(RR)
    for call in (lambda: optimal_epsilon(RR, math.nan), lambda: rr.joined_epsilon(rr.p_mass, rr.q_mass, math.nan),
                 lambda: rr.hockey_stick(rr.p_mass, rr.q_mass, math.nan),
                 lambda: epsilon_for_delta(pld_from_pair(RR), math.nan),
                 lambda: privacy_profile(pld_from_pair(RR), math.nan)):
        with pytest.raises(ValueError):
            call()


def test_privacy_profile_refuses_an_infinite_eps_as_hockey_stick_does():
    for eps in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            privacy_profile(pld_from_pair(RR), eps)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(w=plds(), m=plds(), eps=st.one_of(st.floats(-8.0, 8.0), st.integers(-8, 24).map(lambda i: i / 4),
                                         st.sampled_from([-math.inf, math.inf, 1e300])))
def test_loss_sum_search_matches_the_ascending_search(w, m, eps):
    t = eps - w.losses[np.isfinite(w.losses)]
    want = np.searchsorted(m.losses, t, side="right")
    assert np.array_equal(m._above(t), want)
