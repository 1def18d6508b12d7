"""The calibration and IC inner loops against the formulations they replaced.

Each test keeps the earlier, slower formulation as its oracle and asserts
bit-equal results (``np.array_equal``), since the experiments' printed rows
depend on every last digit: per-row ``scipy.stats`` CDFs for the binned
kernels, the one-shot copula block law, and bisection's full run, whose
bracket the root finder ends on when run to float resolution.  The simplex
projection runs the other way round: the test helper's row sort is held to
the sorting network that task 1's former penalty loop used, so the response
step moved into ``response_step`` takes that loop's iterates.
"""

import math

import numpy as np
import pytest
from scipy import special, stats

from dcpkit.copula import (
    GaussianCopulaSpec,
    GaussianMarginal,
    LaplaceMarginal,
    _coupled_log_density,
    _shift_pair,
    block_grid,
    copula_plrv,
    mix_block_law,
)
from dcpkit.divergence import DistPair, hockey_stick, monotone_root, optimal_epsilon, worst_pair
from dcpkit.model import World, default_adjacency
from dcpkit.pld import pld_from_pair
from dcpkit.synth import binned_gaussian_kernel, binned_laplace_kernel, mixing_world
from bisection import full_bisection
from response_step import project_rows_simplex


def per_row_kernel(dist, values, scale, bins, span):
    values = np.asarray(values, dtype=float)
    edges = np.linspace(values.min() - span * scale, values.max() + span * scale, bins + 1)
    rows = []
    for v in values:
        cdf = dist.cdf(edges, loc=v, scale=scale)
        row = np.diff(cdf)
        row[0] += cdf[0]
        row[-1] += 1.0 - cdf[-1]
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("build,dist,span", [
    (binned_gaussian_kernel, stats.norm, 6.0),
    (binned_laplace_kernel, stats.laplace, 8.0),
])
def test_binned_kernels_equal_per_row_scipy_cdfs(build, dist, span):
    rng = np.random.default_rng(11)
    for i in range(400):
        values = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 7))) * rng.choice([1e-3, 1.0, 1e3])
        scale = (1e-3, 1e4)[i] if i < 2 else float(np.exp(rng.uniform(-7.0, 9.0)))
        bins = int(rng.integers(1, 40))
        got = build(values, scale, bins).kernel
        assert np.array_equal(got, per_row_kernel(dist, values, scale, bins, span))


def test_copula_plrv_equals_per_state_scipy_cdfs():
    world = World(("s0", "s1"), ("x0",), np.array([[0.5], [0.5]]),
                  frozenset({(0, 1), (1, 0)}))
    for eps_c, bins in ((0.5, 512), (2.0, 64), (7.0, 33)):
        spec = GaussianCopulaSpec(rho=0.5, eta={"s0": 0.0, "s1": 1.0}, eps_c=eps_c,
                                  delta_c=0.02, w=2.0 * math.log(100.0))
        p, q = per_row_kernel(stats.norm, (0.0, 1.0), math.sqrt(spec.var1), bins, 8.0)
        want = pld_from_pair(DistPair(p, q))
        got = copula_plrv(spec, world, 0, 1, bins=bins)
        assert np.array_equal(got.losses, want.losses)
        assert np.array_equal(got.p_mass, want.p_mass) and np.array_equal(got.q_mass, want.q_mass)
        assert got.inf_mass == want.inf_mass


def network_projection(mat):
    """The projection with rows sorted by an odd-even transposition network
    of column compare-exchanges."""
    n = mat.shape[1]
    srt = mat.T.copy()                       # columns x rows, sorted in place
    for r in range(n):
        for j in range(r % 2, n - 1, 2):
            srt[j], srt[j + 1] = np.maximum(srt[j], srt[j + 1]), np.minimum(srt[j], srt[j + 1])
    css = np.cumsum(srt, axis=0) - 1.0
    rho = (srt - css / np.arange(1, n + 1)[:, None] > 0).sum(axis=0)
    theta = css[rho - 1, np.arange(mat.shape[0])] / rho
    return np.maximum(mat - theta[:, None], 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_projection_equals_sort_based(n):
    rng = np.random.default_rng(n)
    for k in range(200):
        mat = rng.normal(size=(int(rng.integers(1, 40)), n)) * rng.choice([1e-3, 1.0, 1e3])
        if k % 3 == 0:
            mat[rng.random(mat.shape) < 0.4] = 0.0        # zeros
        if k % 4 == 1:
            mat = np.round(mat, 1)                       # ties
        if k % 5 == 2:
            mat[:, -1] = mat[:, 0]
        got = project_rows_simplex(mat)
        assert np.array_equal(got, network_projection(mat))
        assert np.allclose(got.sum(axis=1), 1.0)


def one_shot_block_law(spec, world, query_maps, bins, span=8.0):
    f1, f2 = (np.asarray(q, dtype=float) for q in query_maps)
    etas = np.array([spec.eta_of(lbl) for lbl in world.secrets])
    mu_ref = float(etas.mean())
    g1 = np.linspace(f1.min() - span * spec.xi1.spread, f1.max() + span * spec.xi1.spread, bins)
    g2 = np.linspace(f2.min() - span * spec.xi2.spread, f2.max() + span * spec.xi2.spread, bins)
    y1, y2 = np.meshgrid(g1, g2, indexing="ij")
    laws = []
    for s in range(len(world.secrets)):
        m1, m2 = _shift_pair(spec, etas[s], mu_ref)
        cond = world.conditional_dataset(s)
        dens = np.zeros_like(y1)
        for x in range(len(world.datasets)):
            if cond[x] == 0.0:
                continue
            v1, v2 = y1 - f1[x], y2 - f2[x]
            lp = spec.xi1.logpdf(v1) + spec.xi2.logpdf(v2)
            t1 = stats.norm.ppf(np.clip(spec.xi1.cdf(v1), 1e-300, 1 - 1e-16))
            t2 = stats.norm.ppf(np.clip(spec.xi2.cdf(v2), 1e-300, 1 - 1e-16))
            base = lp - stats.norm.logpdf(t1) - stats.norm.logpdf(t2)
            dens += cond[x] * np.exp(base + _coupled_log_density(spec, t1, t2, m1, m2))
        laws.append((dens / dens.sum()).ravel())
    return np.array(laws), g1, g2


def test_block_law_steps_equal_one_shot_law():
    # at mixing 0 each secret has P(x|s) = 0 on all datasets but one
    for world in (mixing_world(0.3), mixing_world(0.0)):
        maps = ((0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0))
        xi1, xi2 = LaplaceMarginal(0.7), GaussianMarginal(1.3)
        g1, g2, terms = block_grid(xi1, xi2, world, maps, bins=13)
        coupling = GaussianCopulaSpec(rho=-0.4, eta={"s0": 0.0, "s1": 1.0}, eps_c=0.0,
                                      delta_c=0.02, w=2.0 * math.log(100.0), xi1=xi1, xi2=xi2)
        for eps_c in (0.01, 0.3, 2.0, 40.0):
            spec = GaussianCopulaSpec(rho=-0.4, eta={"s0": 0.0, "s1": 1.0}, eps_c=eps_c,
                                      delta_c=0.02, w=2.0 * math.log(100.0), xi1=xi1, xi2=xi2)
            want, w1, w2 = one_shot_block_law(spec, world, maps, bins=13)
            assert np.all(np.isfinite(want))
            assert np.array_equal(mix_block_law(spec, world, terms), want)
            # the spec moved to eps_c is the spec built there, and mixes the same law
            assert coupling.with_eps_c(eps_c) == spec
            assert np.array_equal(mix_block_law(coupling.with_eps_c(eps_c), world, terms), want)
            assert np.array_equal(g1, w1) and np.array_equal(g2, w2)


def test_block_law_rows_stay_finite_when_every_cell_underflows():
    # at eps_c <= 1e-4 the effective correlation is within 1e-9 of -1 and
    # every cell's coupled density underflows to 0; the rows are then
    # normalized in the log domain
    world = mixing_world(0.3)
    maps = ((0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0))
    xi1, xi2 = LaplaceMarginal(0.7), GaussianMarginal(1.3)
    _, _, terms = block_grid(xi1, xi2, world, maps, bins=13)
    for eps_c in (1e-4, 1e-5, 1e-6):
        spec = GaussianCopulaSpec(rho=-0.4, eta={"s0": 0.0, "s1": 1.0}, eps_c=eps_c,
                                  delta_c=0.02, w=2.0 * math.log(100.0), xi1=xi1, xi2=xi2)
        with np.errstate(divide="raise", invalid="raise"):  # no 0/0, no NaN
            law = mix_block_law(spec, world, terms)
        assert np.all(np.isfinite(law))
        assert np.allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # oracle: log-sum-exp over the datasets, then over the cells
        etas = np.array([0.0, 1.0])
        for s in range(2):
            m1, m2 = _shift_pair(spec, etas[s], float(etas.mean()))
            cond = world.conditional_dataset(s)
            logs = [math.log(cond[x]) + base + _coupled_log_density(spec, t1, t2, m1, m2)
                    for x, (base, t1, t2) in enumerate(zip(*terms)) if cond[x] > 0.0]
            log_dens = special.logsumexp(logs, axis=0).ravel()
            assert np.allclose(law[s], np.exp(log_dens - special.logsumexp(log_dens)), rtol=1e-9, atol=0)


def _step(switch, strict):
    """A monotone value that jumps at ``switch``, signed for the tie rule:
    ``v <= 0`` above a falling value, ``v > 0`` above a rising one."""
    if strict:
        return (lambda x: 1.0 if x >= switch else -1.0), (lambda v: v > 0.0)
    return (lambda x: -1.0 if x >= switch else 1.0), (lambda v: v <= 0.0)


@pytest.mark.parametrize("strict", [False, True])
def test_bisection_edge_stop_equals_full_run(strict):
    # with no width to reach, the root finder runs until the geometric
    # midpoint rounds onto an end: the bracket of adjacent floats that
    # bisection's full run ends on, in at most one evaluation more
    rng = np.random.default_rng(3)
    for _ in range(300):
        switch = float(np.exp(rng.uniform(-5, 5)))
        lo, hi = switch * 1e-3, switch * 1e3
        value, above = _step(switch, strict)
        calls, ref = [], []

        def counted(x):
            calls.append(x)
            assert len(calls) <= 2_000, "the root finder does not stop"
            return value(x)

        got = monotone_root(counted, lo, hi, value(lo), value(hi), above=above, tol=0.0)
        want = full_bisection(lambda x: ref.append(x) or x >= switch, lo, hi, True, 200)
        assert got == want and math.nextafter(got[0], math.inf) == got[1]
        # the full run's steps that moved an end, i.e. tested a point inside
        bracket, moved = [lo, hi], 0
        for x in ref:
            if bracket[0] < x < bracket[1]:
                bracket[x >= switch], moved = x, moved + 1
        assert len(calls) <= moved + 1
    # a switch next to an end: the other end is moved all the way up to it
    for lo, hi, switch in ((1e-3, 1.0, 1.0), (0.25, 0.5, math.nextafter(0.25, 1.0))):
        value, above = _step(switch, strict)
        got = monotone_root(value, lo, hi, value(lo), value(hi), above=above, tol=0.0)
        assert got == full_bisection(lambda x: x >= switch, lo, hi, True, 300)
        assert got == ((math.nextafter(hi, 0.0), hi) if switch == hi else (lo, switch))


def test_worst_pair_checks_the_law_once_and_still_rejects_bad_rows():
    joint = np.array([[0.3, 0.2], [0.1, 0.4]])
    world = World(("s0", "s1"), ("x0", "x1"), joint, default_adjacency(joint))
    rng = np.random.default_rng(5)
    for _ in range(50):
        law = rng.dirichlet(np.ones(6), size=2)
        law[:, rng.random(6) < 0.3] = 0.0
        law /= law.sum(axis=1, keepdims=True)
        law[0, 0] -= 1e-13                             # a negative within tolerance
        pairs = {(0, 1): DistPair(law[0], law[1]), (1, 0): DistPair(law[1], law[0])}
        eps, delta = float(rng.uniform(0, 2)), float(rng.uniform(0, 0.2))
        assert worst_pair(world, law, eps=eps).values == {
            k: hockey_stick(pair, eps) for k, pair in pairs.items()}
        assert worst_pair(world, law, delta=delta).values == {
            k: optimal_epsilon(pair, delta) for k, pair in pairs.items()}
    for bad in (np.nan, -0.1, 0.9):
        broken = law.copy()
        broken[1, 0] = bad
        with pytest.raises(ValueError):
            worst_pair(world, broken, delta=0.1)
        with pytest.raises(ValueError):
            DistPair(broken[0], broken[1])
