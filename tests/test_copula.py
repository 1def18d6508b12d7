import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from scipy import stats

from dcpkit.copula import (
    EmpiricalMarginal,
    GaussianCopulaSpec,
    GaussianMarginal,
    LaplaceMarginal,
    bivariate_gaussian_cdf,
    block_grid,
    conservative_bound,
    copula_cdf,
    copula_plrv,
    marginal_from_spec,
    mix_block_law,
    perturbed_decomposition,
    psedr_map,
    psedr_samples,
)
from dcpkit.divergence import optimal_epsilon
from dcpkit.cli import main
from dcpkit.model import ModelError, World, default_adjacency, load_model
from dcpkit.pld import privacy_profile

DELTA_C = 0.02
W_MIN = 2 * math.log(2 / DELTA_C)


def make_spec(**kw):
    base = dict(
        rho=0.5,
        eta={"s0": 0.0, "s1": 1.0},
        eps_c=1.0,
        delta_c=DELTA_C,
        w=W_MIN,
        xi1=LaplaceMarginal(2.0),
        xi2=GaussianMarginal(1.5),
    )
    base.update(kw)
    return GaussianCopulaSpec(**base)


def ks_distance(samples, cdf):
    v = np.sort(samples)
    n = v.size
    F = cdf(v)
    return max(np.abs(np.arange(1, n + 1) / n - F).max(), np.abs(np.arange(n) / n - F).max())


def ks_critical(n, alpha=0.01):
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


# ---------------------------------------------------------------- CDF


def test_bivariate_cdf_independence():
    for a, b in ((0.0, 0.0), (0.7, -1.2), (-2.0, 0.4)):
        assert bivariate_gaussian_cdf(a, b, 0.0) == pytest.approx(
            stats.norm.cdf(a) * stats.norm.cdf(b), abs=1e-10
        )


def test_bivariate_cdf_closed_form_at_origin():
    # exact value 1/4 + arcsin(rho)/(2 pi)
    for rho in (0.5, -0.3, 0.9):
        expect = 0.25 + math.asin(rho) / (2 * math.pi)
        assert bivariate_gaussian_cdf(0.0, 0.0, rho) == pytest.approx(expect, abs=1e-10)


def test_bivariate_cdf_marginal_limit():
    assert bivariate_gaussian_cdf(math.inf, 0.3, 0.6) == pytest.approx(stats.norm.cdf(0.3), abs=1e-12)
    assert bivariate_gaussian_cdf(-math.inf, 0.3, 0.6) == 0.0


def test_bivariate_cdf_rejects_unit_rho():
    with pytest.raises(ValueError):
        bivariate_gaussian_cdf(0.0, 0.0, 1.0)


# ---------------------------------------------------------------- spec


def test_spec_validation():
    spec = make_spec()
    assert spec.c_sen == 1.0
    assert spec.var1 == pytest.approx(W_MIN**2)
    with pytest.raises(ValueError, match="rho"):
        make_spec(rho=0.0)
    with pytest.raises(ValueError, match="w ="):
        make_spec(w=1.0)
    with pytest.raises(ValueError, match="c_sen"):
        make_spec(c_sen=2.0)


def test_spec_with_eps_c_checks_eps_c_as_the_constructor_does():
    spec = make_spec()
    moved = spec.with_eps_c(2.5)
    assert moved == dataclasses.replace(spec, eps_c=2.5)
    assert spec.eps_c != 2.5  # the spec itself is left as it was
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError) as moved_err:
            spec.with_eps_c(bad)
        with pytest.raises(ValueError) as built_err:
            make_spec(eps_c=bad)
        assert str(moved_err.value) == str(built_err.value)


def test_spec_degenerate_variance_guard():
    spec = make_spec(eps_c=1e18)
    with pytest.raises(ValueError, match="degenerate variance"):
        _ = spec.var1


def test_spec_constant_eta_needs_floor():
    spec = make_spec(eta={"s0": 1.0, "s1": 1.0})
    with pytest.raises(ValueError, match="var1_floor"):
        _ = spec.var1
    spec = make_spec(eta={"s0": 1.0, "s1": 1.0}, var1_floor=4.0)
    assert spec.var1 == 4.0


def test_marginal_from_spec_round_trip():
    lap = marginal_from_spec({"family": "laplace", "scale": 2.0})
    assert isinstance(lap, LaplaceMarginal)
    emp = marginal_from_spec({"family": "empirical", "points": [[-1, 0.0], [0, 0.5], [1, 1.0]]})
    assert emp.cdf(0.0) == 0.5
    assert emp.ppf(0.25) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        marginal_from_spec({"family": "cauchy"})


# ---------------------------------------------------------------- sampling


def test_psedr_identity_when_marginals_match_latents():
    # xi1 = law of z1, xi2 = law of rho z1 + sqrt(1-rho^2) z2: the inverse
    # transforms compose to the identity
    spec = make_spec()
    sd1 = math.sqrt(spec.var1)
    sd2 = math.sqrt(spec.rho**2 * spec.var1 + 1 - spec.rho**2)
    eta = spec.eta_of("s0")
    spec_id = make_spec(
        xi1=GaussianMarginal(sd1, loc=eta), xi2=GaussianMarginal(sd2, loc=spec.rho * eta)
    )
    rng = np.random.default_rng(0)
    out = psedr_samples(spec_id, "s0", rng, 1000)
    assert np.allclose(out["v1"], out["z1"], atol=1e-9)
    zhat = spec.rho * out["z1"] + math.sqrt(1 - spec.rho**2) * out["z2"]
    assert np.allclose(out["v2"], zhat, atol=1e-9)


def test_psedr_bit_exact_replay():
    spec = make_spec()
    a = psedr_samples(spec, "s1", np.random.default_rng(42), 500)
    b = psedr_samples(spec, "s1", np.random.default_rng(42), 500)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_psedr_single_sample_provenance():
    spec = make_spec()
    s = psedr_samples(spec, "s0", np.random.default_rng(3), 1)
    u1, u2, v1, v2 = psedr_map(spec, "s0", s["z1"], s["z2"])
    assert np.array_equal(v1, s["v1"]) and np.array_equal(v2, s["v2"])


def test_psedr_marginals_ks():
    spec = make_spec()
    n = 100_000
    for state in ("s0", "s1"):
        out = psedr_samples(spec, state, np.random.default_rng(7), n)
        crit = 1.5 * ks_critical(n)
        assert ks_distance(out["v1"], spec.xi1.cdf) < crit
        assert ks_distance(out["v2"], spec.xi2.cdf) < crit


def test_psedr_rejects_bad_count():
    with pytest.raises(ValueError):
        psedr_samples(make_spec(), "s0", np.random.default_rng(0), 0)


# ---------------------------------------------------------------- copula cdf


def test_copula_cdf_marginal_property():
    spec = make_spec()
    for v1 in (-2.0, 0.0, 1.5):
        assert copula_cdf(spec, v1, 1e9) == pytest.approx(float(spec.xi1.cdf(v1)), abs=1e-9)
    for v2 in (-1.0, 0.5):
        assert copula_cdf(spec, 1e9, v2) == pytest.approx(float(spec.xi2.cdf(v2)), abs=1e-9)


def test_copula_cdf_at_medians_is_effective_corr_cdf():
    spec = make_spec(eta={"s0": 0.0, "s1": 0.0}, var1_floor=W_MIN**2)
    v1 = float(spec.xi1.ppf(0.5))
    v2 = float(spec.xi2.ppf(0.5))
    expect = bivariate_gaussian_cdf(0.0, 0.0, spec.effective_correlation)
    assert copula_cdf(spec, v1, v2) == pytest.approx(expect, abs=1e-10)


def test_copula_cdf_grounded_and_two_increasing():
    spec = make_spec()
    qs = np.linspace(0.1, 0.9, 5)
    g1 = spec.xi1.ppf(qs)
    g2 = spec.xi2.ppf(qs)
    H = np.array([[copula_cdf(spec, a, b) for b in g2] for a in g1])
    rect = H[1:, 1:] - H[:-1, 1:] - H[1:, :-1] + H[:-1, :-1]
    assert rect.min() >= -1e-10
    assert copula_cdf(spec, -1e12, 0.0) == 0.0
    # uniform marginals after the probability-integral transform
    for q, a in zip(qs, g1):
        assert copula_cdf(spec, a, 1e12) == pytest.approx(q, abs=1e-9)


def test_copula_cdf_matches_sampled_frequencies():
    spec = make_spec()
    out = psedr_samples(spec, "s0", np.random.default_rng(11), 1_000_000)
    for q1 in (0.25, 0.5, 0.75):
        for q2 in (0.25, 0.5, 0.75):
            v1 = float(spec.xi1.ppf(q1))
            v2 = float(spec.xi2.ppf(q2))
            emp = float(np.mean((out["v1"] <= v1) & (out["v2"] <= v2)))
            assert abs(emp - copula_cdf(spec, v1, v2)) < 0.01


def test_rho_prime_knob_overrides_correlation():
    spec = make_spec(rho_prime=0.3)
    assert spec.effective_correlation == 0.3


# ---------------------------------------------------------------- loss accounting


def _pair_world():
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    return World(("s0", "s1"), ("x0", "x1"), joint, default_adjacency(joint))


def test_copula_plrv_constant_eta_is_point_mass():
    spec = make_spec(eta={"s0": 1.0, "s1": 1.0}, var1_floor=4.0)
    pld = copula_plrv(spec, _pair_world(), 0, 1)
    assert np.array_equal(pld.losses, [0.0]) and pld.inf_mass == 0.0


def test_copula_plrv_degenerate_variance_errors():
    spec = make_spec(eps_c=1e18)
    with pytest.raises(ValueError, match="degenerate variance"):
        copula_plrv(spec, _pair_world(), 0, 1)


def test_copula_plrv_tail_bound():
    spec = make_spec()
    pld = copula_plrv(spec, _pair_world(), 0, 1, bins=512)
    assert privacy_profile(pld, spec.eps_c) <= spec.delta_c + 1e-3
    # oracle: the analytic mean-shift tail at eps_c
    sd = math.sqrt(spec.var1)
    analytic = stats.norm.cdf(0.5 / sd - spec.eps_c * sd) - math.exp(spec.eps_c) * stats.norm.cdf(
        -0.5 / sd - spec.eps_c * sd
    )
    assert privacy_profile(pld, spec.eps_c) <= max(analytic, 0.0) + 1e-3


def test_copula_plrv_requires_adjacency():
    world = _pair_world()
    with pytest.raises(ValueError, match="adjacent"):
        copula_plrv(make_spec(), world, 0, 0)


def test_psedr_samples_marginals_and_correlation():
    spec = make_spec(rho=1e-6)
    rng = np.random.default_rng(13)
    out = psedr_samples(spec, "s0", rng, 40_000)
    corr = np.corrcoef(out["v1"], out["v2"])[0, 1]
    assert abs(corr) <= 0.02  # near-zero coupling stays near zero
    # symmetric case: identical marginals in distribution
    spec_sym = make_spec(xi1=GaussianMarginal(1.0), xi2=GaussianMarginal(1.0))
    out = psedr_samples(spec_sym, "s0", rng, 50_000)
    ks = stats.ks_2samp(out["v1"], out["v2"])
    assert ks.pvalue > 0.01


def test_perturbed_decomposition_additivity():
    world = _pair_world()
    spec = make_spec()
    dec = perturbed_decomposition(spec, world, ((0.0, 1.0), (0.0, 0.5)), 0, 1, bins=96)
    resid = np.abs(dec.total - (dec.unperturbed + dec.copula_term)).max()
    assert resid <= 1e-6


def test_accounting_refuses_an_empirical_marginal():
    # sampling takes all three families; the accounting needs a density
    empirical = EmpiricalMarginal([-3.0, 0.0, 3.0], [0.0, 0.5, 1.0])
    world, fmaps = _pair_world(), ((0.0, 1.0), (0.0, 0.5))
    for xi1, xi2 in ((empirical, GaussianMarginal(1.0)), (LaplaceMarginal(1.0), empirical)):
        spec = make_spec(xi1=xi1, xi2=xi2)
        assert psedr_samples(spec, "s0", np.random.default_rng(3), 10)["v1"].shape == (10,)
        for run in (lambda: perturbed_decomposition(spec, world, fmaps, 0, 1, bins=16),
                    lambda: block_grid(xi1, xi2, world, fmaps, bins=9)):
            with pytest.raises(ValueError, match="'empirical' has no density.*block_grid, perturbed_decomposition"):
                run()


def test_conservative_bound_dominates_perturbed_true_opt():
    # moderate coupling; in the comonotone limit (effective correlation
    # near 1) the independence-based bound is known to fail
    world = _pair_world()
    tag_delta = 0.004
    spec = make_spec(rho=0.1, delta_c=tag_delta, w=2 * math.log(2 / tag_delta))
    dec = perturbed_decomposition(spec, world, ((0.0, 1.0), (0.0, 0.5)), 0, 1, bins=96)
    true = optimal_epsilon(dec.pair, 0.02)
    eps1, eps2 = (optimal_epsilon(pair, tag_delta) for pair in dec.marginal_pairs)
    bound = conservative_bound(spec, eps1, tag_delta, eps2, tag_delta, 0.02)
    assert math.isfinite(bound)
    assert true <= bound + 1e-9


def test_conservative_bound_below_basic_sum():
    # at the summed-delta budget the optimal composition never beats basic
    # summation
    spec = make_spec(eps_c=0.2)
    eps1, d1, eps2, d2 = 0.3, 0.01, 0.25, 0.015
    dg = spec.delta_c + d1 + d2
    bound = conservative_bound(spec, eps1, d1, eps2, d2, dg)
    assert bound <= spec.eps_c + eps1 + eps2 + 1e-12


def test_conservative_bound_reduces_without_coupling_cost():
    # a (0, 0) coupling budget contributes a zero-loss atom only
    from dcpkit.composition import dp_optcomp

    spec = make_spec(eps_c=0.0, delta_c=0.02, w=2 * math.log(2 / 0.02), var1_floor=None)
    # eps_c = 0 makes var1 infinite, which only matters for sampling; the
    # budget-level bound uses the (eps_c, delta_c) numbers directly
    b1 = conservative_bound(spec, 0.5, 0.01, 0.7, 0.02, 0.08)
    b2 = dp_optcomp([(0.0, 0.02), (0.5, 0.01), (0.7, 0.02)], 0.08)
    assert b1 == pytest.approx(b2, abs=1e-12)


def test_coupled_block_law_rows_normalized():
    world = World(("s0", "s1"), ("x0", "x1"),
                  np.array([[0.45, 0.05], [0.05, 0.45]]),
                  default_adjacency(np.array([[0.45, 0.05], [0.05, 0.45]])))
    spec = make_spec()
    g1, g2, terms = block_grid(spec.xi1, spec.xi2, world, ((0.0, 1.0), (0.0, 0.5)), bins=15)
    law = mix_block_law(spec, world, terms)
    assert law.shape == (2, 225)
    assert np.allclose(law.sum(axis=1), 1.0, atol=1e-12)
    assert not np.allclose(law[0], law[1])


def test_coupled_block_law_matches_decomposition_on_invertible_world():
    # two independent code paths for the same model: the mixture-based law
    # with one-hot conditionals must match the pinned-dataset decomposition
    # (compared through divergence functionals, which ignore dead cells)
    from dcpkit.divergence import DistPair, hockey_stick

    spec = make_spec()
    world = _pair_world()
    fmaps = ((0.0, 1.0), (0.0, 0.5))
    g1, g2, terms = block_grid(spec.xi1, spec.xi2, world, fmaps, bins=41)
    law = mix_block_law(spec, world, terms)
    dec = perturbed_decomposition(spec, world, fmaps, 0, 1, bins=41)
    assert np.allclose(g1, dec.grid1) and np.allclose(g2, dec.grid2)
    pair_block = DistPair(law[0], law[1])
    for eps in (0.0, 0.3, 0.8, 1.5):
        assert hockey_stick(pair_block, eps) == pytest.approx(
            hockey_stick(dec.pair, eps), abs=1e-12
        )
    assert optimal_epsilon(pair_block, 0.02) == pytest.approx(
        optimal_epsilon(dec.pair, 0.02), abs=1e-9
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_marginals_refuse_a_bad_scale_or_loc(bad):
    for family in (LaplaceMarginal, GaussianMarginal):
        with pytest.raises(ValueError):
            family(bad)
        if not math.isfinite(bad):
            with pytest.raises(ValueError):
                family(1.0, loc=bad)


def _same_values(got, want):
    """Equal type, shape and bits, NaN payloads aside (scipy writes its own NaN
    where the closed form carries the input's)."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300, 745.0, -745.0]


@pytest.mark.parametrize("loc,scale", [(0.0, 1.0), (-2.5, 0.7), (3.0, 40.0), (1e3, 1e-3)])
@pytest.mark.parametrize("family,dist", [(LaplaceMarginal, stats.laplace), (GaussianMarginal, stats.norm)])
def test_marginal_closed_forms_match_scipy_bit_for_bit(family, dist, loc, scale):
    from dcpkit.copula import _normal_score

    rng = np.random.default_rng(5)
    xi = family(scale, loc=loc)
    v = np.concatenate([loc + scale * rng.standard_normal(20_000),
                        loc + scale * rng.uniform(-40.0, 40.0, 20_000),
                        loc + scale * np.array(_SPECIALS), _SPECIALS])
    ulp = np.spacing(0.5)
    q = np.concatenate([rng.uniform(size=20_000),
                        [0.0, -0.0, 1.0, 0.5, 0.5 - ulp, 0.5 + ulp, 1e-300, 1 - 1e-16, math.nan]])
    args = {"loc": loc, "scale": scale}
    for method, points in (("cdf", v), ("pdf", v), ("logpdf", v), ("ppf", q)):
        want = getattr(dist, method)
        got = getattr(xi, method)
        _same_values(got(points), want(points, **args))
        for x in points[-9:]:                   # Python scalars: np.float64 back, as scipy
            _same_values(got(float(x)), want(float(x), **args))
    _same_values(_normal_score(xi, v),
                 stats.norm.ppf(np.clip(dist.cdf(v, **args), 1e-300, 1 - 1e-16)))


def test_spec_refuses_non_finite_numbers_and_an_overflowing_variance():
    for kw in ({"eps_c": math.nan}, {"w": math.nan}, {"w": math.inf},
               {"eta": {"s0": 0.0, "s1": math.nan}}, {"c_sen": math.nan}):
        with pytest.raises(ValueError):
            make_spec(**kw)
    with pytest.raises(ValueError, match="degenerate variance"):
        _ = make_spec(w=1e308).var1


@pytest.mark.parametrize("path,value", [
    (("xi1", "scale"), math.nan),
    (("xi2", "sigma"), math.nan),
    (("w",), 1e308),
    (("eps_c",), 0.0),
    (("eta", "s1"), math.nan),
])
def test_model_with_a_bad_copula_section_is_refused_at_load(tmp_path, capsys, path, value):
    demo = pathlib.Path(__file__).parent.parent / "demos" / "models" / "mixing_pair.json"
    model = json.loads(demo.read_text())
    node = model["copula"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(model))
    with pytest.raises(ModelError, match="copula section"):
        load_model(bad)
    assert main(["--model", str(bad), "copula-sample", "-n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("dcp: error: copula section")
