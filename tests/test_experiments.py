import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from dcpkit import experiments, synth
from dcpkit.divergence import Law, LossProfile, monotone_root
from dcpkit.experiments import (
    _QUERY_MAPS,
    COPULA_EPS_G,
    COPULA_EPS_I,
    INDEPENDENT_EPS_G,
    INDEPENDENT_EPS_I,
    LAM,
    MECH_BINS,
    run_copula_experiment,
    run_independent_experiment,
)
from dcpkit.model import effective_kernel, mix_kernel
from dcpkit.synth import (
    _GAUSSIAN,
    _LAPLACE,
    _calibrate_noise_scale,
    binned_gaussian_kernel,
    binned_laplace_kernel,
    mixing_world,
)

# each kernel builder's noise family, as ``_calibrate_noise_scale`` takes it
NOISE = {binned_gaussian_kernel: _GAUSSIAN, binned_laplace_kernel: _LAPLACE}


def test_default_grids():
    assert len(INDEPENDENT_EPS_G) == len(INDEPENDENT_EPS_I) == 5
    assert len(COPULA_EPS_G) == len(COPULA_EPS_I) == 6


def test_independent_experiment_shape_and_monotonicity():
    res = run_independent_experiment(seed=0)
    assert len(res.rows) == 5
    aucs_c = [r.auc_composed for r in res.rows]
    aucs_s = [r.auc_single for r in res.rows]
    assert all(b >= a - 1e-9 for a, b in zip(aucs_c, aucs_c[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(aucs_s, aucs_s[1:]))
    for r in res.rows:
        assert r.composed_delta <= r.delta_g + 1e-9
        assert r.single_delta <= r.delta_g + 1e-9
        assert 0.5 <= r.auc_composed <= 1.0


def test_copula_experiment_fills_budget():
    res = run_copula_experiment(seed=0)
    assert len(res.rows) == 6
    for r in res.rows:
        assert r.ic_flag == "coupling-filled"
        assert r.composed_delta == pytest.approx(r.delta_g, abs=1e-6)
    # the calibrated coupling strength grows with the budget
    fills = [r.fill_parameter for r in res.rows]
    assert all(b > a for a, b in zip(fills, fills[1:]))


def test_experiment_deterministic_replay():
    a = run_independent_experiment(seed=5, eps_gs=(0.5, 1.5), eps_is=(0.1, 0.3))
    b = run_independent_experiment(seed=5, eps_gs=(0.5, 1.5), eps_is=(0.1, 0.3))
    assert a.rows == b.rows


@pytest.mark.parametrize("kernel,bins", [(binned_gaussian_kernel, MECH_BINS),
                                         (binned_laplace_kernel, 3 * MECH_BINS)])
def test_noise_calibration_returns_the_least_scale(kernel, bins):
    # tight(s) <= target < tight(s / (1 + 1e-12)): s is the least scale
    # meeting the target, to within the root finder's tolerance
    world = mixing_world(LAM)

    def tight(scale, values):
        return effective_kernel(world, kernel(values, scale, bins)).worst(world, delta=0.02).value

    for values in _QUERY_MAPS:
        for target in (0.05, 0.18, 0.6, 1.0, 3.0):
            s = _calibrate_noise_scale(world, NOISE[kernel], values, target, 0.02, bins)
            assert tight(s, values) <= target < tight(s / (1.0 + 1e-12), values)


@pytest.mark.parametrize("kernel,bins", [(binned_gaussian_kernel, MECH_BINS),
                                         (binned_laplace_kernel, 3 * MECH_BINS)])
@pytest.mark.parametrize("delta", [0.02, 0.0])
def test_noise_calibration_meets_delta_at_the_target(kernel, bins, delta):
    # the same scales on the route the root finder reads and ``audit`` reads
    # back: delta(s) <= delta < delta(s / (1 + 1e-12)) at the target epsilon;
    # at delta = 0 every value is +-inf and each step bisects
    world = mixing_world(LAM)

    def reached(scale, values, target):
        return effective_kernel(world, kernel(values, scale, bins)).worst(world, eps=target).value

    for values in _QUERY_MAPS:
        for target in (0.05, 0.18, 0.6, 1.0, 3.0):
            s = _calibrate_noise_scale(world, NOISE[kernel], values, target, delta, bins)
            assert reached(s, values, target) <= delta < reached(s / (1.0 + 1e-12), values, target)


@pytest.mark.parametrize("kernel,bins", [(binned_gaussian_kernel, MECH_BINS),
                                         (binned_laplace_kernel, 3 * MECH_BINS),
                                         (binned_gaussian_kernel, 33)])  # the audit's single mechanism
def test_noise_scale_step_equals_the_mechanisms_law_bit_for_bit(monkeypatch, kernel, bins):
    # a step mixes and checks the binned rows without building the mechanism,
    # its labels or its effective kernel, and reads the very same value, on
    # mixtures with zero entries (small scales) and without
    world, delta = mixing_world(LAM), 0.02
    steps = []
    monkeypatch.setattr(synth, "monotone_root", lambda value, lo, hi, *a, **k: steps.append(value) or (lo, hi))
    for target in (0.05, 0.6, 3.0):
        for values in _QUERY_MAPS:
            _calibrate_noise_scale(world, NOISE[kernel], values, target, delta, bins)
            step = steps[-1]
            for sigma in np.geomspace(1e-3, 1e4, 200):
                reached = effective_kernel(world, kernel(values, sigma, bins)).worst(world, eps=target).value
                want = -math.inf if reached == 0.0 else math.log(reached / delta)
                assert step(sigma).hex() == want.hex(), (target, values, sigma)


def test_a_noise_scale_step_builds_no_law_where_every_outcome_is_live(monkeypatch):
    # a mixture without a zero entry is read as one array; one with a zero
    # goes through ``Law.worst``, whose dead-outcome cut orders the sum
    world, built, steps = mixing_world(LAM), [], []
    monkeypatch.setattr(synth, "Law", lambda matrix: built.append(matrix) or Law(matrix))
    monkeypatch.setattr(synth, "monotone_root", lambda value, lo, hi, *a, **k: steps.append(value) or (lo, hi))
    _calibrate_noise_scale(world, _GAUSSIAN, _QUERY_MAPS[0], 0.6, 0.02, MECH_BINS)
    built.clear()
    for sigma, laws in ((0.5, 0), (1e-3, 1)):
        mixed = mix_kernel(world, binned_gaussian_kernel(_QUERY_MAPS[0], sigma, MECH_BINS).kernel)
        assert (mixed.min() > 0.0) == (laws == 0)
        steps[-1](sigma)
        assert len(built) == laws, sigma


@pytest.mark.parametrize("noise", [_GAUSSIAN, _LAPLACE])
def test_binned_noise_is_the_linspace_and_diff_form_bit_for_bit(noise):
    span, cdf = noise
    for values in _QUERY_MAPS:
        values = np.asarray(values)
        for scale in np.geomspace(1e-3, 1e4, 200):
            for bins in (MECH_BINS, 9, 3 * MECH_BINS, 33):
                edges = np.linspace(values.min() - span * scale, values.max() + span * scale, bins + 1)
                want = cdf((edges[None, :] - values[:, None]) / scale)
                rows = np.diff(want, axis=1)
                rows[:, 0] += want[:, 0]
                rows[:, -1] += 1.0 - want[:, -1]
                assert rows.tobytes() == synth._binned_noise(values, scale, bins, span, cdf).tobytes()


@pytest.mark.parametrize("kernel", [binned_gaussian_kernel, binned_laplace_kernel])
def test_noise_calibration_refuses_an_unreachable_target(kernel):
    # the copula experiment's first Laplace marginal at eps_i = 50: even the
    # least noise in the bracket stays below the target, so no scale hits it
    world = mixing_world(0.005)
    with pytest.raises(ValueError, match="outside the reachable range"):
        _calibrate_noise_scale(world, NOISE[kernel], (0.0, 1.0, 0.0, 1.0), 50.0, 0.02, 21)


@pytest.mark.parametrize("seed", [0, 1])
def test_default_grids_stay_inside_the_budget(seed):
    # no slack: the single mechanism is calibrated on the delta its audit
    # reads, and every fill the budget admits keeps the composition inside it
    for run in (run_independent_experiment, run_copula_experiment):
        for r in run(seed=seed).rows:
            assert r.single_delta <= r.delta_g, (run.__name__, r.eps_g)
            if "fill-infeasible" not in r.ic_flag:
                assert r.composed_delta <= r.delta_g, (run.__name__, r.eps_g)


def test_root_finder_evaluations_on_the_default_grids(monkeypatch):
    # every calibration of both default grids, flat-ended fills included,
    # within 20 evaluations (bisection takes 44 on a scale, 34 on eps_c);
    # both fills and every noise scale go through ``synth``'s root finder
    counts = []

    def counted(value, *args, **kwargs):
        counts.append(0)

        def tally(x):
            counts[-1] += 1
            return value(x)
        return monotone_root(tally, *args, **kwargs)

    monkeypatch.setattr(synth, "monotone_root", counted)
    run_independent_experiment(seed=0)
    run_copula_experiment(seed=0)
    assert (len(counts), sum(counts)) == (66, 841)
    assert max(counts) <= 20


@pytest.mark.parametrize("run,eps_g,eps_i,shrink", [(run_independent_experiment, 5.0, 1.0, 1e-12),
                                                     (run_copula_experiment, 1.0, 0.18, 1e-8)])
def test_the_direct_route_has_the_last_word_on_a_fill(monkeypatch, run, eps_g, eps_i, shrink):
    # loss-profile reads a little below the joined law's delta end the root
    # finder where the law itself is over budget: the fill steps outward
    # until the direct route passes it, and the row stays inside the budget
    read = LossProfile.hockey_stick
    monkeypatch.setattr(LossProfile, "hockey_stick",
                        lambda self, a, b, eps: read(self, a, b, eps) * (1.0 - shrink))
    brackets, fills, root, fill = [], [], synth.monotone_root, experiments.fill_budget
    monkeypatch.setattr(synth, "monotone_root", lambda *a, **k: brackets.append(root(*a, **k)) or brackets[-1])

    def fill_budget(*args, **kwargs):
        start = len(brackets)
        law, x = fill(*args, **kwargs)
        fills.append((brackets[start:], x))
        return law, x

    monkeypatch.setattr(experiments, "fill_budget", fill_budget)
    (row,) = run(eps_gs=(eps_g,), eps_is=(eps_i,)).rows
    # the fill's one bracket holds the switch that the loss profiles read,
    # and the fill stepped out of it
    (((lo, hi),), x), = fills
    assert not lo <= x <= hi and row.fill_parameter == x
    assert row.composed_delta <= row.delta_g


def test_mismatched_grids_rejected():
    with pytest.raises(ValueError):
        run_independent_experiment(eps_gs=(0.5,), eps_is=(0.1, 0.2))


# Budget points at seeds 0 and 1: "independent" lies in the IC band (the
# task-1 solver runs), "independent-pi-empty" below it (the constraint set is
# empty, so only the fill runs), and the copula one fills the coupling.
# tests/data/experiment_rows.json holds these rows with every scale and fill
# found by the ITP root finder (``divergence.monotone_root``); each moves
# within its bracket's tolerance with any change to the steps, and the rows
# must match exactly.
GOLDEN_POINTS = {
    "independent": (run_independent_experiment, 5.0, 1.0),
    "independent-pi-empty": (run_independent_experiment, 0.5, 0.1),
    "copula": (run_copula_experiment, 1.0, 0.18),
}
GOLDEN_FILE = pathlib.Path(__file__).parent / "data" / "experiment_rows.json"


def golden_rows() -> dict:
    rows = {}
    for name, (run, eps_g, eps_i) in GOLDEN_POINTS.items():
        for seed in (0, 1):
            (row,) = run(seed=seed, eps_gs=(eps_g,), eps_is=(eps_i,)).rows
            rows[f"{name}-{seed}"] = dataclasses.asdict(row)
    return rows


def test_rows_match_golden_file_exactly():
    assert golden_rows() == json.loads(GOLDEN_FILE.read_text())


def test_each_unordered_pair_of_each_law_is_sorted_once(monkeypatch):
    # the fills read the fixed factor's pairs in both orientations and the
    # audit reads the judged law's ROC: each reads a pair's one loss order,
    # so no unordered pair of a law is sorted twice (its arrays stay alive
    # here, so their ids name it)
    sorted_pairs = []
    init = LossProfile.__init__

    def counted(self, pair):
        sorted_pairs.append((pair.p, pair.q))
        init(self, pair)

    monkeypatch.setattr(LossProfile, "__init__", counted)
    for run, eps_g, eps_i in GOLDEN_POINTS.values():
        run(seed=0, eps_gs=(eps_g,), eps_is=(eps_i,))
    keys = [frozenset((id(p), id(q))) for p, q in sorted_pairs]
    assert len(keys) >= 3 and len(set(keys)) == len(keys)
