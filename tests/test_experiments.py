import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest

from dcpkit import experiments, synth
from dcpkit.divergence import Law, LossProfile, monotone_root, monotone_roots
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
from generators import dirichlet_world

# each kernel builder's noise family, as ``_calibrate_noise_scale`` takes it
NOISE = {binned_gaussian_kernel: _GAUSSIAN, binned_laplace_kernel: _LAPLACE}


def _capture(steps):
    """A stand-in for ``synth.monotone_roots`` that keeps each calibration's
    batched value function in ``steps`` and returns the brackets as given."""
    return lambda values, brackets, **kwargs: steps.append(values) or [b[:2] for b in brackets]


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
    # mixtures with zero entries (small scales) and without; a step of all
    # four query maps at once, each at its own scale, reads them too
    world, delta = mixing_world(LAM), 0.02
    steps, sigmas = [], np.geomspace(1e-3, 1e4, 200)
    monkeypatch.setattr(synth, "monotone_roots", _capture(steps))
    for target in (0.05, 0.6, 3.0):
        wants = []
        for values in _QUERY_MAPS:
            _calibrate_noise_scale(world, NOISE[kernel], values, target, delta, bins)
            step, wants = steps[-1], wants + [[]]
            for sigma in sigmas:
                reached = effective_kernel(world, kernel(values, sigma, bins)).worst(world, eps=target).value
                wants[-1].append((-math.inf if reached == 0.0 else math.log(reached / delta)).hex())
                assert step([0], [sigma])[0].hex() == wants[-1][-1], (target, values, sigma)
        synth._calibrate_noise_scales(world, NOISE[kernel], _QUERY_MAPS, target, delta, bins)
        for i in range(len(sigmas)):
            # the maps at scales 50 grid points apart: small and large ones in one step
            at = [(i + 50 * k) % len(sigmas) for k in range(4)]
            got = steps[-1](list(range(4)), [sigmas[j] for j in at])
            assert [x.hex() for x in got] == [wants[k][j] for k, j in enumerate(at)], (target, i)


def test_a_noise_scale_step_builds_no_law_where_every_outcome_is_live(monkeypatch):
    # a mixture without a zero entry is read as one array; one with a zero
    # is built into a ``Law``, whose dead-outcome cut orders the sum
    world, built, steps = mixing_world(LAM), [], []
    init = Law.__post_init__
    monkeypatch.setattr(Law, "__post_init__", lambda law: built.append(law) or init(law))
    monkeypatch.setattr(synth, "monotone_roots", _capture(steps))
    _calibrate_noise_scale(world, _GAUSSIAN, _QUERY_MAPS[0], 0.6, 0.02, MECH_BINS)
    built.clear()
    for sigma, laws in ((0.5, 0), (1e-3, 1)):
        mixed = mix_kernel(world, binned_gaussian_kernel(_QUERY_MAPS[0], sigma, MECH_BINS).kernel)
        assert (mixed.min() > 0.0) == (laws == 0)
        steps[-1]([0], [sigma])
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


def _outcome(calibrate):
    """What ``calibrate()`` returns, or the type and message of what it raises."""
    try:
        return calibrate()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


# worlds for the lockstep: small and moderate mixing, one-hot conditionals,
# a Dirichlet joint, a zero-prior secret (``mix_kernel``'s uniform row) and
# three secrets
LOCKSTEP_WORLDS = {
    "mixing-0": mixing_world(0.0),
    "mixing-0.005": mixing_world(LAM),
    "mixing-0.3": mixing_world(0.3),
    "dirichlet": dirichlet_world(np.random.default_rng(24), 2, 4),
    "zero-prior": mixing_world(LAM, n_secrets=3, prior=(0.5, 0.5, 0.0)),
    "three-secrets": mixing_world(0.3, n_secrets=3),
}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_WORLDS))
def test_lockstep_scales_equal_one_at_a_time_calibrations(name):
    # K = 1..4 query maps calibrated together give each the scale it gets
    # alone, float for float, on every noise family, bin count and target
    world = LOCKSTEP_WORLDS[name]
    for noise in (_GAUSSIAN, _LAPLACE):
        for bins in (MECH_BINS, 3 * MECH_BINS, 33):
            for target in (0.05, 0.6, 3.0):
                alone = [_outcome(lambda: _calibrate_noise_scale(world, noise, values, target, 0.02, bins))
                         for values in _QUERY_MAPS]
                for k in range(1, 5):
                    together = _outcome(lambda: synth._calibrate_noise_scales(
                        world, noise, _QUERY_MAPS[:k], target, 0.02, bins))
                    failed = [a for a in alone[:k] if isinstance(a, tuple)]
                    if failed:
                        assert together == failed[0], (noise, bins, target, k)
                    else:
                        assert [x.hex() for x in together] == [x.hex() for x in alone[:k]], (noise, bins, target, k)


@pytest.mark.parametrize("batch", [
    [_QUERY_MAPS[0], (0.0, 0.0, 0.0, 0.0), _QUERY_MAPS[1]],   # a constant query: no target reachable
    [_QUERY_MAPS[0], (0.0, 1.0, 0.0), _QUERY_MAPS[1]],        # three values on four datasets
    [(0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0)],                   # the first failure decides
    [(0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 0.0)],
    [_QUERY_MAPS[0], (0.0, 1.0, math.nan, 0.0), _QUERY_MAPS[1]],  # non-finite binned rows
    [_QUERY_MAPS[0], (0.0, math.inf, 1.0, 0.0)],
    [_QUERY_MAPS[1], (1.0, 0.0, 0.0, -math.inf)],
    [(0.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 1.0, 0.0)],
    [(0.0, math.inf, 1.0, 0.0), (0.0, 1.0, 0.0)],
])
def test_a_failing_lockstep_raises_what_the_sequential_loop_raises(batch):
    # the batch raises what one of its vectors raises alone: the first wrong
    # length before anything else, then the first non-finite binned row (its
    # row number counts the batch's stacked rows), then an unreachable
    # target; also without adjacent pairs, which the bracket ends meet
    def fault(outcome):
        kind, message = outcome
        return kind, re.sub(r"row \d+", "row", message)

    def rank(outcome):
        return 0 if "query values" in outcome[1] else 1 if "non-finite" in outcome[1] else 2

    world = mixing_world(LAM)
    for world in (world, dataclasses.replace(world, adjacency=frozenset())):
        for noise, bins in ((_GAUSSIAN, MECH_BINS), (_LAPLACE, 3 * MECH_BINS)):
            for target in (0.6, 50.0):
                alone = [_outcome(lambda: _calibrate_noise_scale(world, noise, values, target, 0.02, bins))
                         for values in batch]
                failed = [a for a in alone if isinstance(a, tuple)]
                assert failed
                got = _outcome(lambda: synth._calibrate_noise_scales(world, noise, batch, target, 0.02, bins))
                assert isinstance(got, tuple)
                assert fault(got) == fault(min(failed, key=rank)), (noise, target)


@pytest.mark.parametrize("delta", [math.nan, -0.1, 1.5, -math.inf])
def test_noise_calibration_refuses_a_delta_outside_the_unit_interval(delta):
    # a NaN or negative delta once calibrated as delta = 0, and delta > 1 was
    # refused as an unreachable eps_target
    world = mixing_world(LAM)
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\], got"):
        synth.calibrate_gaussian_mechanism(world, _QUERY_MAPS[0], 0.5, delta, bins=MECH_BINS)
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\], got"):
        synth._calibrate_noise_scales(world, _LAPLACE, _QUERY_MAPS[:3], 0.5, delta, 3 * MECH_BINS)


@pytest.mark.parametrize("seed", [0, 1])
def test_default_grids_stay_inside_the_budget(seed):
    # no slack: the single mechanism is calibrated on the delta its audit
    # reads, and every fill the budget admits keeps the composition inside it
    for run in (run_independent_experiment, run_copula_experiment):
        for r in run(seed=seed).rows:
            assert r.single_delta <= r.delta_g, (run.__name__, r.eps_g)
            if "fill-infeasible" not in r.ic_flag:
                assert r.composed_delta <= r.delta_g, (run.__name__, r.eps_g)


def _count_evaluations(monkeypatch):
    """Evaluations per search of ``synth``'s root finders, the fills' one at
    a time and the noise scales' in lockstep, and each lockstep's batch
    sizes, one per batched value call."""
    counts, batches = [], []

    def counted(value, *args, **kwargs):
        counts.append(0)

        def tally(x):
            counts[-1] += 1
            return value(x)
        return monotone_root(tally, *args, **kwargs)

    def counted_lockstep(values, brackets, **kwargs):
        first, sizes = len(counts), []
        counts.extend([0] * len(brackets))
        batches.append(sizes)

        def tally(which, points):
            sizes.append(len(which))
            for k in which:
                counts[first + k] += 1
            return values(which, points)
        return monotone_roots(tally, brackets, **kwargs)

    monkeypatch.setattr(synth, "monotone_root", counted)
    monkeypatch.setattr(synth, "monotone_roots", counted_lockstep)
    return counts, batches


def test_root_finder_evaluations_on_the_default_grids(monkeypatch):
    # every calibration of both default grids, flat-ended fills included,
    # within 20 evaluations (bisection takes 44 on a scale, 34 on eps_c);
    # both fills and every noise scale go through ``synth``'s root finders
    counts, _ = _count_evaluations(monkeypatch)
    run_independent_experiment(seed=0)
    run_copula_experiment(seed=0)
    assert (len(counts), sum(counts)) == (66, 841)
    assert max(counts) <= 20


def test_default_grids_calibrate_in_lockstep(monkeypatch):
    # a point's four query maps (independent), or its two Laplace marginals
    # and two Gaussians (copula), share their steps; the audit's single
    # mechanism calibrates alone.  Each lockstep makes one batched value
    # call per round, as many rounds as its longest search takes
    counts, batches = _count_evaluations(monkeypatch)
    run_independent_experiment(seed=0)
    run_copula_experiment(seed=0)
    assert [max(sizes) for sizes in batches] == [4, 1] * 5 + [2, 2, 1] * 6
    assert sum(len(sizes) for sizes in batches) == BATCHED_CALLS
    # every noise-scale evaluation is one member of a batched call
    assert sum(map(sum, batches)) == sum(counts) - FILL_EVALUATIONS


# batched value calls (709 noise-scale evaluations one at a time) and fill
# evaluations over both default grids at seed 0
BATCHED_CALLS = 365
FILL_EVALUATIONS = 132


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
