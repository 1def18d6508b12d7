import dataclasses
import json
import pathlib

import numpy as np
import pytest

from dcpkit.experiments import (
    COPULA_EPS_G,
    COPULA_EPS_I,
    INDEPENDENT_EPS_G,
    INDEPENDENT_EPS_I,
    run_copula_experiment,
    run_independent_experiment,
)
from dcpkit.synth import (
    _calibrate_noise_scale,
    binned_gaussian_kernel,
    binned_laplace_kernel,
    mixing_world,
)


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


@pytest.mark.parametrize("kernel", [binned_gaussian_kernel, binned_laplace_kernel])
def test_noise_calibration_refuses_an_unreachable_target(kernel):
    # the copula experiment's first Laplace marginal at eps_i = 50: even the
    # least noise in the bracket stays below the target, so no scale hits it
    world = mixing_world(0.005)
    with pytest.raises(ValueError, match="outside the reachable range"):
        _calibrate_noise_scale(world, kernel, (0.0, 1.0, 0.0, 1.0), 50.0, 0.02, 21)


def test_mismatched_grids_rejected():
    with pytest.raises(ValueError):
        run_independent_experiment(eps_gs=(0.5,), eps_is=(0.1, 0.2))


# Budget points at seeds 0 and 1: "independent" lies in the IC band (the
# task-1 solver runs), "independent-pi-empty" below it (the constraint set is
# empty, so only the fill runs), and the copula one is filled by bisection.
# tests/data/experiment_rows.json holds these rows as the code before the
# vectorized inner loops computed them (the pi-empty rows as the code before
# the calibrations were merged, the independent rows' composed AUCs, gaps and
# ROC violations as the worst-pair ROC scoring each unordered pair once
# computes them); rows must match exactly.
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
