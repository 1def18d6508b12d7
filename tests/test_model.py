import json

import numpy as np
import pytest

from dcpkit.config import PROB_ATOL
from dcpkit.model import (
    _check_rows_stochastic,
    DependenceGroup,
    MechanismKernel,
    ModelError,
    World,
    build_adjacency,
    default_adjacency,
    effective_kernel,
    is_invertible,
    load_model,
)


def write_model(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "secrets": ["s0", "s1"],
    "datasets": ["x0", "x1"],
    "joint": [[0.5, 0.0], [0.0, 0.5]],
    "mechanisms": [
        {"name": "id", "outputs": ["0", "1"], "kernel": [[1.0, 0.0], [0.0, 1.0]]}
    ],
}


def test_load_identity_world(tmp_path):
    world = load_model(write_model(tmp_path, BASE)).world
    assert world.secrets == ("s0", "s1")
    assert np.allclose(world.marginal_secret, [0.5, 0.5])
    assert world.adjacency == {(0, 1), (1, 0)}


def test_load_rejects_bad_mass(tmp_path):
    bad = dict(BASE, joint=[[0.5, 0.0], [0.0, 0.49]])
    with pytest.raises(ModelError, match="sums to"):
        load_model(write_model(tmp_path, bad))


def test_load_rejects_zero_marginal_adjacency(tmp_path):
    bad = dict(BASE, joint=[[0.5, 0.5], [0.0, 0.0]], adjacency={"pairs": [[0, 1]]})
    with pytest.raises(ModelError, match="zero marginal"):
        load_model(write_model(tmp_path, bad))


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelError, match="cannot parse"):
        load_model(path)


def test_conditional_dataset():
    joint = np.array([[0.25, 0.25], [0.3, 0.2]])
    world = World(("a", "b"), ("x", "y"), joint, default_adjacency(joint))
    assert np.allclose(world.conditional_dataset(0), [0.5, 0.5])
    assert np.allclose(world.conditional_dataset(1), [0.6, 0.4])


def test_conditional_dataset_one_hot(invertible_world):
    assert np.array_equal(invertible_world.conditional_dataset(0), [1.0, 0.0])


def test_conditional_dataset_zero_marginal():
    joint = np.array([[1.0, 0.0], [0.0, 0.0]])
    world = World(("a", "b"), ("x", "y"), joint, frozenset())
    with pytest.raises(ModelError, match="zero marginal"):
        world.conditional_dataset(1)


def test_effective_kernel_one_hot_selects_row(invertible_world, rr_mechanism):
    eff = effective_kernel(invertible_world, rr_mechanism)
    assert np.array_equal(eff.matrix[0], rr_mechanism.kernel[0])
    assert np.array_equal(eff.matrix[1], rr_mechanism.kernel[1])


def test_effective_kernel_mixture_value():
    # oracle: direct weighted sum of kernel rows
    joint = np.array([[0.15, 0.35], [0.35, 0.15]])  # P(x|s0) = (0.3, 0.7)
    world = World(("a", "b"), ("x", "y"), joint, default_adjacency(joint))
    mech = MechanismKernel("m", ("0", "1"), np.array([[0.9, 0.1], [0.2, 0.8]]))
    expected = 0.3 * np.array([0.9, 0.1]) + 0.7 * np.array([0.2, 0.8])
    eff = effective_kernel(world, mech)
    assert np.allclose(eff.matrix[0], expected, atol=1e-15)
    assert np.allclose(eff.matrix[0], [0.41, 0.59])


@pytest.mark.parametrize("rows,message", [
    ([[0.5, np.nan]], "non-finite entry at row 0, col 1: nan"),
    ([[0.5, 0.5], [np.inf, 0.0]], "non-finite entry at row 1, col 0: inf"),
    ([[0.5, 0.5], [1.0, -np.inf]], "non-finite entry at row 1, col 1: -inf"),
    ([[1.0, -np.inf, np.inf]], "non-finite entry at row 0, col 1: -inf"),
    ([[0.5, 0.5 + 2 * PROB_ATOL, -2 * PROB_ATOL]], f"negative entry at row 0, col 2: {-2 * PROB_ATOL}"),
    ([[0.5, 0.5], [0.5, 0.5 + 2 * PROB_ATOL]], f"row 1 sums to {0.5 + (0.5 + 2 * PROB_ATOL)}, not 1"),
    ([[1e308, 1e308, 0.0]], "row 0 sums to inf, not 1"),
])
def test_rows_stochastic_check_names_the_first_fault(rows, message):
    # the fast pass lets none of these through, and the checks behind it
    # name the fault word for word
    with pytest.raises(ModelError) as err:
        _check_rows_stochastic(np.array(rows), "m")
    assert str(err.value) == f"m: {message}"


def test_rows_stochastic_check_passes_exact_rows_and_negative_zeros():
    _check_rows_stochastic(np.array([[1.0, 0.0], [0.25, 0.75]]), "m")
    _check_rows_stochastic(np.array([[1.0, -0.0], [-0.0, 1.0]]), "m")


def test_rows_stochastic_check_passes_exactly_the_stochastic_rows():
    # the fast pass and the full checks behind it pass a matrix exactly when
    # every entry is finite and at least -PROB_ATOL and every row sum is
    # within PROB_ATOL of 1, on rows drawn at the edges of both tolerances
    rng = np.random.default_rng(11)
    odd = [np.nan, np.inf, -np.inf, 1e308, 3.0, -PROB_ATOL, -1.5 * PROB_ATOL, -0.0]
    verdicts = set()
    for _ in range(3000):
        rows = rng.dirichlet(np.ones(int(rng.integers(1, 10))), size=int(rng.integers(1, 4)))
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(rows.shape[0]), rng.integers(rows.shape[1])
            c = rng.choice([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]) * PROB_ATOL
            u = rng.random()
            if u < 0.2:
                rows[i, j] = odd[rng.integers(len(odd))]
            elif u < 0.4 and rows.shape[1] > 1:  # a slightly negative entry, the row sum kept
                rows[i, j - 1] += rows[i, j] + abs(c)
                rows[i, j] = -abs(c)
            else:
                rows[i, j] += c
        with np.errstate(over="ignore", invalid="ignore"):
            sums = rows.sum(axis=1)
            stochastic = bool(np.isfinite(rows).all() and rows.min() >= -PROB_ATOL
                              and (np.abs(sums - 1.0) <= PROB_ATOL).all())
        try:
            _check_rows_stochastic(rows, "m")
            verdicts.add(True)
            assert stochastic, rows
        except ModelError:
            verdicts.add(False)
            assert not stochastic, rows
    assert verdicts == {True, False}


def test_effective_kernel_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ns, nx, ny = rng.integers(2, 5, size=3)
        joint = rng.dirichlet(np.ones(ns * nx)).reshape(ns, nx)
        world = World(
            tuple(map(str, range(ns))), tuple(map(str, range(nx))), joint,
            default_adjacency(joint),
        )
        mech = MechanismKernel("m", tuple(map(str, range(ny))), rng.dirichlet(np.ones(ny), size=nx))
        eff = effective_kernel(world, mech)
        assert np.abs(eff.matrix.sum(axis=1) - 1.0).max() <= 1e-12


def test_effective_kernel_dimension_mismatch(invertible_world):
    mech = MechanismKernel("m", ("0",), np.ones((3, 1)))
    with pytest.raises(ModelError, match="dataset"):
        effective_kernel(invertible_world, mech)


def test_is_invertible(invertible_world, mixing_world_2x2):
    ok, witness = is_invertible(invertible_world)
    assert ok and witness == {0: 0, 1: 1}
    assert is_invertible(mixing_world_2x2) == (False, None)


def test_is_invertible_tolerance():
    eps = 1e-15
    joint = np.array([[0.5 * (1 - eps), 0.5 * eps], [0.0, 0.5]])
    world = World(("a", "b"), ("x", "y"), joint, default_adjacency(joint))
    ok, witness = is_invertible(world)
    assert ok and witness[0] == 0


def test_build_adjacency_hamming():
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    metric = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert build_adjacency(metric, 1.0, joint) == {(0, 1), (1, 0)}
    assert build_adjacency(metric, 0.0, joint) == frozenset()


def test_build_adjacency_chain():
    # chain distances 1/1/2: oracle by enumeration of pairs within d=1
    joint = np.full((3, 3), 1 / 9)
    metric = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    pairs = build_adjacency(metric, 1.0, joint)
    assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}
    # closure under reversal
    assert all((b, a) in pairs for (a, b) in pairs)


def test_build_adjacency_rejects_asymmetric():
    joint = np.full((2, 2), 0.25)
    with pytest.raises(ModelError, match="asymmetric"):
        build_adjacency(np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0, joint)


def test_dependence_group_marginal_check():
    mechs = [
        MechanismKernel("a", ("0", "1"), np.array([[0.9, 0.1], [0.2, 0.8]])),
        MechanismKernel("b", ("0", "1"), np.array([[0.9, 0.1], [0.2, 0.8]])),
    ]
    good = DependenceGroup(members=(0, 1), joint_kernel=np.array(
        [[0.9, 0.0, 0.0, 0.1], [0.2, 0.0, 0.0, 0.8]]))
    good.validate_against(mechs)  # perfectly correlated copies marginalize exactly
    bad = DependenceGroup(members=(0, 1), joint_kernel=np.array(
        [[0.8, 0.1, 0.0, 0.1], [0.2, 0.0, 0.0, 0.8]]))  # member-1 marginal off by 0.1
    with pytest.raises(ModelError, match="marginal"):
        bad.validate_against(mechs)


def test_load_model_with_dependence(tmp_path):
    payload = dict(
        BASE,
        mechanisms=[
            {"name": "a", "outputs": ["0", "1"], "kernel": [[0.9, 0.1], [0.2, 0.8]]},
            {"name": "b", "outputs": ["0", "1"], "kernel": [[0.9, 0.1], [0.2, 0.8]]},
        ],
        dependence=[{"members": [0, 1],
                     "joint_kernel": [[0.9, 0, 0, 0.1], [0.2, 0, 0, 0.8]]}],
    )
    model = load_model(write_model(tmp_path, payload))
    assert model.dependence[0].members == (0, 1)


def test_world_is_immutable(invertible_world):
    with pytest.raises(ValueError):
        invertible_world.joint[0, 0] = 0.9


def test_secret_marginal_is_summed_once_and_read_only(mixing_world_2x2):
    marg = mixing_world_2x2.marginal_secret
    assert mixing_world_2x2.marginal_secret is marg
    assert marg.tobytes() == mixing_world_2x2.joint.sum(axis=1).tobytes()
    with pytest.raises(ValueError):
        marg[0] = 0.9


DEPENDENT = dict(
    BASE,
    mechanisms=[
        {"name": "a", "outputs": ["0", "1"], "kernel": [[0.9, 0.1], [0.2, 0.8]]},
        {"name": "b", "outputs": ["0", "1"], "kernel": [[0.9, 0.1], [0.2, 0.8]]},
    ],
    dependence=[{"members": [0, 1], "joint_kernel": [[0.9, 0, 0, 0.1], [0.2, 0, 0, 0.8]]}],
)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["mechanism", "joint", "dependence", "metric"])
def test_load_rejects_non_finite_entries(tmp_path, where, value):
    payload = json.loads(json.dumps(DEPENDENT))
    if where == "mechanism":
        payload["mechanisms"][0]["kernel"][0][0] = value
    elif where == "joint":
        payload["joint"][1][1] = value
    elif where == "dependence":
        payload["dependence"][0]["joint_kernel"][1][3] = value
    else:
        payload["adjacency"] = {"metric": [[0.0, value], [value, 0.0]], "d": 1.0}
    with pytest.raises(ModelError, match="finite"):
        load_model(write_model(tmp_path, payload))


@pytest.mark.parametrize("section,key", [
    ("mechanisms", "outputs"), ("mechanisms", "kernel"),
    ("dependence", "members"), ("dependence", "joint_kernel"),
])
def test_load_rejects_missing_keys(tmp_path, section, key):
    payload = json.loads(json.dumps(DEPENDENT))
    del payload[section][0][key]
    with pytest.raises(ModelError, match=f"missing required key '{key}'"):
        load_model(write_model(tmp_path, payload))


@pytest.mark.parametrize("member", [2, 5, -1, float("inf")])
def test_load_rejects_member_index_out_of_range(tmp_path, member):
    payload = json.loads(json.dumps(DEPENDENT))
    payload["dependence"][0]["members"] = [0, member]
    with pytest.raises(ModelError, match="member"):
        load_model(write_model(tmp_path, payload))
