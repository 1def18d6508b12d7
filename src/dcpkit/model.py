"""Finite secret/dataset worlds, mechanisms, and effective kernels.

A world couples a finite secret space and a finite dataset space through a
joint probability table, plus an adjacency relation over secrets.  Mechanisms
are dataset-conditional output kernels; averaging a kernel over the
dataset-given-secret conditional yields the secret-facing effective kernel
that all privacy computations run on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import config
from .config import MARGINAL_ATOL, PROB_ATOL


class ModelError(ValueError):
    """Raised when a model file or model object violates an invariant."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=float))
    out.flags.writeable = False
    return out


def _check_finite(mat: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(mat)):
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise ModelError(f"{what}: non-finite entry at row {i}, col {j}: {mat[i, j]}")


def _check_rows_stochastic(mat: np.ndarray, what: str) -> None:
    _check_finite(mat, what)
    if np.any(mat < -PROB_ATOL):
        i, j = np.argwhere(mat < -PROB_ATOL)[0]
        raise ModelError(f"{what}: negative entry at row {i}, col {j}: {mat[i, j]}")
    sums = mat.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > PROB_ATOL)[0]
    if bad.size:
        raise ModelError(f"{what}: row {bad[0]} sums to {sums[bad[0]]}, not 1")


@dataclass(frozen=True)
class World:
    """Secrets, datasets, their joint distribution, and secret adjacency.

    ``joint[i, j]`` is the probability of secret ``i`` together with dataset
    ``j``.  ``adjacency`` holds ordered index pairs; it is kept symmetric
    because the privacy definition takes a supremum over ordered pairs.
    """

    secrets: tuple[str, ...]
    datasets: tuple[str, ...]
    joint: np.ndarray
    adjacency: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "joint", _freeze(self.joint))
        if self.joint.shape != (len(self.secrets), len(self.datasets)):
            raise ModelError(
                f"joint shape {self.joint.shape} does not match "
                f"{len(self.secrets)} secrets x {len(self.datasets)} datasets"
            )
        _check_finite(self.joint, "joint")
        if np.any(self.joint < -PROB_ATOL):
            i, j = np.argwhere(self.joint < -PROB_ATOL)[0]
            raise ModelError(f"joint entry ({i},{j}) is negative: {self.joint[i, j]}")
        total = float(self.joint.sum())
        if abs(total - 1.0) > PROB_ATOL:
            raise ModelError(f"joint sums to {total}, not 1")
        marg = self.marginal_secret
        for (a, b) in self.adjacency:
            for s in (a, b):
                if not 0 <= s < len(self.secrets):
                    raise ModelError(f"adjacency index {s} out of range")
                if marg[s] <= 0.0:
                    raise ModelError(
                        f"adjacency pair ({a},{b}) touches secret "
                        f"{self.secrets[s]!r} with zero marginal"
                    )
            if a == b:
                raise ModelError(f"adjacency pair ({a},{b}) is not a pair of distinct secrets")
            if (b, a) not in self.adjacency:
                raise ModelError(f"adjacency is not symmetric: ({a},{b}) present, ({b},{a}) missing")

    @property
    def marginal_secret(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    def conditional_dataset(self, s: int) -> np.ndarray:
        """Return the dataset distribution conditioned on secret index ``s``."""
        marg = float(self.marginal_secret[s])
        if marg <= 0.0:
            raise ModelError(f"secret {self.secrets[s]!r} has zero marginal; conditional undefined")
        return self.joint[s] / marg

    def secret_index(self, label: str) -> int:
        try:
            return self.secrets.index(label)
        except ValueError:
            raise ModelError(f"unknown secret label {label!r}") from None


@dataclass(frozen=True)
class MechanismKernel:
    """A dataset-conditional output distribution over a finite alphabet."""

    name: str
    outputs: tuple[str, ...]
    kernel: np.ndarray  # rows = datasets, cols = outputs

    def __post_init__(self):
        object.__setattr__(self, "kernel", _freeze(self.kernel))
        if self.kernel.ndim != 2 or self.kernel.shape[1] != len(self.outputs):
            raise ModelError(
                f"mechanism {self.name!r}: kernel shape {self.kernel.shape} "
                f"does not match {len(self.outputs)} outputs"
            )
        _check_rows_stochastic(self.kernel, f"mechanism {self.name!r} kernel")

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)


@dataclass(frozen=True)
class DependenceGroup:
    """A set of mutually dependent mechanisms with an explicit joint kernel.

    ``joint_kernel`` rows are datasets; columns enumerate the product output
    alphabet of the member mechanisms in member order (C order, last member
    fastest).  Marginalizing onto any member must reproduce that member's
    own kernel.
    """

    members: tuple[int, ...]
    joint_kernel: np.ndarray
    joint_outputs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "joint_kernel", _freeze(self.joint_kernel))
        if len(set(self.members)) != len(self.members):
            raise ModelError(f"dependence group members {self.members} repeat an index")
        _check_rows_stochastic(self.joint_kernel, f"dependence group {self.members} joint kernel")

    def validate_against(self, mechanisms: Sequence[MechanismKernel]) -> None:
        for i in self.members:
            if not 0 <= i < len(mechanisms):
                raise ModelError(
                    f"dependence group {self.members}: member index {i} out of range "
                    f"for {len(mechanisms)} mechanisms"
                )
        dims = tuple(mechanisms[i].n_outputs for i in self.members)
        if int(np.prod(dims)) != self.joint_kernel.shape[1]:
            raise ModelError(
                f"dependence group {self.members}: joint kernel has "
                f"{self.joint_kernel.shape[1]} columns, expected {int(np.prod(dims))}"
            )
        cube = self.joint_kernel.reshape((-1,) + dims)
        for pos, mech_idx in enumerate(self.members):
            axes = tuple(1 + a for a in range(len(dims)) if a != pos)
            marg = cube.sum(axis=axes)
            err = float(np.abs(marg - mechanisms[mech_idx].kernel).max())
            if err > MARGINAL_ATOL:
                raise ModelError(
                    f"dependence group {self.members}: joint kernel marginal for "
                    f"mechanism {mechanisms[mech_idx].name!r} deviates by {err:.3e}"
                )


@dataclass(frozen=True)
class EffectiveKernel:
    """Secret-conditional output distribution psi(y|s) of one mechanism."""

    matrix: np.ndarray  # rows = secrets, cols = outputs
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        _check_rows_stochastic(self.matrix, "effective kernel")

    def pair(self, s0: int, s1: int) -> tuple[np.ndarray, np.ndarray]:
        return self.matrix[s0], self.matrix[s1]


@dataclass(frozen=True)
class Model:
    """A loaded model file: world plus mechanisms, dependence, copula spec."""

    world: World
    mechanisms: tuple[MechanismKernel, ...] = ()
    dependence: tuple[DependenceGroup, ...] = ()
    copula: Mapping | None = field(default=None)


def default_adjacency(joint: np.ndarray) -> frozenset[tuple[int, int]]:
    """All ordered pairs of distinct secrets with positive marginals."""
    marg = joint.sum(axis=1)
    live = [i for i in range(joint.shape[0]) if marg[i] > 0.0]
    return frozenset((a, b) for a in live for b in live if a != b)


def build_adjacency(
    metric_table: np.ndarray, d: float, world_or_joint
) -> frozenset[tuple[int, int]]:
    """Ordered secret pairs within metric distance ``d``, both marginals positive."""
    metric = np.asarray(metric_table, dtype=float)
    joint = world_or_joint.joint if isinstance(world_or_joint, World) else np.asarray(world_or_joint)
    n = joint.shape[0]
    if metric.shape != (n, n):
        raise ModelError(f"metric table shape {metric.shape} does not match {n} secrets")
    _check_finite(metric, "metric table")
    if np.isnan(d):
        raise ModelError("metric threshold d is NaN")
    if np.any(metric < 0):
        i, j = np.argwhere(metric < 0)[0]
        raise ModelError(f"metric entry ({i},{j}) is negative")
    if np.abs(metric - metric.T).max() > 0:
        i, j = np.argwhere(np.abs(metric - metric.T) > 0)[0]
        raise ModelError(f"metric table is asymmetric at ({i},{j})")
    marg = joint.sum(axis=1)
    pairs = set()
    for a in range(n):
        for b in range(n):
            if a != b and metric[a, b] <= d and marg[a] > 0 and marg[b] > 0:
                pairs.add((a, b))
    return frozenset(pairs)


def mix_kernel(world: World, kernel: np.ndarray) -> np.ndarray:
    """Per-secret rows P(x|s) @ K of any kernel K with one row per dataset
    (a mechanism's, a dependence group's, or their per-dataset product).
    A zero-prior secret gets a uniform row: no adjacent pair touches it."""
    marg = world.marginal_secret
    n = kernel.shape[1]
    return np.array([
        world.joint[s] / marg[s] @ kernel if marg[s] > 0 else np.full(n, 1.0 / n)
        for s in range(len(world.secrets))
    ])


def lay_out(factors: Sequence[tuple[Sequence[int], np.ndarray]], dims: tuple[int, ...],
            op: np.ufunc = np.multiply) -> np.ndarray:
    """Fold row-indexed factors onto the product alphabet over ``dims``.

    A factor is ``(members, matrix)``: its columns enumerate the outputs of
    the mechanisms ``members`` in C order of that list, and its rows (datasets
    or secrets) are shared by all factors.  ``op`` folds the factors in list
    order onto its identity; the result's columns are the product alphabet.
    """
    n_rows = factors[0][1].shape[0]
    full = np.full((n_rows,) + dims, float(op.identity))
    for members, matrix in factors:
        cube = matrix.reshape((n_rows,) + tuple(dims[i] for i in members))
        cube = cube.transpose(0, *(1 + np.argsort(members)))
        shape = (n_rows,) + tuple(dims[i] if i in members else 1 for i in range(len(dims)))
        op(full, cube.reshape(shape), out=full)
    return full.reshape(n_rows, -1)


def composed_law(world: World, mechs: Sequence[MechanismKernel],
                 dependence: Sequence[DependenceGroup] = ()) -> np.ndarray:
    """The composed joint b(y|s): the mixture over datasets of the
    per-dataset product kernels, a dependence group's joint kernel standing
    in for its members' kernels (rows secrets, product alphabet columns)."""
    if not mechs:
        raise ValueError("need at least one mechanism")
    dims = tuple(m.n_outputs for m in mechs)
    size = int(np.prod(dims))
    if size > config.OUTCOME_CAP:
        raise ValueError(f"product outcome space {size} exceeds cap {config.OUTCOME_CAP}")
    for m in mechs:
        if m.kernel.shape[0] != len(world.datasets):
            raise ValueError(f"mechanism {m.name!r} dataset dimension mismatch")
    for g in dependence:
        g.validate_against(mechs)
    grouped = {i for g in dependence for i in g.members}
    factors = [((i,), m.kernel) for i, m in enumerate(mechs) if i not in grouped]
    factors += [(g.members, g.joint_kernel) for g in dependence]
    return mix_kernel(world, lay_out(factors, dims))


def effective_kernel(world: World, mech: MechanismKernel) -> EffectiveKernel:
    """Average the mechanism kernel over P(x|s) for every secret."""
    if mech.kernel.shape[0] != len(world.datasets):
        raise ModelError(
            f"mechanism {mech.name!r} has {mech.kernel.shape[0]} dataset rows, "
            f"world has {len(world.datasets)} datasets"
        )
    return EffectiveKernel(matrix=mix_kernel(world, mech.kernel), outputs=mech.outputs)


def is_invertible(world: World, tol: float = PROB_ATOL) -> tuple[bool, dict[int, int] | None]:
    """Whether every secret pins down a dataset with conditional probability 1.

    Returns the witness map secret index -> dataset index when true.
    """
    witness: dict[int, int] = {}
    for s in range(len(world.secrets)):
        if world.marginal_secret[s] <= 0.0:
            continue
        cond = world.conditional_dataset(s)
        x = int(np.argmax(cond))
        if cond[x] >= 1.0 - tol:
            witness[s] = x
        else:
            return False, None
    return True, witness


def _key(raw: Mapping, key: str, what: str):
    if key not in raw:
        raise ModelError(f"{what} missing required key {key!r}")
    return raw[key]


def _index(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(f"{what}: {value!r} is not an index") from None


def _parse_adjacency(spec, joint: np.ndarray) -> frozenset:
    if spec is None:
        return default_adjacency(joint)
    if "pairs" in spec:
        pairs = set()
        for a, b in spec["pairs"]:
            a, b = _index(a, "adjacency pair"), _index(b, "adjacency pair")
            pairs.add((a, b))
            pairs.add((b, a))
        return frozenset(pairs)
    if "metric" in spec:
        d = float(_key(spec, "d", "metric adjacency"))
        return build_adjacency(np.asarray(spec["metric"], dtype=float), d, joint)
    raise ModelError("adjacency must provide either 'pairs' or 'metric'+'d'")


def load_model(path) -> Model:
    """Parse and validate a model JSON file (see README for the schema)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelError(f"cannot parse {path}: {exc}") from exc

    joint = np.asarray(_key(raw, "joint", "model file"), dtype=float)
    world = World(
        secrets=tuple(str(s) for s in _key(raw, "secrets", "model file")),
        datasets=tuple(str(x) for x in _key(raw, "datasets", "model file")),
        joint=joint,
        adjacency=_parse_adjacency(raw.get("adjacency"), joint),
    )

    mechanisms = tuple(
        MechanismKernel(
            name=str(m.get("name", f"mech{i}")),
            outputs=tuple(str(o) for o in _key(m, "outputs", f"mechanism {i}")),
            kernel=np.asarray(_key(m, "kernel", f"mechanism {i}"), dtype=float),
        )
        for i, m in enumerate(raw.get("mechanisms", []))
    )
    dependence = tuple(
        DependenceGroup(
            members=tuple(_index(i, "dependence member") for i in _key(g, "members", "dependence group")),
            joint_kernel=np.asarray(_key(g, "joint_kernel", "dependence group"), dtype=float),
            joint_outputs=tuple(str(o) for o in g.get("joint_outputs", [])),
        )
        for g in raw.get("dependence", [])
    )
    seen: set[int] = set()
    for g in dependence:
        overlap = seen.intersection(g.members)
        if overlap:
            raise ModelError(f"mechanism index {sorted(overlap)[0]} appears in two dependence groups")
        seen.update(g.members)
        g.validate_against(mechanisms)
    return Model(world=world, mechanisms=mechanisms, dependence=dependence, copula=raw.get("copula"))


def load_world(path) -> World:
    """Load only the world part of a model file."""
    return load_model(path).world
