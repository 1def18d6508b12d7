"""Finite secret/dataset worlds, mechanisms, and effective kernels.

A world couples a finite secret space and a finite dataset space through a
joint probability table, plus an adjacency relation over secrets.  Mechanisms
are dataset-conditional output kernels; averaging a kernel over the
dataset-given-secret conditional yields the secret-facing effective kernel
that all privacy computations run on.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Mapping, NamedTuple, Sequence

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
    # four reductions pass every check below.  Entries in [-PROB_ATOL, 2]
    # are finite and sum without overflow, so no warning needs silencing,
    # and x - 1 rounds monotonically, so the largest |row sum - 1| decides;
    # NaN fails every comparison and takes the checks below
    if (mat.size and np.minimum.reduce(mat, None) >= -PROB_ATOL and np.maximum.reduce(mat, None) <= 2.0
            and np.maximum.reduce(np.abs(np.add.reduce(mat, 1) - 1.0)) <= PROB_ATOL):
        return
    with np.errstate(over="ignore", invalid="ignore"):
        sums = mat.sum(axis=1)
    _check_finite(mat, what)
    if np.any(mat < -PROB_ATOL):
        i, j = np.argwhere(mat < -PROB_ATOL)[0]
        raise ModelError(f"{what}: negative entry at row {i}, col {j}: {mat[i, j]}")
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
        if len(set(self.secrets)) != len(self.secrets):
            raise ModelError(f"secret labels {self.secrets} repeat a label")
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

    @cached_property
    def marginal_secret(self) -> np.ndarray:
        """The prior over secrets, summed once and read-only."""
        return _freeze(self.joint.sum(axis=1))

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
        if not self.members or len(set(self.members)) != len(self.members):
            raise ModelError(f"dependence group members {self.members} are none or repeat an index")
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


def join_per_secret(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-secret law of two outputs independent given the secret (``a``'s output major)."""
    return np.einsum("sy,sa->sya", a, b).reshape(a.shape[0], -1)


def _posterior(prior: np.ndarray, law: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Bayes posterior over secrets per outcome of a per-secret ``law``
    under ``prior``: (rows [outcomes x secrets], outcome weights, live mask).
    A zero-weight outcome is marked dead and its row left as the prior.
    The rows are computed secrets-major, as ``law`` is laid out, and handed
    out as the transpose of that array: a reduction over the outcomes of
    one secret reads contiguous memory."""
    post = law * prior[:, None]           # secrets x outcomes, the joint weights
    marginal = post.sum(axis=0)
    live = marginal > 0.0
    if not live.any():
        raise ValueError("all joint outcomes carry zero mass")
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the dead outcomes, reset below
        np.divide(post, marginal, out=post)
    if not live.all():
        post[:, ~live] = prior[:, None]
    return post.T, marginal, live


class TypeClass(NamedTuple):
    """Ungrouped mechanisms with bitwise-equal kernels, or one mechanism.

    Under every dataset, k copies of one kernel give each ordering of an
    output tuple the same probability, so the class needs one atom per
    multiset of outputs (a type).  ``types`` lists them as rows of sorted
    output indices in lexicographic order and ``counts`` the number of
    output tuples each holds (its multinomial coefficient).
    """

    members: tuple[int, ...]
    n_outputs: int
    types: np.ndarray
    counts: np.ndarray

    def factor(self, matrix: np.ndarray, op: np.ufunc = np.multiply) -> np.ndarray:
        """The law of the types under one member's ``matrix`` (a kernel or an
        effective kernel): its columns multiplied in sorted output order,
        times each type's count; with ``op`` = ``np.add`` on the log of
        ``matrix``, the log of that law, which underflows nowhere.  A class
        of one gives ``matrix`` itself."""
        if len(self.members) == 1:
            return matrix
        out = matrix[:, self.types[:, 0]]
        for col in self.types.T[1:]:
            op(out, matrix[:, col], out=out)
        return op(out, self.counts if op is np.multiply else np.log(self.counts), out=out)

    def ranks(self) -> np.ndarray:
        """The type of each output tuple of the members, in C order: the types
        of one more copy are the sorted types of one fewer plus an output."""
        n = self.n_outputs
        rank, types = np.arange(n), np.arange(n)[:, None]
        for _ in self.members[1:]:
            grown = np.column_stack([np.repeat(types, n, axis=0), np.tile(np.arange(n), len(types))])
            grown.sort(axis=1)
            _, first, step = np.unique(_codes(grown, n), return_index=True, return_inverse=True)
            rank, types = np.take(step.reshape(len(types), n), rank, axis=0).ravel(), grown[first]
        return rank


def _codes(types: np.ndarray, n: int) -> np.ndarray:
    """Each row's index in C order over ``n`` outputs per column, which
    increases along lexicographically sorted rows."""
    return np.ravel_multi_index(types.T, (n,) * types.shape[1])


def _type_class(members: tuple[int, ...], n: int) -> TypeClass:
    if len(members) == 1:  # a class of one: its types are its outputs, one tuple each
        return TypeClass(members, n, np.arange(n)[:, None], np.ones(n))
    types = np.array(list(combinations_with_replacement(range(n), len(members))), dtype=np.intp)
    types = types.reshape(-1, len(members))
    # k!/prod(run lengths!) one position at a time: each prefix's count is an
    # integer, the previous one times the prefix length over the run length
    counts = np.ones(len(types), dtype=np.int64)
    run = np.ones(len(types), dtype=np.int64)
    for j in range(1, len(members)):
        run = np.where(types[:, j] == types[:, j - 1], run + 1, 1)
        counts = counts * (j + 1) // run
    return TypeClass(members, n, types, counts.astype(float))


def check_cap(size: int, what: str) -> None:
    """Refuse ``size`` cells of ``what`` above ``config.OUTCOME_CAP``, before allocating them."""
    if size > config.OUTCOME_CAP:
        raise ValueError(f"{what} exceeds cap {config.OUTCOME_CAP}")


def _check_size(mechs: Sequence[MechanismKernel], atoms: int) -> None:
    """Refuse no mechanisms, and a composed law of more atoms than ``config.OUTCOME_CAP``."""
    if not mechs:
        raise ValueError("need at least one mechanism")
    check_cap(atoms, f"composed law of {atoms} atoms")


def type_classes(mechs: Sequence[MechanismKernel],
                 dependence: Sequence[DependenceGroup] = ()) -> tuple[TypeClass, ...]:
    """The ungrouped mechanisms grouped by the bytes of their kernels, in the
    order their first members appear; a grouped mechanism is a class of one."""
    grouped = {i for g in dependence for i in g.members}
    members: dict = {}
    for i, m in enumerate(mechs):
        members.setdefault(i if i in grouped else (m.kernel.shape, m.kernel.tobytes()), []).append(i)
    _check_size(mechs, math.prod(math.comb(mechs[ms[0]].n_outputs + len(ms) - 1, len(ms))
                                 for ms in members.values()))
    return tuple(_type_class(tuple(ms), mechs[ms[0]].n_outputs) for ms in members.values())


def composed_law(world: World, mechs: Sequence[MechanismKernel],
                 dependence: Sequence[DependenceGroup] = ()) -> np.ndarray:
    """The composed joint b(y|s): the mixture over datasets of the
    per-dataset product kernels, a dependence group's joint kernel standing
    in for its members' kernels (rows secrets, product alphabet columns)."""
    singles = tuple(_type_class((i,), m.n_outputs) for i, m in enumerate(mechs))
    return lumped_law(world, mechs, dependence, singles)


def lumped_law(world: World, mechs: Sequence[MechanismKernel], dependence: Sequence[DependenceGroup],
               classes: Sequence[TypeClass]) -> np.ndarray:
    """``composed_law`` on type classes: one column per atom, a type of each
    class in C order over the classes, holding the mass of all its outcomes.
    Classes of one mechanism each give the composed law itself."""
    _check_size(mechs, math.prod(len(c.types) for c in classes))
    for m in mechs:
        if m.kernel.shape[0] != len(world.datasets):
            raise ValueError(f"mechanism {m.name!r} dataset dimension mismatch")
    for g in dependence:
        g.validate_against(mechs)
    grouped = {i for g in dependence for i in g.members}
    axis = {i: a for a, c in enumerate(classes) for i in c.members}
    factors = [((a,), c.factor(mechs[c.members[0]].kernel))
               for a, c in enumerate(classes) if c.members[0] not in grouped]
    factors += [(tuple(axis[i] for i in g.members), g.joint_kernel) for g in dependence]
    return mix_kernel(world, lay_out(factors, tuple(len(c.types) for c in classes)))


def atom_index(classes: Sequence[TypeClass]) -> np.ndarray:
    """The atom of a law on ``classes`` each outcome of the product alphabet
    lies in (outcomes in C order over the mechanisms)."""
    sizes = [len(c.types) for c in classes]
    n_mechs = sum(len(c.members) for c in classes)
    index = np.zeros((1,) * n_mechs, dtype=np.intp)
    for a, c in enumerate(classes):
        # members are increasing, so the class's C order lies on their axes as is
        shape = [1] * n_mechs
        for i in c.members:
            shape[i] = c.n_outputs
        index = index + (c.ranks() * math.prod(sizes[a + 1:])).reshape(shape)
    return index.ravel()


def effective_kernel(world: World, mech: MechanismKernel) -> Law:
    """The secret-conditional output law psi(y|s) of one mechanism: its
    kernel averaged over P(x|s) for every secret, as a read-only
    ``divergence.Law``."""
    from .divergence import Law  # divergence builds on this module

    if mech.kernel.shape[0] != len(world.datasets):
        raise ModelError(
            f"mechanism {mech.name!r} has {mech.kernel.shape[0]} dataset rows, "
            f"world has {len(world.datasets)} datasets"
        )
    return Law(_freeze(mix_kernel(world, mech.kernel)))


def is_invertible(world: World) -> tuple[bool, dict[int, int] | None]:
    """Whether every secret pins down a dataset with conditional probability 1.

    Returns the witness map secret index -> dataset index when true.
    """
    witness: dict[int, int] = {}
    for s in range(len(world.secrets)):
        if world.marginal_secret[s] <= 0.0:
            continue
        cond = world.conditional_dataset(s)
        x = int(np.argmax(cond))
        if cond[x] >= 1.0 - PROB_ATOL:
            witness[s] = x
        else:
            return False, None
    return True, witness


def _key(raw: Mapping, key: str, what: str):
    if key not in raw:
        raise ModelError(f"{what} missing required key {key!r}")
    return raw[key]


def _typed(value, kind: type, what: str):
    """``value`` when it is a ``kind``: a list or dict, as JSON arrays and objects load."""
    if not isinstance(value, kind):
        raise ModelError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _entries(raw: Mapping, key: str) -> list:
    """The objects listed under ``key``, none when it is absent."""
    return [_typed(entry, dict, f"{key} entry {i}") for i, entry in enumerate(_typed(raw.get(key, []), list, key))]


def _labels(value, what: str) -> tuple[str, ...]:
    return tuple(str(label) for label in _typed(value, list, what))


def _array(value, what: str, ndim: int) -> np.ndarray:
    """``value`` as floats in ``ndim`` dimensions (a matrix at 2, a number at 0)."""
    with contextlib.suppress(TypeError, ValueError):
        if (arr := np.asarray(value, dtype=float)).ndim == ndim:
            return arr
    raise ModelError(f"{what} is not {'a matrix of numbers' if ndim else 'a number'}")


def _index(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{what}: {value!r} is not an index")
    return value


def _parse_adjacency(spec, joint: np.ndarray) -> frozenset:
    if spec is None:
        return default_adjacency(joint)
    if "pairs" in _typed(spec, dict, "adjacency"):
        pairs = set()
        for pair in _typed(spec["pairs"], list, "adjacency pairs"):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ModelError(f"adjacency pair {pair!r} is not two indices")
            a, b = (_index(s, "adjacency pair") for s in pair)
            pairs.update({(a, b), (b, a)})
        return frozenset(pairs)
    if "metric" in spec:
        d = float(_array(_key(spec, "d", "metric adjacency"), "metric threshold d", 0))
        return build_adjacency(_array(spec["metric"], "metric table", 2), d, joint)
    raise ModelError("adjacency must provide either 'pairs' or 'metric'+'d'")


def load_model(path) -> Model:
    """Parse and validate a model JSON file (see README for the schema)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelError(f"cannot parse {path}: {exc}") from exc

    raw = _typed(raw, dict, "model file")
    joint = _array(_key(raw, "joint", "model file"), "joint", 2)
    world = World(
        secrets=_labels(_key(raw, "secrets", "model file"), "secrets"),
        datasets=_labels(_key(raw, "datasets", "model file"), "datasets"),
        joint=joint,
        adjacency=_parse_adjacency(raw.get("adjacency"), joint),
    )

    mechanisms = tuple(
        MechanismKernel(
            name=str(m.get("name", f"mech{i}")),
            outputs=_labels(_key(m, "outputs", f"mechanism {i}"), f"mechanism {i} outputs"),
            kernel=_array(_key(m, "kernel", f"mechanism {i}"), f"mechanism {i} kernel", 2),
        )
        for i, m in enumerate(_entries(raw, "mechanisms"))
    )
    names = [m.name for m in mechanisms]
    if len(set(names)) != len(names):
        raise ModelError(f"mechanism names {names} repeat a name")
    dependence = tuple(
        DependenceGroup(
            members=tuple(_index(i, "dependence member")
                          for i in _typed(_key(g, "members", "dependence group"), list, "dependence members")),
            joint_kernel=_array(_key(g, "joint_kernel", "dependence group"), "dependence joint kernel", 2),
            joint_outputs=_labels(g.get("joint_outputs", []), "dependence joint outputs"),
        )
        for g in _entries(raw, "dependence")
    )
    seen: set[int] = set()
    for g in dependence:
        overlap = seen.intersection(g.members)
        if overlap:
            raise ModelError(f"mechanism index {sorted(overlap)[0]} appears in two dependence groups")
        seen.update(g.members)
        g.validate_against(mechanisms)
    copula = raw.get("copula")
    if copula is not None:
        from .copula import copula_spec_from_mapping  # copula builds on this module

        try:  # the section must make a spec with a finite latent variance
            if not math.isfinite(copula_spec_from_mapping(copula, adjacency_labels(world)).var1):
                raise ValueError("eps_c = 0 makes the latent variance infinite")
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"copula section: {exc!r}") from None
    return Model(world=world, mechanisms=mechanisms, dependence=dependence, copula=copula)


def adjacency_labels(world: World) -> frozenset[tuple[str, str]]:
    """The world's adjacent pairs by secret label."""
    return frozenset((world.secrets[a], world.secrets[b]) for (a, b) in world.adjacency)
