"""Random worlds and mechanisms for the property and acceptance tests."""

import numpy as np

from dcpkit.model import MechanismKernel, World, is_invertible
from dcpkit.synth import _world


def dirichlet_world(rng: np.random.Generator, n_secrets: int, n_datasets: int) -> World:
    for _ in range(200):
        joint = rng.dirichlet(np.ones(n_secrets * n_datasets)).reshape(n_secrets, n_datasets)
        world = _world(joint)
        if world.adjacency and not is_invertible(world)[0]:
            return world
    raise RuntimeError("could not draw a usable world")


def invertible_world(rng: np.random.Generator, n_secrets: int, n_datasets: int | None = None) -> World:
    """Random prior, one-hot dataset conditionals."""
    n_datasets = n_secrets if n_datasets is None else n_datasets
    prior = rng.dirichlet(np.ones(n_secrets) * 5.0)
    perm = rng.permutation(n_datasets)[:n_secrets]
    joint = np.zeros((n_secrets, n_datasets))
    for s in range(n_secrets):
        joint[s, perm[s]] = prior[s]
    return _world(joint)


def rr_style_mechanism(rng: np.random.Generator, n_datasets: int, name: str = "rr") -> MechanismKernel:
    """Binary kernel with a random per-dataset flip probability."""
    c = rng.uniform(0.05, 0.45, size=n_datasets)
    side = rng.integers(0, 2, size=n_datasets)
    rows = np.where(side[:, None], np.stack([c, 1 - c], axis=1), np.stack([1 - c, c], axis=1))
    return MechanismKernel(name, ("0", "1"), rows)


def random_mechanisms(rng: np.random.Generator, n_datasets: int, k: int) -> list[MechanismKernel]:
    mechs = []
    for i in range(k):
        ny = int(rng.integers(2, 4))  # 2 or 3 outputs
        kern = rng.dirichlet(np.ones(ny), size=n_datasets)
        mechs.append(MechanismKernel(f"m{i}", tuple(map(str, range(ny))), kern))
    return mechs
