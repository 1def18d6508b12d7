"""Exact (epsilon, delta) computations between finite distributions.

Everything here works directly on probability vectors: the hockey-stick
divergence, its inversion to the smallest feasible epsilon, certification of
a mechanism against a world's adjacency, and Neyman-Pearson trade-off
curves.  It also holds the three primitives every other layer builds on: the
worst adjacent pair of a per-secret law (``worst_pair``), the
likelihood-ratio sweep behind trade-off curves and attacker ROCs, and the
bracketing root finder behind every calibration (``monotone_root``).  The
privacy-loss-distribution route in ``dcpkit.pld`` computes the same
quantities through loss atoms; the two routes stay independent so each can
serve as the other's oracle.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .config import PROB_ATOL
from .model import MechanismKernel, World, _check_rows_stochastic, _freeze, effective_kernel


@dataclass(frozen=True)
class DistPair:
    """Two probability vectors over a shared finite outcome alphabet."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != q.shape or p.ndim != 1:
            raise ValueError(f"p and q must be equal-length vectors, got {p.shape} and {q.shape}")
        _check_rows_stochastic(np.stack([p, q]), "distribution pair (p, q)")
        _keep_live(self, np.clip(p, 0.0, None), np.clip(q, 0.0, None))

    def swapped(self) -> DistPair:
        """The pair (q, p) on these very arrays, made once.  This pair holds
        it and it points back weakly, so no reference cycle outlives them."""
        twin = self.__dict__.get("_twin")
        if isinstance(twin, weakref.ref):
            twin = twin()
        if twin is None:
            twin = object.__new__(DistPair)
            object.__setattr__(twin, "p", self.q)
            object.__setattr__(twin, "q", self.p)
            object.__setattr__(twin, "_twin", weakref.ref(self))
            object.__setattr__(self, "_twin", twin)
        return twin

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """``_np_steps(p, q)``, sorted once and kept."""
        return _np_steps(self.p, self.q)

    @cached_property
    def profile(self) -> LossProfile:
        """``LossProfile(self)``, built once and kept."""
        return LossProfile(self)

    @cached_property
    def table(self) -> LossTable:
        """``LossTable(self)``, built once and kept."""
        return LossTable(self)


def _keep_live(pair: DistPair, p: np.ndarray, q: np.ndarray) -> DistPair:
    """Set ``pair`` to checked, clipped ``p``, ``q`` less their dead outcomes."""
    live = (p > 0.0) | (q > 0.0)
    object.__setattr__(pair, "p", p[live])
    object.__setattr__(pair, "q", q[live])
    return pair


def hockey_stick(pair: DistPair, eps: float) -> float:
    """Sum of (p - e^eps q)+ over outcomes; the delta achieved at this eps."""
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    try:
        gap = pair.p - math.exp(eps) * pair.q
    except OverflowError:
        # e^eps is past the float range: scale each q in the log domain, where
        # q = 0 gives e^-inf = 0 (its whole p-mass) and no inf * 0
        with np.errstate(divide="ignore", over="ignore"):
            gap = pair.p - np.exp(eps + np.log(pair.q))
    return float(np.maximum(gap, 0.0).sum())


class LossProfile:
    """The privacy profile of one pair, built once to be asked at many delta:
    its p-mass at +inf, delta(0), and its positive losses merged and sorted,
    with their masses and the profile at each (the breakpoints)."""

    def __init__(self, pair: DistPair):
        p, q = pair.p, pair.q
        self.inf_mass = float(p[(q == 0.0) & (p > 0.0)].sum())
        both = (p > 0.0) & (q > 0.0)
        losses = np.log(p[both]) - np.log(q[both])
        masses = p[both]
        # only atoms with positive loss contribute for eps >= 0
        pos = losses > 0.0
        losses, masses = losses[pos], masses[pos]
        self.delta0 = self.inf_mass + float((masses * (1.0 - np.exp(-losses))).sum())
        # merge duplicate losses, sort ascending
        order = np.argsort(losses)
        losses, masses = losses[order], masses[order]
        first = np.ones(losses.size, dtype=bool)
        first[1:] = losses[1:] != losses[:-1]
        uniq = losses[first]
        umass = np.zeros_like(uniq)
        np.add.at(umass, np.cumsum(first) - 1, masses)
        # profile at each breakpoint: atoms strictly above it still contribute
        strict_mass = np.concatenate([np.cumsum(umass[::-1])[::-1][1:], [0.0]])
        strict_b = np.concatenate([np.cumsum((umass * np.exp(-uniq))[::-1])[::-1][1:], [0.0]])
        self.losses, self.masses = uniq, umass
        self.deltas = self.inf_mass + strict_mass - strict_b * np.exp(uniq)

    def epsilon(self, delta: float) -> float:
        """``optimal_epsilon`` of the pair at ``delta``."""
        if not 0.0 <= delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {delta}")
        # a positive +inf mass up to 4 ulps below delta still reads as above it,
        # so its last bit never decides between +inf and a finite epsilon; this
        # comes first, since delta(0) can equal the mass
        if self.inf_mass > 0.0 and delta <= self.inf_mass + 4.0 * math.ulp(self.inf_mass):
            return math.inf
        if self.delta0 <= delta:
            return 0.0
        j = int(np.searchsorted(-self.deltas, -delta))  # first breakpoint with profile <= delta
        # segment (l_{j-1}, l_j]: active atoms are those with loss >= l_j
        a = self.inf_mass + float(self.masses[j:].sum())
        b = float((self.masses[j:] * np.exp(-self.losses[j:])).sum())
        eps = math.log((a - delta) / b)
        return float(max(eps, 0.0))


class LossTable:
    """Every finite loss log(p/q) of one pair, ascending, with the p- and
    q-mass from each loss on (``p_from``, ``q_from``, a 0 past the last),
    and its p-mass at +inf: the pair's profile at any eps, negative ones
    too, in one lookup."""

    def __init__(self, pair: DistPair):
        p, q = pair.p, pair.q
        both = (p > 0.0) & (q > 0.0)
        losses = np.log(p[both]) - np.log(q[both])
        order = np.argsort(losses, kind="stable")
        self.losses = losses[order]
        self.p_from, self.q_from = (
            np.append(np.cumsum(v[both][order][::-1])[::-1], 0.0) for v in (p, q))
        self.inf_mass = float(p[q == 0.0].sum())

    def hockey_stick(self, a: np.ndarray, b: np.ndarray, eps: float) -> float:
        """``hockey_stick`` at ``eps`` of this pair joined with (``a``, ``b``),
        i.e. of (p_i a_k, q_i b_k) over the outcomes (i, k).  Outcome k adds
        a_k times the pair's profile at eps - log(a_k / b_k) (Balle, Barthe &
        Gaboardi 2018), which is 1 at b_k = 0: a_k (inf_mass + p_from[j]) -
        e^eps b_k q_from[j], j the first loss above the shifted eps."""
        if not math.isfinite(eps):
            raise ValueError(f"eps must be finite, got {eps}")
        live = a > 0.0
        a, b = a[live], b[live]
        with np.errstate(divide="ignore"):
            j = np.searchsorted(self.losses, eps - (np.log(a) - np.log(b)), side="right")
        bq = b * self.q_from[j]
        try:
            bq *= math.exp(eps)
        except OverflowError:
            # as in ``hockey_stick``: scale in the log domain, where bq = 0 stays 0
            with np.errstate(divide="ignore"):
                bq = np.exp(eps + np.log(bq))
        return float(np.maximum(a * (self.inf_mass + self.p_from[j]) - bq, 0.0).sum())


def optimal_epsilon(pair: DistPair, delta: float) -> float:
    """Smallest eps >= 0 with hockey_stick(pair, eps) <= delta.

    Returns ``math.inf`` when no finite eps works, i.e. when the p-mass on
    outcomes with q = 0 strictly exceeds delta, and also when that mass is
    positive and at most 4 ulps (of the mass) below delta: the pessimistic
    answer where one rounding of the mass would decide between +inf and a
    finite eps.  A zero mass never gives +inf.  Otherwise the answer is
    found on the sorted log-ratio breakpoints by solving ``A - B e^eps =
    delta`` on the bracketing segment; no iterative search is involved.
    """
    return pair.profile.epsilon(delta)


@dataclass(frozen=True)
class DcpReport:
    holds: bool
    worst_pair: tuple[int, int]
    worst_delta: float
    eps: float
    delta: float


class WorstPair(NamedTuple):
    """Largest per-pair value over an adjacency, the first pair reaching it,
    and every pair's value in pair order."""

    value: float
    pair: tuple[int, int]
    values: dict[tuple[int, int], float]


@dataclass(frozen=True, eq=False)
class Law:
    """A per-secret law (rows = secrets: an effective kernel, a composed
    joint), checked once, each pair made once asked for, keeping its sort
    and loss profile.  Pairs are its rows clipped at 0 and cut to their live
    outcomes, as ``DistPair`` makes them, on read-only arrays; pair (s1, s0)
    is pair (s0, s1) swapped, so the Neyman-Pearson sort that a trade-off
    curve of one and the ROC of the other read is done once per ordered
    pair.  A law on a read-only matrix is found again from that array by
    ``Law.of`` while it lives.  A law made by ``spread`` hands out the pairs
    of the law it was spread from."""

    matrix: np.ndarray

    def __post_init__(self):
        _check_rows_stochastic(self.matrix, "per-secret law")
        # clipping leaves rows without a sign bit as they are: share them
        rows = np.clip(self.matrix, 0.0, None) if np.signbit(self.matrix).any() else self.matrix
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_pairs", {})
        if not self.matrix.flags.writeable:
            _LAWS[id(self.matrix)] = self

    @staticmethod
    def of(law) -> Law:
        """``law`` itself when it is a ``Law``, else the live law already built
        on this very read-only array, else a new law on ``law`` as floats."""
        if isinstance(law, Law):
            return law
        matrix = np.asarray(law, dtype=float)
        found = _LAWS.get(id(matrix))  # a live law holds its matrix, so its id is not reused
        return Law(matrix) if found is None else found

    def spread(self, index: np.ndarray) -> Law:
        """The read-only law whose column i is column ``index[i]`` over the
        number of outcomes ``index`` sends there: its outcomes split each
        column at one likelihood ratio, so it hands out this law's pairs."""
        law = Law(_freeze(np.take(self.matrix / np.bincount(index), index, axis=1)))
        object.__setattr__(law, "_rows", self._rows)
        object.__setattr__(law, "_pairs", self._pairs)
        return law

    def pair(self, s0: int, s1: int) -> DistPair:
        pair = self._pairs.get((s0, s1))
        if pair is None:
            pair = _keep_live(object.__new__(DistPair), self._rows[s0], self._rows[s1])
            pair.p.flags.writeable = pair.q.flags.writeable = False  # every caller shares them
            self._pairs[(s1, s0)] = pair.swapped()
            self._pairs[(s0, s1)] = pair
        return pair

    def worst(self, world: World, *, eps: float | None = None,
              delta: float | None = None) -> WorstPair:
        """``worst_pair`` of this law."""
        if (eps is None) == (delta is None):
            raise ValueError("give exactly one of eps and delta")
        pairs = _adjacent_pairs(world)
        values = {
            (s0, s1): hockey_stick(self.pair(s0, s1), eps) if delta is None
            else self.pair(s0, s1).profile.epsilon(delta)
            for (s0, s1) in pairs
        }
        first = max(values, key=values.__getitem__)
        return WorstPair(values[first], first, values)

    def worst_joined(self, world: World, channel: np.ndarray, eps: float) -> float:
        """``worst(world, eps=eps).value`` of ``join_per_secret(self.matrix,
        channel)``, read off this law's pairs' loss tables: one check of the
        per-secret ``channel`` and one lookup per channel output, where the
        joined law would be built, checked and cut per pair."""
        _check_rows_stochastic(channel, "per-secret channel")
        rows = np.clip(channel, 0.0, None)
        return max(self.pair(s0, s1).table.hockey_stick(rows[s0], rows[s1], eps)
                   for s0, s1 in _adjacent_pairs(world))

    def check(self, world: World, eps: float, delta: float) -> DcpReport:
        """Certify this law at (eps, delta) over every adjacent secret pair:
        it holds when the worst pair's delta at eps is within ``PROB_ATOL``."""
        worst = self.worst(world, eps=eps)
        return DcpReport(holds=worst.value <= delta + PROB_ATOL, worst_pair=worst.pair,
                         worst_delta=worst.value, eps=eps, delta=delta)


# id of a read-only matrix -> a live law on it; a law leaves when it dies
_LAWS: weakref.WeakValueDictionary[int, Law] = weakref.WeakValueDictionary()


def _adjacent_pairs(world: World) -> list[tuple[int, int]]:
    """The world's adjacent secret pairs in sorted order; none is an error."""
    pairs = sorted(world.adjacency)
    if not pairs:
        raise ValueError("nothing to certify: world has an empty adjacency relation")
    return pairs


def worst_pair(world: World, law: np.ndarray, *, eps: float | None = None,
               delta: float | None = None) -> WorstPair:
    """Worst adjacent pair of a per-secret outcome law (rows = secrets).

    With ``eps`` each pair scores its hockey-stick delta at eps, with
    ``delta`` its tight epsilon at delta.  Pairs are taken in sorted order
    and the first one reaching the maximum wins ties.
    """
    return Law(np.asarray(law, dtype=float)).worst(world, eps=eps, delta=delta)


# ITP's slack n0: the steps the root finder may take past bisection's count
_ITP_N0 = 4


def monotone_root(value: Callable[[float], float], lo: float, hi: float, v_lo: float,
                  v_hi: float, *, above: Callable[[float], bool], tol: float) -> tuple[float, float]:
    """Shrink the bracket [lo, hi] (0 < lo < hi) around the switch of a
    monotone value until ``hi / lo < 1 + tol``.

    ``above(value(x))`` is false below the switch and true above it, and
    the value changes sign there; the caller passes ``v_lo``, the value at
    ``lo`` (not above), and ``v_hi``, the value at ``hi`` (above), which it
    has already computed.  Each step is an ITP step (Oliveira & Takahashi
    2020) in log x, with kappa1 = 0.1, kappa2 = 2 and n0 = ``_ITP_N0`` = 4:
    the secant point of the bracket's values, moved toward the midpoint by
    0.1 w^2 on a bracket w wide and held half the tolerance in from either
    end, then kept close enough to the midpoint that after j steps the
    bracket is at most as wide as bisection's after j - 4.  So it stops at
    most four steps after bisection would, and on a smooth value far
    sooner.  On a value flat at one end the secant stays one-sided: a slack
    of one step is spent in its first few steps, leaving midpoints, where
    four keep the secant going.  When an end's value is not finite the
    step is the midpoint.  Both returned ends are points that were
    evaluated; once the step and ``sqrt(lo * hi)`` both round onto an end,
    the bracket is returned as it is.
    """
    # the widest the bracket may be after this step: bisection's width n0 steps back
    reach = (math.log(hi) - math.log(lo)) * 2.0 ** (_ITP_N0 - 1)
    margin = 0.5 * math.log1p(tol)
    while hi / lo >= 1.0 + tol:
        a, b = math.log(lo), math.log(hi)
        mid = 0.5 * (a + b)
        x = mid
        if math.isfinite(v_lo) and math.isfinite(v_hi):
            x = a + (b - a) * (v_lo / (v_lo - v_hi))  # the values differ in sign
            x += math.copysign(min(0.1 * (b - a) ** 2, abs(mid - x)), mid - x)
            # a switch within half the tolerance of an end: this step ends the search
            x = min(max(x, a + margin), b - margin)
            radius = max(reach - 0.5 * (b - a), 0.0)
            x = min(max(x, mid - radius), mid + radius)
        point = math.exp(x)
        if not lo < point < hi:
            point = math.sqrt(lo * hi)
            if not lo < point < hi:
                break
        v = value(point)
        if above(v):
            hi, v_hi = point, v
        else:
            lo, v_lo = point, v
        reach *= 0.5
    return lo, hi


def check_dcp(world: World, mech: MechanismKernel, eps: float, delta: float) -> DcpReport:
    """Certify one mechanism at (eps, delta) over every adjacent secret pair."""
    return effective_kernel(world, mech).check(world, eps, delta)


@dataclass(frozen=True)
class TradeoffCurve:
    """Vertices of the optimal type-I/type-II error trade-off.

    ``alphas`` rise from 0 to 1, ``betas`` fall from 1 - (q-mass outside
    p's support) down to 0; randomized tests interpolate linearly between
    vertices, so the curve is the lower convex envelope.
    """

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=float))

    def beta(self, alpha) -> np.ndarray:
        """Evaluate the curve at arbitrary type-I levels by interpolation."""
        return np.interp(alpha, self.alphas, self.betas)


def _np_steps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The a- and b-mass of each likelihood-ratio group, in decreasing order
    of b/a: the sort behind a Neyman-Pearson sweep.

    Outcomes with exactly equal ratios form one group, summed in outcome
    order as ``.sum()`` sums them.  ``a`` and ``b`` carry no negative zero
    (pairs are clipped at 0).
    """
    with np.errstate(divide="ignore"):
        ratio = np.where(a > 0.0, b / np.where(a > 0.0, a, 1.0), np.inf)
    order = np.argsort(-ratio)
    ratio = ratio[order]
    first = np.concatenate(([True], ratio[1:] != ratio[:-1]))
    del ratio
    if first.all():
        # every group is one outcome, whose sum 0.0 + x is x
        return a[order], b[order]
    # that sort leaves each tie group in any order; sorting the keys (group,
    # outcome) puts every group in outcome order, as a stable sort would
    group = np.cumsum(first)
    offset = (group - 1) * first.size
    key = offset + order
    key.sort()
    order = key - offset
    # reduceat adds a group's first entry to the pairwise sum of the rest; a
    # zero put ahead of each group makes it sum the group as ``.sum()`` does
    starts = np.flatnonzero(first)
    padded = starts + np.arange(starts.size)
    at = np.arange(first.size) + group  # each outcome's place after its group's zero
    buf = np.zeros(first.size + starts.size)
    steps = []
    for v in (a, b):
        buf[at] = v[order]
        steps.append(np.add.reduceat(buf, padded))
    return steps[0], steps[1]


def _np_run(a_steps: np.ndarray, b_steps: np.ndarray, b_from: float) -> tuple[np.ndarray, np.ndarray]:
    """Neyman-Pearson vertices from the groups of ``_np_steps``.

    Returns (a_run, b_run): a_run is the a-mass taken so far, rising
    strictly from 0 to 1; b_run starts at ``b_from`` and moves by each
    group's b-mass in sequence, down from 1 (type-II error) or up from 0
    (true-positive rate).  A group without a-mass moves the vertex before it
    instead of adding one.
    """
    a_run = np.concatenate(([0.0], np.cumsum(a_steps)))
    # step from b_from one group at a time (subtracting -b_steps adds them):
    # 1 - cumsum would drift by up to 1e-14 on 1e5-outcome alphabets
    b_run = np.subtract.accumulate(np.concatenate(([b_from], b_steps if b_from else -b_steps)))
    vertex = np.concatenate(([True], a_run[1:] > a_run[:-1]))
    ends = np.append(np.flatnonzero(vertex)[1:] - 1, a_run.size - 1)
    a_run, b_run = a_run[vertex], np.maximum(b_run[ends], 0.0)
    a_run[-1], b_run[-1] = 1.0, 1.0 - b_from
    return a_run, b_run


def tradeoff_curve(pair: DistPair) -> TradeoffCurve:
    """Neyman-Pearson curve: reject in decreasing order of q/p, accumulate errors.

    Likelihood-ratio ties are merged into a single vertex, which makes the
    vertex list canonical; outcomes with p = 0 collapse into the alpha = 0
    vertex and outcomes with q = 0 into the final beta = 0 segment.  The
    sort is ``pair.steps``: a pair sorts once, whichever of this curve and
    the ROC of its swapped twin asks first.
    """
    alphas, betas = _np_run(*pair.steps, 1.0)
    return TradeoffCurve(alphas=alphas, betas=betas)
