"""Exact (epsilon, delta) computations between finite distributions.

Everything here works directly on probability vectors: the hockey-stick
divergence, its inversion to the smallest feasible epsilon, certification of
a mechanism against a world's adjacency, and Neyman-Pearson trade-off
curves.  It also holds the three primitives every other layer builds on: the
worst adjacent pair of a per-secret law (``worst_pair``), the one sort of a
pair's losses behind its tight epsilon, trade-off curve, attacker ROC and
joined delta and epsilon, and its twin's (``LossProfile``, also the PLD that
``dcpkit.pld`` composes), and the bracketing root finder behind every
calibration (one ITP search, ``_itp``, run alone by
``monotone_root`` or several in lockstep by ``monotone_roots``).  The direct
``hockey_stick`` computes the same quantities without that sort; it and the
profile stay independent routes, so each can serve as the other's oracle.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Generator, NamedTuple, Sequence

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
    def profile(self) -> LossProfile:
        """The pair's ``LossProfile``: its twin's, reversed, when the twin
        has one, so a pair and its twin sort once between them."""
        twin = self.swapped()
        return twin.profile.reversed() if "profile" in twin.__dict__ else LossProfile(self)


def _keep_live(pair: DistPair, p: np.ndarray, q: np.ndarray) -> DistPair:
    """Set ``pair`` to checked, clipped ``p``, ``q`` less their dead
    outcomes: ``p`` and ``q`` themselves when every outcome is live, else
    copies cut to the live ones."""
    live = (p > 0.0) | (q > 0.0)
    if not live.all():
        p, q = p[live], q[live]
    object.__setattr__(pair, "p", p)
    object.__setattr__(pair, "q", q)
    return pair


def _exp_times(eps: float, q: np.ndarray) -> np.ndarray:
    """e^eps q of a finite eps.  Where e^eps is past the float range, each q
    is scaled in the log domain, where q = 0 gives e^-inf = 0 and no inf * 0."""
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    try:
        return math.exp(eps) * q
    except OverflowError:
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(eps + np.log(q))


def hockey_stick(pair: DistPair, eps: float) -> float:
    """Sum of (p - e^eps q)+ over outcomes; the delta achieved at this eps."""
    return float(_hockey_sums(pair.p, pair.q, eps))


def _hockey_sums(p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """The sums of (p - e^eps q)+ along the last axis, in one buffer."""
    gaps = _exp_times(eps, q)
    np.subtract(p, gaps, out=gaps)
    return np.add.reduce(np.maximum(gaps, 0.0, out=gaps), -1)


class LossProfile:
    """The losses log p - log q of one pair in [-inf, +inf], ascending, equal
    ones merged into a group with its p- and q-mass summed in outcome order:
    the one order that the trade-off curve, ROC, tight epsilon and joined
    delta and epsilon of the pair read, and its twin reads reversed
    (``reversed``) (Balle, Barthe & Gaboardi 2018; Dong, Roth & Su 2022).
    It is the pair's privacy-loss distribution too; ``of_atoms`` builds one
    from loss atoms, such as a convolution's.  The sums from each group on
    are taken once asked for."""

    def __init__(self, pair: DistPair):
        with np.errstate(divide="ignore"):
            loss = np.log(pair.p) - np.log(pair.q)
        self.losses, self.p_mass, self.q_mass = _np_steps(loss, pair.p, pair.q)

    @staticmethod
    def of_atoms(losses, p_mass, q_mass) -> LossProfile:
        """The profile of loss atoms in any order, each with its p- and
        q-mass, grouped as a pair's outcomes are.  A NaN loss, a non-finite
        or negative mass, or a total p-mass off 1 by more than 1e-9 is
        refused with ``ValueError``."""
        losses, p_mass, q_mass = (np.asarray(v, dtype=float) for v in (losses, p_mass, q_mass))
        if losses.ndim != 1 or not losses.shape == p_mass.shape == q_mass.shape:
            raise ValueError("losses and masses must be equal-length vectors")
        if np.isnan(losses).any() or not (np.isfinite(p_mass).all() and np.isfinite(q_mass).all()):
            raise ValueError("a loss is NaN or a mass is not finite")
        if (p_mass < 0.0).any() or (q_mass < 0.0).any():
            raise ValueError("negative probability mass in a loss profile")
        total = float(p_mass.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"total p-mass is {total}, not 1")
        profile = object.__new__(LossProfile)
        profile.losses, profile.p_mass, profile.q_mass = _np_steps(losses, p_mass, q_mass)
        return profile

    def reversed(self) -> LossProfile:
        """The profile of the pair (q, p) on these very group masses."""
        twin = object.__new__(LossProfile)
        twin.losses, twin.p_mass, twin.q_mass = -self.losses[::-1], self.q_mass[::-1], self.p_mass[::-1]
        return twin

    @property
    def inf_mass(self) -> float:
        """The p-mass at loss +inf, where q = 0."""
        return float(self.p_mass[-1]) if self.losses[-1] == math.inf else 0.0

    @cached_property
    def _from(self) -> tuple[np.ndarray, np.ndarray]:
        """The p- and q-mass of the groups from each one on, a 0 past the last."""
        return tuple(np.append(np.cumsum(v[::-1])[::-1], 0.0) for v in (self.p_mass, self.q_mass))

    @cached_property
    def _breaks(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The first group with a positive loss, the p- less the q-mass of
        the groups from each positive one on (``gaps``, a 0 past the last;
        delta(0) first), and the profile at each finite positive loss
        (atoms strictly above it contribute), negated so that it ascends."""
        p_from, q_from = self._from
        first = int(np.searchsorted(self.losses, 0.0, side="right"))
        end = self.losses.size - (self.losses[-1] == math.inf)
        gaps = np.append(np.cumsum((self.p_mass[first:] - self.q_mass[first:])[::-1])[::-1], 0.0)
        losses, q_next = self.losses[first:end], q_from[first + 1:end + 1]
        if first < end and losses[-1] > 709.0:  # the losses ascend: only then can e^loss overflow
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                scaled = np.exp(losses) * q_next
                # where e^loss is past the float range, scale q in the log domain as ``_exp_times`` does
                past = ~np.isfinite(scaled)
                scaled[past] = np.exp(losses[past] + np.log(q_next[past]))
        else:
            scaled = np.exp(losses) * q_next
        return first, gaps, scaled - p_from[first + 1:end + 1]

    def epsilon(self, delta: float) -> float:
        """``optimal_epsilon`` of the pair at ``delta``."""
        if not 0.0 <= delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {delta}")
        # a positive +inf mass up to 4 ulps below delta still reads as above it,
        # so its last bit never decides between +inf and a finite epsilon; this
        # comes first, since delta(0) can equal the mass
        inf_mass = self.inf_mass
        if inf_mass > 0.0 and delta <= inf_mass + 4.0 * math.ulp(inf_mass):
            return math.inf
        first, gaps, drops = self._breaks
        if gaps[0] <= delta:
            return 0.0
        k = int(np.searchsorted(drops, -delta))  # first breakpoint with profile <= delta
        # segment (l_{j-1}, l_j], j = first + k: the atoms with loss >= l_j are
        # active, with p-mass a and q-mass b, and eps = log((a - delta) / b).
        # Below log 2 it is log1p((a - b - delta) / b), with a - b summed from
        # p - q, which keeps a small eps accurate to its own size; above, the
        # quotient is as accurate and log rounds closer than log1p
        p_from, q_from = self._from
        gap, b = gaps[k] - delta, q_from[first + k]
        if b == 0.0:  # the profile stays at a > delta up to l_j, where it drops
            return float(self.losses[first + k])
        if gap < b:
            eps = math.log1p(gap / b)
        else:
            # a float quotient past the float range reads inf: take it in the log domain
            a, b = float(p_from[first + k] - delta), float(b)
            eps = math.log(a / b) if a / b < math.inf else math.log(a) - math.log(b)
        return float(max(eps, 0.0))

    def sweep(self, q_start: float) -> tuple[np.ndarray, np.ndarray]:
        """Neyman-Pearson vertices (p_run, q_run) of the groups in this order.

        p_run is the p-mass taken so far, rising strictly from 0 to 1; q_run
        starts at ``q_start`` and moves by each group's q-mass in sequence,
        down from 1 (type-II error) or up from 0 (true-positive rate).  A
        group without p-mass moves the vertex before it instead of adding one.
        """
        p_run = np.concatenate(([0.0], np.cumsum(self.p_mass)))
        # step from q_start one group at a time (subtracting -q_mass adds them):
        # 1 - cumsum would drift by up to 1e-14 on 1e5-outcome alphabets
        q_run = np.subtract.accumulate(np.concatenate(([q_start], self.q_mass if q_start else -self.q_mass)))
        vertex = np.concatenate(([True], p_run[1:] > p_run[:-1]))
        ends = np.append(np.flatnonzero(vertex)[1:] - 1, p_run.size - 1)
        p_run, q_run = p_run[vertex], np.maximum(q_run[ends], 0.0)
        p_run[-1], q_run[-1] = 1.0, 1.0 - q_start
        return p_run, q_run

    def _above(self, t: np.ndarray) -> np.ndarray:
        """Per entry of ``t``, the first group with a loss above it.  A
        joined term sorted by loss gives a descending ``t``, so it is searched
        reversed: ``searchsorted`` is fastest on ascending keys, and gives the
        same indices in any order."""
        return np.searchsorted(self.losses, t[::-1], side="right")[::-1]

    @staticmethod
    def _joined(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The outcomes k with a_k > 0: their a_k, b_k and loss log(a_k / b_k)."""
        live = a > 0.0
        a, b = a[live], b[live]
        with np.errstate(divide="ignore"):
            return a, b, np.log(a) - np.log(b)

    def _joined_delta(self, a: np.ndarray, b: np.ndarray, j: np.ndarray, eps: float) -> float:
        """``hockey_stick`` at ``eps`` joined with the live (``a``, ``b``), at
        ``j`` each one's first group above its shifted eps.  Where b_k
        q_from[j] underflows to 0 from two positive factors, e^eps scales it
        in the log domain."""
        p_from, q_from = self._from
        q_j = q_from[j]
        scaled = _exp_times(eps, b * q_j)
        if not scaled.all():
            lost = (scaled == 0.0) & (b > 0.0) & (q_j > 0.0)
            with np.errstate(over="ignore"):
                scaled[lost] = np.exp(eps + np.log(b[lost]) + np.log(q_j[lost]))
        return float(np.maximum(a * p_from[j] - scaled, 0.0).sum())

    def hockey_stick(self, a: np.ndarray, b: np.ndarray, eps: float) -> float:
        """``hockey_stick`` at ``eps`` of this pair joined with (``a``, ``b``),
        i.e. of (p_i a_k, q_i b_k) over the outcomes (i, k).  Outcome k adds
        a_k times the pair's profile at eps - log(a_k / b_k) (Balle, Barthe &
        Gaboardi 2018), which is 1 at b_k = 0: a_k p_from[j] - e^eps b_k
        q_from[j], j the first group with a loss above the shifted eps."""
        if not math.isfinite(eps):
            raise ValueError(f"eps must be finite, got {eps}")
        a, b, loss = self._joined(a, b)
        return self._joined_delta(a, b, self._above(eps - loss), eps)

    def joined_epsilon(self, a: np.ndarray, b: np.ndarray, delta: float) -> float:
        """Smallest eps >= 0 with ``hockey_stick(a, b, eps)`` <= delta: inf
        if none, and if delta exceeds a positive +inf mass by at most 4 ulps
        of the mass, as ``epsilon`` reads it.

        On the segment of joined groups active at eps the profile is A -
        e^eps B, A and B the sums of a_k p_from[j] and b_k q_from[j].  The
        profile is convex in e^eps and each segment's line lies below it, so
        the root of the line at eps is at most the profile's root: starting
        from 0 the roots climb, and the first one that stays on its own
        segment is exact.  No tolerance, no bisection.  Where B is 0 the
        climb goes on from the next loss at which an active set changes.  A
        root whose e^eps leaves the float range is refused with ``ValueError``.
        """
        if not 0.0 <= delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {delta}")
        a, b, loss = self._joined(a, b)
        # the joined +inf mass: all of a_k where b_k = 0, else the pair's share
        inf_mass = float(a @ np.where(b > 0.0, self.inf_mass, 1.0))
        if inf_mass > 0.0 and delta <= inf_mass + 4.0 * math.ulp(inf_mass):
            return math.inf
        eps, j = 0.0, self._above(-loss)
        if self._joined_delta(a, b, j, eps) <= delta:
            return 0.0
        p_from, q_from = self._from
        while True:
            above, weight = float((a * p_from[j]).sum()), float((b * q_from[j]).sum())
            if above <= delta:  # nothing left above eps to bring down: it is the root
                return eps
            if not ((b > 0.0) & (q_from[j] > 0.0)).any():
                # B is 0, not rounded to 0: flat up to where an active set next changes
                eps = max(float(np.min(np.append(self.losses, math.inf)[j] + loss)), math.nextafter(eps, math.inf))
                if eps == math.inf:
                    return eps
                j = self._above(eps - loss)
                if self._joined_delta(a, b, j, eps) <= delta:
                    return eps
                continue
            if weight == 0.0 or (above - delta) / weight == math.inf:
                raise ValueError("the root lies where e^eps leaves the float range")
            root = math.log((above - delta) / weight)
            j_root = self._above(root - loss)
            if root <= eps or (j_root == j).all():
                return float(max(root, 0.0))
            eps, j = root, j_root


def optimal_epsilon(pair: DistPair, delta: float) -> float:
    """Smallest eps >= 0 with hockey_stick(pair, eps) <= delta.

    Returns ``math.inf`` when no finite eps works, i.e. when the p-mass on
    outcomes with q = 0 strictly exceeds delta, and also when that mass is
    positive and at most 4 ulps (of the mass) below delta: the pessimistic
    answer where one rounding of the mass would decide between +inf and a
    finite eps.  A zero mass never gives +inf.  Otherwise the answer is
    found on the breakpoints of ``pair.profile`` by solving ``A - B e^eps =
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
    joint), checked once, each pair made once asked for.  Pairs are its rows
    clipped at 0 and cut to their live outcomes, as ``DistPair`` makes them,
    on read-only arrays (``pair``); pair (s1, s0) is pair (s0, s1) swapped,
    so the two share one ``LossProfile``: each unordered adjacent pair is
    sorted once.  A law's matrix is not written once the law is made.
    A law on a read-only matrix is found again from that array by ``Law.of``
    while it lives.  A law made by ``spread`` hands out the pairs of the law
    it was spread from."""

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

    def spread(self, index: np.ndarray, counts: np.ndarray) -> Law:
        """The read-only law whose column i is column ``index[i]`` over its
        ``counts`` of outcomes: its outcomes split each column at one
        likelihood ratio, so it hands out this law's pairs."""
        law = Law(_freeze(np.take(self.matrix / counts, index, axis=1)))
        object.__setattr__(law, "_rows", self._rows)
        object.__setattr__(law, "_pairs", self._pairs)
        return law

    def pair(self, s0: int, s1: int) -> DistPair:
        """The pair of rows (``s0``, ``s1``), made once: read-only views of
        the (clipped) rows when every outcome is live, else copies cut to
        the live outcomes."""
        pair = self._pairs.get((s0, s1))
        if pair is None:
            pair = _keep_live(object.__new__(DistPair), self._rows[s0], self._rows[s1])
            pair.p.flags.writeable = pair.q.flags.writeable = False  # every caller shares them
            self._pairs[(s1, s0)] = pair.swapped()
            self._pairs[(s0, s1)] = pair
        return pair

    def worst(self, world: World, *, eps: float | None = None,
              delta: float | None = None) -> WorstPair:
        """``worst_pair`` of this law; with ``eps``, its ``_pair_deltas`` row: each pair
        summed on the rows if every entry is positive, else on the pair its cut makes."""
        if (eps is None) == (delta is None):
            raise ValueError("give exactly one of eps and delta")
        pairs = _adjacent_pairs(world)
        row = (_pair_deltas(self._rows[None], pairs, eps, self)[0] if delta is None
               else [self.pair(s0, s1).profile.epsilon(delta) for s0, s1 in pairs])
        values = dict(zip(pairs, row))
        first = max(values, key=values.__getitem__)
        return WorstPair(values[first], first, values)

    def worst_joined(self, world: World, channel: np.ndarray, eps: float) -> float:
        """``worst(world, eps=eps).value`` of ``join_per_secret(self.matrix,
        channel)``, read off this law's pairs' loss profiles: one check of the
        per-secret ``channel`` and one lookup per channel output, where the
        joined law would be built, checked and cut per pair."""
        _check_rows_stochastic(channel, "per-secret channel")
        rows = np.clip(channel, 0.0, None)
        return max(self.pair(s0, s1).profile.hockey_stick(rows[s0], rows[s1], eps)
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


def _pair_deltas(stack: np.ndarray, pairs: list[tuple[int, int]], eps: float,
                 law: Law | None = None) -> list[list[float]]:
    """``hockey_stick`` at ``eps`` of each of ``pairs`` in each law of a stack
    (laws, secrets, outcomes), bit for bit (``law``: a one-law stack's ``Law``).
    With every entry positive nothing is cut: a pair is one pass over all laws;
    else each cut ``Law.pair`` (the cut reorders the sum) is one call."""
    if np.minimum.reduce(stack, None) > 0.0:
        return np.array([_hockey_sums(stack[:, s0], stack[:, s1], eps) for s0, s1 in pairs]).T.tolist()
    laws = [law] if law else map(Law, stack)
    return [[hockey_stick(cut.pair(s0, s1), eps) for s0, s1 in pairs] for cut in laws]


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


def _itp(lo: float, hi: float, v_lo: float, v_hi: float, above: Callable[[float], bool],
         tol: float) -> Generator[float, float, tuple[float, float]]:
    """Shrink the bracket [lo, hi] (0 < lo < hi) around the switch of a
    monotone value until ``hi / lo < 1 + tol``: a generator that yields each
    point to evaluate, is sent the value there, and returns the bracket.

    ``above(value)`` is false below the switch and true above it, and the
    value changes sign there; ``v_lo`` is the value at ``lo`` (not above)
    and ``v_hi`` the value at ``hi`` (above).  Each step is an ITP step
    (Oliveira & Takahashi 2020) in log x, with kappa1 = 0.1, kappa2 = 2 and
    n0 = ``_ITP_N0`` = 4: the secant point of the bracket's values, moved
    toward the midpoint by 0.1 w^2 on a bracket w wide and held half the
    tolerance in from either end, then kept close enough to the midpoint
    that after j steps the bracket is at most as wide as bisection's after
    j - 4.  So it stops at most four steps after bisection would, and on a
    smooth value far sooner.  On a value flat at one end the secant stays
    one-sided: a slack of one step is spent in its first few steps, leaving
    midpoints, where four keep the secant going.  When an end's value is
    not finite the step is the midpoint.  Both returned ends are points
    that were evaluated; once the step and ``sqrt(lo * hi)`` both round
    onto an end, the bracket is returned as it is.  Every step is
    Python-float arithmetic on the bracket's ends and values, so a search's
    points do not depend on who drives it.
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
        v = yield point
        if above(v):
            hi, v_hi = point, v
        else:
            lo, v_lo = point, v
        reach *= 0.5
    return lo, hi


def monotone_root(value: Callable[[float], float], lo: float, hi: float, v_lo: float,
                  v_hi: float, *, above: Callable[[float], bool], tol: float) -> tuple[float, float]:
    """The ``_itp`` search of [lo, hi] on ``value``, whose values at the
    ends, ``v_lo`` and ``v_hi``, the caller has already computed."""
    (bracket,) = monotone_roots(lambda which, points: [value(points[0])], [(lo, hi, v_lo, v_hi)],
                                above=above, tol=tol)
    return bracket


def monotone_roots(values: Callable[[list, list], Sequence[float]], brackets, *,
                   above: Callable[[float], bool], tol: float) -> list[tuple[float, float]]:
    """``_itp`` searches of K brackets (lo, hi, v_lo, v_hi) in lockstep:
    each round, ``values(which, points)`` is asked in one call for the
    values at the points of the searches still running (``which``, their
    indices, ascending).  Each search's points and returned bracket are
    those it has run alone."""
    searches = [_itp(lo, hi, v_lo, v_hi, above, tol) for lo, hi, v_lo, v_hi in brackets]
    ends, sent = [None] * len(searches), dict.fromkeys(range(len(searches)))
    while sent:
        points = {}
        for k, v in sent.items():
            try:
                points[k] = searches[k].send(v)
            except StopIteration as stop:
                ends[k] = stop.value
        which = list(points)
        sent = dict(zip(which, values(which, list(points.values())))) if which else {}
    return ends


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


def _np_steps(loss: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct loss, ascending in [-inf, +inf], with the p- and q-mass
    of the outcomes at it: the one sort behind every ``LossProfile``.

    Outcomes with exactly equal losses form one group, summed in the order
    given as ``.sum()`` sums them.  No loss is NaN.
    """
    order = np.argsort(loss)
    loss = loss[order]
    first = np.concatenate(([True], loss[1:] != loss[:-1]))
    if first.all():
        # every group is one outcome, whose sum 0.0 + x is x
        return loss, p[order], q[order]
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
    masses = []
    for v in (p, q):
        buf[at] = v[order]
        masses.append(np.add.reduceat(buf, padded))
    return loss[starts], masses[0], masses[1]


def tradeoff_curve(pair: DistPair) -> TradeoffCurve:
    """Neyman-Pearson curve: reject in decreasing order of q/p, accumulate errors.

    Outcomes of equal loss log p - log q are merged into a single vertex,
    which makes the vertex list canonical; outcomes with p = 0 collapse into
    the alpha = 0 vertex and outcomes with q = 0 into the final beta = 0
    segment.  It sweeps ``pair.profile``'s groups in ascending loss, the
    order that the pair's tight epsilon and its twin's ROC read too.
    """
    return TradeoffCurve(*pair.profile.sweep(1.0))
