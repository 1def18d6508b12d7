"""Traced runs: spans and counters recorded around dcpkit's public functions.

``Tracer.install`` wraps every public function of each layer module, and
rebinds every name under which another dcpkit module imported it, so calls
between layers pass through the wrappers too.  A wrapper records a span
(name, start, end, parent span, operation id) only while an operation is
running, and feeds the per-layer counters below.  Spans stay in memory
until ``write``.  ``suspended`` restores the original functions, so a traced
run can redo an operation untraced and compare the bytes it wrote.

``composition.joint_cells`` is measured, not worked out from shapes: after an
operation ends, each distinct ``composed_joint`` input it used is built once
more, unwrapped and outside the operation's time, under ``tracemalloc``; the
peak of the bytes allocated during that build, over 8, is the float64 cells
the build holds at once (temporaries included).  It is taken once per
distinct input in a run and counted for every build of that input.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "model", "divergence", "pld", "composition", "audit", "ic", "copula", "synth",
          "experiments")
COUNTERS = (
    "pld.convolve_atoms_raw", "pld.atoms_kept",
    "composition.joint_cells", "composition.joint_builds",
    "divergence.sweep_outcomes", "audit.sweep_outcomes", "divergence.pairs",
    "model.effective_kernels", "synth.kernel_builds", "copula.block_law_calls",
    "ic.posterior_calls",
)
RATIO = "composition.joint_builds_per_distinct"


def _joint_key(args, kwargs) -> str:
    """Digest of a composed_joint call's (world, mechanisms, dependence)."""
    world, mechs = args[0], args[1]
    dependence = args[2] if len(args) > 2 else kwargs.get("dependence", ())
    h = hashlib.sha1(world.joint.tobytes())
    h.update(repr(sorted(world.adjacency)).encode())
    for m in mechs:
        h.update(m.kernel.tobytes())
    for g in dependence:
        h.update(repr(g.members).encode())
        h.update(g.joint_kernel.tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = None           # id of the running operation, None between ops
        self._stack: list[int] = []
        self._joints: dict[str, list] = {}  # this op's joint inputs: key -> [args, kwargs, builds]
        self._joint_cells: dict[str, int] = {}  # key -> peak cells of one build
        self._composed_joint = None  # the unwrapped composition.composed_joint
        self.builds_distinct = 0  # sum over operations of distinct joint inputs
        self._patches: list[tuple[object, str, object, object]] = []

    # -- operations --------------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.op = op_id
        self._joints = {}

    def end_op(self) -> None:
        self.op = None
        self.builds_distinct += len(self._joints)
        for key, (args, kwargs, builds) in self._joints.items():
            if key not in self._joint_cells:
                self._joint_cells[key] = self._peak_cells(args, kwargs)
            self.counts["composition.joint_cells"] += builds * self._joint_cells[key]
        self._joints = {}

    def _peak_cells(self, args, kwargs) -> int:
        """Peak float64 cells allocated while composed_joint builds one joint."""
        tracemalloc.start()
        try:
            self._composed_joint(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak // 8

    # -- wrapping ----------------------------------------------------------

    def _counter(self, full: str):
        c = self.counts
        if full == "pld.convolve":
            def count(args, kwargs, res):
                c["pld.convolve_atoms_raw"] += args[0].losses.size * args[1].losses.size
                c["pld.atoms_kept"] += res.losses.size
        elif full == "composition.composed_joint":
            def count(args, kwargs, res):
                c["composition.joint_builds"] += 1
                self._joints.setdefault(_joint_key(args, kwargs), [args, kwargs, 0])[2] += 1
        elif full == "divergence.tradeoff_curve":
            def count(args, kwargs, res):
                c["divergence.sweep_outcomes"] += args[0].p.size
        elif full == "audit.lr_attack_roc":
            def count(args, kwargs, res):
                c["audit.sweep_outcomes"] += args[0].p.size
        elif full == "model.effective_kernel":
            def count(args, kwargs, res):
                c["model.effective_kernels"] += 1
        elif full in ("synth.binned_gaussian_kernel", "synth.binned_laplace_kernel"):
            def count(args, kwargs, res):
                c["synth.kernel_builds"] += 1
        elif full == "copula.coupled_block_law":
            def count(args, kwargs, res):
                c["copula.block_law_calls"] += 1
        elif full == "ic.posterior":
            def count(args, kwargs, res):
                c["ic.posterior_calls"] += 1
        else:
            count = None
        return count

    def _wrap(self, fn, full: str):
        nid = self._name_ids.setdefault(full, len(self.names))
        if nid == len(self.names):
            self.names.append(full)
        count = self._counter(full)
        stack, name_id, op_id, parent = self._stack, self.name_id, self.op_id, self.parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            op_id.append(self.op)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(args, kwargs, res)
            return res

        return wrapper

    def install(self) -> None:
        import dcpkit

        modules = {name: importlib.import_module(f"dcpkit.{name}") for name in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    replace[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        self._composed_joint = modules["composition"].composed_joint
        for mod in [dcpkit, *modules.values()]:
            for name, val in list(vars(mod).items()):
                if id(val) in replace and replace[id(val)][0] is val:
                    self._patches.append((mod, name, val, replace[id(val)][1]))
        # DistPair is a class: count its constructions through __post_init__
        from dcpkit.divergence import DistPair

        post = DistPair.__post_init__
        counts = self.counts

        def counted_post_init(pair):
            if self.op is not None:
                counts["divergence.pairs"] += 1
            post(pair)

        self._patches.append((DistPair, "__post_init__", post, counted_post_init))
        self._apply(wrapped=True)

    def _apply(self, wrapped: bool) -> None:
        for owner, name, original, wrapper in self._patches:
            setattr(owner, name, wrapper if wrapped else original)

    @contextlib.contextmanager
    def suspended(self):
        """Run with the original, unwrapped functions."""
        self._apply(wrapped=False)
        try:
            yield
        finally:
            self._apply(wrapped=True)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation calls and self time per layer, plus the counters."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        # self time: duration minus the time the span's direct children cover
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0])
        span_layer = layer_of[names] if names.size else np.zeros(0, dtype=int)
        calls = np.bincount(span_layer, minlength=len(LAYERS))
        selfs = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS))
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = int(calls[i]) / n_ops
            out[f"{layer}.self_s"] = float(selfs[i]) / n_ops
        for key in COUNTERS:
            out[key] = self.counts[key] / n_ops
        builds = self.counts["composition.joint_builds"]
        out[RATIO] = builds / self.builds_distinct if self.builds_distinct else 0.0
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
