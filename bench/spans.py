"""Span tracer that wraps coopmab's public functions and methods from outside.

Entering a ``Tracer`` replaces every public function and method of the
layers in ``LAYERS`` with a wrapper that records one span per call: name,
start, end, parent span and op id.  Spans live in flat in-memory arrays
and are written out once, by ``save``, when the benchmark ends.  Nothing
in ``src/`` is edited; leaving the ``with`` block restores the originals,
and the same tracer can be entered again to add more spans.

A few wrappers also record counts taken from arguments or results at the
same boundary (BFS sources, propagation rounds, centers, loss bytes), so
every ratio is measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("graph", "exp3", "partition", "simulate", "cli")

# O(1) accessors called per node on every propagation pass or per agent at
# world set-up (millions of calls per op): a span each would cost more than
# the work it times and would swamp every other layer's self time.
ACCESSORS = frozenset({
    "graph.Graph.neighbors", "graph.Graph.degree", "graph.Graph.closed_degree",
    "partition.Mass.is_nil", "partition.Mass.value", "partition.Mass.score",
    "partition.Mass.decayed", "partition.Partition.mass", "partition.Partition.mass_value",
    "partition.Partition.role", "partition.ComponentMap.mass",
    "partition.ComponentMap.fully_assigned", "partition.ComponentMap.center_pointer_after",
    "partition.CheckResult.line",
})
# Private methods traced all the same, because a named metric times them.
EXTRA = frozenset({"simulate.SimWorld.__init__"})

# metric -> span whose inclusive time (children included) it sums.  No
# traced function calls itself, so summing every span of a name never
# counts an interval twice.
INCLUSIVE = {
    "graph.parse_s": "graph.read_edge_list",
    "graph.bfs_s": "graph.Graph.distances_from",
    "graph.ball_s": "graph.Graph.ball",
    "partition.informed_s": "partition.compute_centers_informed",
    "partition.propagate_s": "partition.centers_to_components",
    "partition.min_dist_s": "partition.min_center_distance",
    "partition.uninformed_s": "partition.compute_centers_uninformed",
    "partition.luby_s": "partition.luby_2mis",
    "partition.validate_s": "partition.validate_partition",
    "exp3.update_s": "exp3.exp3_update_raw",
    "exp3.estimate_s": "exp3.estimated_loss_vector",
    "exp3.probs_s": "exp3.probs_from_log_weights",
    "simulate.sample_s": "simulate.SimWorld.sample_actions",
    "simulate.warmup_s": "simulate.SimWorld.warmup_round",
    "simulate.losses_s": "simulate.LossOracle.matrix",
    "simulate.world_init_s": "simulate.SimWorld.__init__",
    "cli.sweep_s": "cli.sweep",
    "cli.rows_s": "cli.results_rows",
    "cli.summary_s": "cli.summary_doc",
    "cli.csv_s": "cli.write_csv",
}
# metric -> span whose self time (children excluded) it sums
SELF = {"simulate.round_s": "simulate.SimWorld.advance_round"}
# metric -> span whose call count it takes
CALLS = {
    "graph.bfs_calls": "graph.Graph.distances_from",
    "graph.ball_calls": "graph.Graph.ball",
    "partition.propagate_calls": "partition.centers_to_components",
    "exp3.sampler_fallbacks": "exp3.sample_action",
}
LAYER_SELF = tuple(f"{layer}.self_s" for layer in LAYERS)


def _targets():
    """(span name, owner, attribute, function) for every traced callable."""
    for layer in LAYERS:
        mod = importlib.import_module(f"coopmab.{layer}")
        for attr, val in vars(mod).items():
            if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val):
                yield f"{layer}.{attr}", mod, attr, val
            elif inspect.isclass(val):
                for meth, fn in vars(val).items():
                    name = f"{layer}.{attr}.{meth}"
                    public = not meth.startswith("_") or name in EXTRA
                    if inspect.isfunction(fn) and public and name not in ACCESSORS:
                        yield name, val, meth, fn


class Tracer:
    """Records spans while entered (re-entrant); ``op`` tags every span with the current op."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.bfs_keys: set[tuple[int, int, int]] = set()
        self.counts = {"settled": 0, "rounds": 0, "luby_rounds": 0, "centers": 0}
        self.loss_bytes = 0
        self.observe_errors = 0
        self._patches = self._bindings()

    # -- counts recorded at the span boundary --------------------------------
    def _on_distances_from(self, args, kwargs, result) -> None:
        source = args[1] if len(args) > 1 else kwargs["source"]
        self.bfs_keys.add((self.op, id(args[0]), int(source)))

    def _on_propagate(self, args, kwargs, result) -> None:
        self.counts["settled"] += result.settled_round
        self.counts["rounds"] += result.rounds

    def _on_luby(self, args, kwargs, result) -> None:
        self.counts["luby_rounds"] += result.rounds_used

    def _on_election(self, args, kwargs, result) -> None:
        self.counts["centers"] += len(result.centers)

    def _on_losses(self, args, kwargs, result) -> None:
        self.loss_bytes = max(self.loss_bytes, int(result.nbytes))

    def _observers(self):
        return {
            "graph.Graph.distances_from": self._on_distances_from,
            "partition.centers_to_components": self._on_propagate,
            "partition.luby_2mis": self._on_luby,
            "partition.compute_centers_informed": self._on_election,
            "partition.compute_centers_uninformed": self._on_election,
            "simulate.LossOracle.matrix": self._on_losses,
        }

    def _wrap(self, name: str, fn, observe):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.observe_errors += 1  # the program changed shape; count, never fail the op
            return result

        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        observers = self._observers()
        out, wrapped = [], {}  # wrapped: id(original function) -> wrapper
        for name, owner, attr, fn in _targets():
            wrapper = self._wrap(name, fn, observers.get(name))
            if inspect.isclass(owner):
                out.append((owner, attr, fn, wrapper))
            else:
                wrapped[id(fn)] = wrapper
        # modules import functions by name from each other (cli imports
        # read_edge_list, simulate imports compute_centers_informed, ...),
        # so every coopmab module's binding of a function is replaced
        for modname in ("coopmab", *(f"coopmab.{m}" for m in (*LAYERS, "suites"))):
            mod = importlib.import_module(modname)
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and id(val) in wrapped:
                    out.append((mod, attr, val, wrapped[id(val)]))
        return out

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def _totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inclusive time, self time and call count per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        k = len(self.names)
        return (np.bincount(a["name_id"], weights=dur, minlength=k),
                np.bincount(a["name_id"], weights=dur - child, minlength=k),
                np.bincount(a["name_id"], minlength=k))

    def functions(self, cycles: int) -> dict[str, list[float]]:
        """[calls, self s, inclusive s] per cycle of every function called, by self time."""
        inclusive, own, calls = self._totals()
        order = np.argsort(-own)
        return {self.names[i]: [calls[i] / cycles, own[i] / cycles, inclusive[i] / cycles]
                for i in order if calls[i]}

    def metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics, each per traced cycle (``cycles`` of them)."""
        inclusive, own, calls = self._totals()
        # a function the program no longer has counts as never called
        index = {name: i for i, name in enumerate(self.names)}
        inclusive, own, calls = (np.append(a, 0) for a in (inclusive, own, calls))
        missing = len(self.names)

        def at(name: str) -> int:
            return index.get(name, missing)

        out: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, name in enumerate(self.names) if name.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = float(own[ids].sum()) / cycles
            out[f"{layer}.calls"] = float(calls[ids].sum()) / cycles
        for metric, name in INCLUSIVE.items():
            out[metric] = float(inclusive[at(name)]) / cycles
        for metric, name in SELF.items():
            out[metric] = float(own[at(name)]) / cycles
        for metric, name in CALLS.items():
            out[metric] = float(calls[at(name)]) / cycles

        bfs_calls = int(calls[at("graph.Graph.distances_from")])
        out["graph.bfs_cache_hit_ratio"] = (
            1.0 - len(self.bfs_keys) / bfs_calls if bfs_calls else 0.0
        )
        c = self.counts
        out["partition.propagate_per_center"] = (
            float(calls[at("partition.centers_to_components")]) / c["centers"]
            if c["centers"] else 0.0
        )
        out["partition.luby_rounds"] = c["luby_rounds"] / cycles
        out["partition.rounds_used_ratio"] = c["settled"] / c["rounds"] if c["rounds"] else 0.0
        out["partition.centers"] = c["centers"] / cycles
        rounds = int(calls[at("simulate.SimWorld.advance_round")])
        out["exp3.update_calls_per_round"] = (
            float(calls[at("exp3.exp3_update_raw")]) / rounds if rounds else 0.0
        )
        out["simulate.loss_bytes"] = float(self.loss_bytes)
        return out
