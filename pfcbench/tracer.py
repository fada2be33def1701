"""Span recorder for the traced benchmark run.

The recorder replaces pfclab's public functions, in every module namespace
where a caller looks them up, with wrappers that record one span per call:
name, parent span, start and end.  Spans live in flat in-memory arrays and
are written out once, when the run ends.  Self time, per-call percentiles
and the per-layer metrics are computed from those spans afterwards; a few
counts that need the call's arguments or result (trials, steps, repeated
or degenerate objective calls) are taken by hooks at the same boundary.
"""

from __future__ import annotations

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, object that holds the function, attribute, other modules that
# import the function by name).  Class attributes are looked up on the class
# by every caller, so patching the class covers them all.
TRACED = [
    ("poly.roots", "pfclab.poly:Polynomial", "roots", ()),
    ("poly.eval", "pfclab.poly:Polynomial", "__call__", ()),
    ("tf.closed_loop", "pfclab.tf", "closed_loop", ("pfclab.synth", "pfclab.analysis", "pfclab.cli")),
    ("tf.angular_closed_loop", "pfclab.tf", "angular_closed_loop", ("pfclab.sim",)),
    ("tf.noise_channels", "pfclab.tf", "noise_channels", ("pfclab.cli",)),
    ("tf.pip_check", "pfclab.tf", "pip_check", ("pfclab.cli",)),
    ("plant.position_plant", "pfclab.plant", "position_plant", ("pfclab.analysis", "pfclab.cli")),
    ("plant.nonlinear_derivatives", "pfclab.plant", "nonlinear_derivatives", ("pfclab.sim",)),
    ("synth.objective", "pfclab.synth", "objective", ()),
    ("synth.ga_search", "pfclab.synth", "ga_search", ("pfclab.cli",)),
    ("synth.verify_pair", "pfclab.synth", "verify_pair", ("pfclab.cli",)),
    ("analysis.robustness_mc", "pfclab.analysis", "robustness_mc", ("pfclab.cli",)),
    ("analysis.fragility_mc", "pfclab.analysis", "fragility_mc", ("pfclab.cli",)),
    ("analysis.bode", "pfclab.analysis", "bode", ("pfclab.cli:bode_curve",)),
    ("sim.step_response", "pfclab.sim", "step_response", ("pfclab.cli",)),
    ("sim.angle_step_response", "pfclab.sim", "angle_step_response", ("pfclab.cli",)),
    ("sim.nonlinear_closed_loop", "pfclab.sim", "nonlinear_closed_loop", ()),
    ("sim.linear_closed_loop", "pfclab.sim", "linear_closed_loop", ()),
    ("sim.noise_time_response", "pfclab.sim", "noise_time_response", ("pfclab.cli",)),
    ("cli.main", "pfclab.cli", "main", ()),
    ("cli.write", "pfclab.sim:TimeSeries", "to_csv", ()),
    ("cli.write", "pfclab.analysis:BodeCurve", "to_csv", ()),
    ("cli.write", "pfclab.analysis:McReport", "to_json", ()),
    ("cli.write", "pfclab.analysis:McReport", "cloud_to_csv", ()),
] + [
    ("modern." + fn, "pfclab.modern", fn, ("pfclab.cli",))
    for fn in (
        "controllability_matrix",
        "observability_matrix",
        "gain_design",
        "combined_system",
        "ss_to_tf",
        "remove_factor",
        "equivalent_Kb",
        "equivalent_Kf",
    )
]

MODULES = ("poly", "tf", "plant", "synth", "analysis", "sim", "modern", "cli")


def _home(where: str):
    """'pkg.mod' or 'pkg.mod:Class' to the object that defines the function."""
    mod, _, cls = where.partition(":")
    owner = importlib.import_module(mod)
    return getattr(owner, cls) if cls else owner


def _user(where: str, attr: str):
    """'pkg.mod' or 'pkg.mod:alias' to (module, name the module calls it by)."""
    mod, _, alias = where.partition(":")
    return importlib.import_module(mod), alias or attr


class Recorder:
    """Installs span wrappers, holds the spans, computes per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}
        self._seen: set = set()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from pfclab import synth

        hooks = {
            "synth.ga_search": (self._new_search, None),
            "synth.objective": (None, self._objective_done),
            "analysis.robustness_mc": (None, lambda a, r: self._count("analysis.mc.trials", r.trials)),
            "analysis.fragility_mc": (None, lambda a, r: self._count("analysis.mc.trials", r.trials)),
            "sim.step_response": (None, lambda a, r: self._count("sim.step_response.steps", len(r.t) - 1)),
            "sim.nonlinear_closed_loop": (
                None,
                lambda a, r: self._count("sim.nonlinear_closed_loop.steps", len(r[0].t) - 1),
            ),
        }
        self._large = synth.LARGE
        for span, home, attr, users in TRACED:
            owner = _home(home)
            before, after = hooks.get(span, (None, None))
            wrapper = self._wrap(span, getattr(owner, attr), before, after)
            self._patch(owner, attr, wrapper)
            for user in users:
                self._patch(*_user(user, attr), wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn, before, after):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends, stack = (
            self.name,
            self.parent,
            self.start,
            self.end,
            self._stack,
        )

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    # -- hooks -----------------------------------------------------------

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _new_search(self, args) -> None:
        self._seen = set()

    def _objective_done(self, args, result) -> None:
        q = args[0].q
        if q in self._seen:
            self._count("synth.objective.repeats", 1)
        else:
            self._seen.add(q)
        if result == self._large:
            self._count("synth.objective.degenerate", 1)

    # -- metrics ---------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; brackets one pass for :meth:`metrics`."""
        return len(self.start)

    def take_counts(self) -> dict[str, int]:
        out, self.counts = self.counts, {}
        return out

    def metrics(self, lo: int, hi: int, counts: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in [lo, hi)."""
        name = np.frombuffer(self.name, dtype=np.uint16)[lo:hi].astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.intp)
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        )
        has_parent = parent >= lo
        child = np.bincount(
            parent[has_parent] - lo, weights=dur[has_parent], minlength=dur.size
        )
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_by = np.bincount(name, weights=self_t, minlength=n)

        def idx(span):
            return self._ids.get(span)

        def ncalls(span):
            i = idx(span)
            return int(calls[i]) if i is not None else 0

        def self_s(*spans):
            return float(sum(self_by[idx(s)] for s in spans if idx(s) is not None))

        def per_call_us(span, q):
            i = idx(span)
            d = dur[name == i] if i is not None else dur[:0]
            return float(np.percentile(d, q) * 1e6) if d.size else 0.0

        def module_self(mod):
            return self_s(*(s for s in self.names if s.split(".")[0] == mod and s != "cli.write"))

        obj_calls = ncalls("synth.objective")

        def objective_share(key):
            return counts.get(key, 0) / obj_calls if obj_calls else 0.0

        out = {
            "poly.roots.calls": ncalls("poly.roots"),
            "poly.roots.self_s": self_s("poly.roots"),
            "poly.roots.us_p50": per_call_us("poly.roots", 50),
            "poly.roots.us_p99": per_call_us("poly.roots", 99),
            "poly.eval.calls": ncalls("poly.eval"),
            "poly.eval.self_s": self_s("poly.eval"),
            "tf.closed_loop.calls": ncalls("tf.closed_loop"),
            "tf.closed_loop.self_s": self_s("tf.closed_loop"),
            "synth.objective.calls": obj_calls,
            "synth.objective.self_s": self_s("synth.objective"),
            "synth.objective.us_p50": per_call_us("synth.objective", 50),
            "synth.objective.us_p99": per_call_us("synth.objective", 99),
            "synth.objective.repeat_share": objective_share("synth.objective.repeats"),
            "synth.objective.degenerate_share": objective_share("synth.objective.degenerate"),
            "synth.ga_search.self_s": self_s("synth.ga_search"),
            "synth.verify_pair.self_s": self_s("synth.verify_pair"),
            "analysis.mc.trials": counts.get("analysis.mc.trials", 0),
            "analysis.mc.self_s": self_s("analysis.robustness_mc", "analysis.fragility_mc"),
            "analysis.bode.self_s": self_s("analysis.bode"),
            "plant.position_plant.calls": ncalls("plant.position_plant"),
            "plant.position_plant.self_s": self_s("plant.position_plant"),
            "plant.nonlinear_derivatives.calls": ncalls("plant.nonlinear_derivatives"),
            "plant.nonlinear_derivatives.self_s": self_s("plant.nonlinear_derivatives"),
            "sim.step_response.steps": counts.get("sim.step_response.steps", 0),
            "sim.step_response.self_s": self_s("sim.step_response"),
            "sim.nonlinear_closed_loop.steps": counts.get("sim.nonlinear_closed_loop.steps", 0),
            "sim.nonlinear_closed_loop.self_s": self_s("sim.nonlinear_closed_loop"),
            "sim.linear_closed_loop.self_s": self_s("sim.linear_closed_loop"),
            "sim.noise_time_response.self_s": self_s("sim.noise_time_response"),
            "cli.main.calls": ncalls("cli.main"),
            "cli.write_s": self_s("cli.write"),
            "trace.spans": int(hi - lo),
        }
        for mod in MODULES:
            out[f"{mod}.self_s"] = module_self(mod)
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Spans as flat arrays (npz) plus the span-name table and run facts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
            facts=np.array(json.dumps(extra)),
        )
