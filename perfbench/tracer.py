"""Outside-in tracing of the cwhom layers, and per-layer metrics from spans.

``Tracer.install`` wraps every public function of the traced modules,
plus ``FourfoldEngine.__init__`` and ``FourfoldEngine.probability``, at
every place the function object is looked up: its defining module, each
cwhom module that imported it by name, and module-level dicts holding it
(``cli._PRESET_SOURCES``). Spans are kept in memory and written once,
when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "presets", "spectral", "interference", "rates", "timetags")

ENGINE_METHODS = ("__init__", "probability")


def _engine_n(args, kwargs, result):
    setup = args[1] if len(args) > 1 else kwargs["setup"]
    return {"n": setup.jsa_a.grid.n_points}


def _fbg_cells(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"cells": grid.n_points * model.n_sections}


def _events(args, kwargs, result):
    return {"events": result.n_events}


def _file_bytes(pos: int, key: str):
    def attrs(args, kwargs, result):
        path = args[pos] if len(args) > pos else kwargs[key]
        return {"bytes": os.path.getsize(path)}

    return attrs


# attributes recorded per span, computed after the span has ended
ATTRS = {
    "interference.FourfoldEngine.__init__": _engine_n,
    "spectral.fbg_response": _fbg_cells,
    "timetags.simulate_streams": _events,
    "timetags.save_tags_csv": _file_bytes(1, "path"),
    "timetags.load_tags_csv": _file_bytes(0, "path"),
}


class Tracer:
    """Span recorder; spans are [name, layer, start, end, parent, attrs]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, attrs_of = self.spans, self._stack, ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cwhom.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
        for mod in [m for n, m in sys.modules.items() if n == "cwhom" or n.startswith("cwhom.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]
        engine = modules["interference"].FourfoldEngine
        for meth in ENGINE_METHODS:
            name = f"interference.FourfoldEngine.{meth}"
            setattr(engine, meth, self._wrap("interference", name, getattr(engine, meth)))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "run": self.run_id, "name": name, "layer": layer,
                       "start": start, "end": end, "parent": parent}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from one traced pass."""
    own = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, s in zip(spans, own):
        out[f"{span[1]}.self_s"] += s
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def ancestors(i: int):
        p = spans[i][4]
        while p >= 0:
            yield p
            p = spans[p][4]

    def count(name: str) -> int:
        return len(by_name[name])

    def inclusive(name: str) -> float:
        # outermost occurrences only, so recursion is not counted twice
        return sum(spans[i][3] - spans[i][2] for i in by_name[name]
                   if all(spans[a][0] != name for a in ancestors(i)))

    def attr_sum(name: str, key: str, f=lambda v: v) -> float:
        return sum(f(spans[i][5][key]) for i in by_name[name] if spans[i][5])

    def under(name: str, ancestor_name: str, ancestor: int | None = None) -> int:
        return sum(1 for i in by_name[name]
                   if any(spans[a][0] == ancestor_name and (ancestor is None or a == ancestor)
                          for a in ancestors(i)))

    build = "interference.FourfoldEngine.__init__"
    optimize = by_name["rates.optimize_window"]
    out.update({
        "cli.calls": count("cli.main"),
        "presets.jsa_calls": count("presets.filtered_pair_jsa"),
        "presets.jsa_s": inclusive("presets.filtered_pair_jsa"),
        "spectral.fbg_response_calls": count("spectral.fbg_response"),
        "spectral.fbg_response_s": inclusive("spectral.fbg_response"),
        "spectral.fbg_response_cells": attr_sum("spectral.fbg_response", "cells"),
        "spectral.fit_evals": under("spectral.fbg_response", "spectral.fit_fbg"),
        "spectral.fit_s": inclusive("spectral.fit_fbg"),
        "spectral.fwhm_calls": count("spectral.fbg_reflectivity_fwhm"),
        "spectral.fwhm_s": inclusive("spectral.fbg_reflectivity_fwhm"),
        "interference.coherence_fwhm_calls": count("interference.jsa_coherence_fwhm"),
        "interference.coherence_fwhm_s": inclusive("interference.jsa_coherence_fwhm"),
        "interference.coherence_curve_s": inclusive("interference.coherence_function"),
        "interference.engine_builds": count(build),
        "interference.engine_build_s": inclusive(build),
        "interference.engine_n_max": max([spans[i][5]["n"] for i in by_name[build] if spans[i][5]], default=0),
        "interference.engine_n3_sum": attr_sum(build, "n", lambda n: n**3),
        "interference.prob_evals": count("interference.FourfoldEngine.probability"),
        "interference.prob_eval_s": inclusive("interference.FourfoldEngine.probability"),
        "interference.oracle_evals": count("interference.fourfold_probability_oracle"),
        "interference.oracle_s": inclusive("interference.fourfold_probability_oracle"),
        "interference.vis0_calls": count("interference.visibility_at_zero_delay"),
        "interference.vis0_s": inclusive("interference.visibility_at_zero_delay"),
        "rates.optimize_s": inclusive("rates.optimize_window"),
        "rates.builds_cold": under(build, "rates.optimize_window", optimize[0]) if optimize else 0,
        "rates.builds_warm": under(build, "rates.optimize_window", optimize[1]) if len(optimize) > 1 else 0,
        "timetags.events": attr_sum("timetags.simulate_streams", "events"),
        "timetags.simulate_s": inclusive("timetags.simulate_streams"),
        "timetags.save_s": inclusive("timetags.save_tags_csv"),
        "timetags.bytes_written": attr_sum("timetags.save_tags_csv", "bytes"),
        "timetags.load_s": inclusive("timetags.load_tags_csv"),
        "timetags.bytes_read": attr_sum("timetags.load_tags_csv", "bytes"),
        "timetags.count_s": inclusive("timetags.count_fourfolds"),
        "timetags.shift_s": inclusive("timetags.shifted_accidentals"),
    })
    out["trace.self_sum_s"] = sum(own)
    out["trace.spans"] = len(spans)
    return out
