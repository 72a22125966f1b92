"""Workload definitions: derived scenarios and the CLI call sequence of each.

A workload is a fixed sequence of ``cwhom`` subcommands. Every call is
named by its stage, which the per-call timings and the checks refer to.
Scenarios the bundled files do not already hold are derived from them
here, at run time, into the run's work directory.
"""

from __future__ import annotations

import json
import os

WORKLOADS = ("source-model", "window-design", "tag-stream")

# tag-stream: the bundled tag scenario runs for 1 ms of tags; the
# benchmark stretches it a hundredfold to ~3.8 M events (~65 MB CSV)
TAG_DURATION_FACTOR = 100
# delays of the count scan: the dip centre, a point inside the
# 250 ps gamma step, and one well outside it
COUNT_DELAYS_PS = (0.0, 150.0, 600.0)
# removed when a run ends: deleting the ~65 MB CSV drops its dirty
# pages, so their writeback cannot land in the timed passes of the next run
BULK_FILES = {"tag-stream": ("tags.csv",)}

# window-design: the criterion-4 ratio-law row
VISMAP_TC_PS = 250.0
VISMAP_RATIOS = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0)
VISMAP_JITTER_PS = 50.0
VISMAP_TAU23_FACTOR = 8.0
WARM_V_TARGET = 0.95


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _dump(obj: dict, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    return path


def prepare(workload: str, root: str, work: str) -> dict:
    """Write the derived scenarios of a workload; return their paths by name."""
    scen = os.path.join(root, "scenarios")
    data = os.path.join(root, "data")
    paths = {}
    if workload == "source-model":
        # one simplex start from the bundled seed model instead of three:
        # the fit alone would otherwise take ~30 s of each pass
        fit = _load(os.path.join(scen, "fbg_fit.json"))
        fit["fbg_fit"]["n_restarts"] = 0
        fit["fbg_fit"]["table_csv"] = os.path.join(data, "filter_signal_a.csv")
        paths["fbg_fit"] = _dump(fit, os.path.join(work, "fbg_fit.json"))
        for name in ("reference_sources", "identical_165", "appendix_shape"):
            paths[name] = os.path.join(scen, name + ".json")
    elif workload == "window-design":
        paths["optimize_cold"] = os.path.join(scen, "optimize.json")
        warm = _load(paths["optimize_cold"])
        warm["rate_query"]["v_target"] = WARM_V_TARGET
        paths["optimize_warm"] = _dump(warm, os.path.join(work, "optimize_095.json"))
        vismap = {
            "vismap": {
                "tc_values_ps": [VISMAP_TC_PS],
                "tau14_values_ps": [VISMAP_TC_PS / r for r in VISMAP_RATIOS],
                "jitter_ps": VISMAP_JITTER_PS,
                "tau23_factor": VISMAP_TAU23_FACTOR,
            }
        }
        paths["vismap"] = _dump(vismap, os.path.join(work, "vismap.json"))
    elif workload == "tag-stream":
        tags = _load(os.path.join(scen, "tags_demo.json"))
        tags["tags"]["duration_ps"] *= TAG_DURATION_FACTOR
        paths["simulate"] = _dump(tags, os.path.join(work, "tags.json"))
        for tau in COUNT_DELAYS_PS:
            count = dict(tags)
            count["count"] = dict(
                tags["count"],
                tag_csv=os.path.join(work, "tags.csv"),
                tau_ps=tau,
                duration_ps=tags["tags"]["duration_ps"],
            )
            paths[f"count_{tau:g}"] = _dump(count, os.path.join(work, f"count_{tau:g}.json"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return paths


def calls(workload: str, paths: dict, work: str, seed: int) -> list[tuple[str, list[str]]]:
    """(stage, argv) pairs in call order; every call gets the run seed."""

    def call(stage: str, sub: list[str], scenario: str, out: str):
        argv = sub + ["--scenario", scenario, "--out", os.path.join(work, out)]
        return stage, argv + ["--seed", str(seed)]

    if workload == "source-model":
        ref, ident, app = paths["reference_sources"], paths["identical_165"], paths["appendix_shape"]
        return [
            call("fit", ["fbg", "fit"], paths["fbg_fit"], "fbg_model.json"),
            call("coherence", ["coherence"], ref, "coherence_b.csv"),
            call("dip_scan", ["homdip"], ref, "dip_reference.csv"),
            call("visibility", ["visibility"], ident, "visibility_165.json"),
            call("dip_165", ["homdip"], ident, "dip_165.csv"),
            call("dip_appendix", ["homdip"], app, "dip_appendix.csv"),
            call("oracle_check", ["oracle-check"], app, "oracle.json"),
        ]
    if workload == "window-design":
        return [
            call("optimize_cold", ["optimize-rate"], paths["optimize_cold"], "opt_090.json"),
            call("optimize_warm", ["optimize-rate"], paths["optimize_warm"], "opt_095.json"),
            call("vismap", ["vismap"], paths["vismap"], "vismap.csv"),
        ]
    if workload == "tag-stream":
        out = [call("simulate", ["tags", "simulate"], paths["simulate"], "tags.csv")]
        for tau in COUNT_DELAYS_PS:
            out.append(
                call(f"count_{tau:g}", ["tags", "count"], paths[f"count_{tau:g}"], f"counts_{tau:g}.json")
            )
        return out
    raise ValueError(f"unknown workload {workload!r}")
