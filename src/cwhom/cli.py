"""Scenario-driven command line emitting CSV and JSON artifacts.

Each subcommand reads one JSON scenario file, validated against the
scenario schema of ``cwhom.schemas``, runs the requested computation, and
writes a single artifact to ``--out``.  All durations in scenario files
are picoseconds; columns and keys that carry times say so in their
names.  CSV-emitting subcommands print one JSON metadata line on
stdout.

Exit codes: 0 on success, 2 on scenario or input validation failure,
3 when the frequency grid cannot resolve the requested delays or an
array would pass its size limit (``interference.MAX_GRID_POINTS``,
``MAX_ENGINE_CORE_BYTES``, ``MAX_ORACLE_CELLS``), 4 when a numeric guard
trips (roundoff swamps the computed quantity).  On failure one JSON
object is printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .detection import DetectorModel
from .interference import (
    CoherenceCurve,
    CoincidenceConfig,
    FourfoldEngine,
    GridResolutionError,
    InterferenceSetup,
    NumericalError,
    Source,
    _check_resolution,
    _plateau_reach,
    analytic_source,
    build_setup,
    coherence_function,
    fourfold_probability_oracle,
    hom_curve,
    source_grid,
    source_jitters,
    visibility,
    visibility_map,
)
from .presets import (
    PRESET_SAMPLERS,
    preset_source,
    tagger_composed_jitters,
)
from .rates import LossProfile, RateQuery, optimize_window, pass_swaps, pulsed_rate
from .schemas import validate
from .spectral import FbgModel, fit_fbg, load_filter_table
from .timetags import (
    SharedTagLoader,
    SimScenario,
    fourfold_counts,
    save_tags_csv,
    simulate_streams,
)
from .units import PS

# engine and time-lattice oracle must agree to this at each delay; both
# carry the same absolute normalization, so no scale is fitted
ORACLE_TOLERANCE = 1e-3

# presets.PRESET_SAMPLERS under the name perfbench's tests check the tracer wraps
_PRESET_SOURCES = PRESET_SAMPLERS


# ---------------------------------------------------------------------------
# Schemas and serialization


def _fmt(v) -> str:
    return format(float(v), ".12g")


def _write_json(path: str, obj: dict, schema_name: str) -> None:
    validate(obj, schema_name)
    # serialized before the file opens, so a non-finite number leaves no file
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_csv(path: str, header: str, rows) -> int:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


def _fail(code: int, kind: str, message: str, **extra) -> int:
    print(json.dumps({"error": kind, "message": message, **extra}, sort_keys=True), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Scenario parsing


def _refuse_constant(name: str):
    raise ValueError(f"scenario holds {name}; scenario numbers must be finite")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"scenario holds {text}, which overflows a float; scenario numbers must be finite")
    return value


def _finite_int(text: str) -> int:
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(
            f"scenario holds an integer of {len(text.lstrip('-'))} digits, which overflows a float; "
            "scenario numbers must be finite"
        ) from None
    return value


def _load_scenario(path: str) -> tuple[dict, str]:
    with open(path) as fh:
        # json.load reads NaN and +-Infinity, and an overflowing literal such
        # as 1e400 as inf, all of which the schema's number type admits; an
        # integer past the float range passes the schema and overflows later
        scenario = json.load(
            fh, parse_constant=_refuse_constant, parse_float=_finite_float, parse_int=_finite_int
        )
    validate(scenario, "scenario")
    return scenario, os.path.dirname(os.path.abspath(path))


def _resolve(base: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base, path)


def _section(scenario: dict, name: str) -> dict:
    try:
        return scenario[name]
    except KeyError:
        raise ValueError(f"scenario lacks the {name!r} section required by this subcommand")


def _jitters(scenario: dict) -> tuple[float, float, float, float]:
    det = scenario.get("detectors")
    if det is None:
        return (0.0, 0.0, 0.0, 0.0)
    jit = tuple(float(j) * PS for j in det["jitter_fwhm_ps"])
    rms = det.get("compose_tagger_rms_ps")
    return jit if rms is None else tagger_composed_jitters(jit, float(rms) * PS)


def _delays(scenario: dict) -> np.ndarray:
    d = _section(scenario, "delays")
    out = np.linspace(d["start_ps"] * PS, d["stop_ps"] * PS, int(d["count"]))
    # a scan meant to hit tau = 0 must hit it exactly despite rounding
    span = max(abs(out[0]), abs(out[-1]), PS)
    out[np.abs(out) < 1e-9 * span] = 0.0
    return out


def _windows(scenario: dict) -> CoincidenceConfig:
    w = _section(scenario, "windows")
    return CoincidenceConfig(tau_14=w["tau_14_ps"] * PS, tau_23=w["tau_23_ps"] * PS)


def _n_points(scenario: dict) -> int | None:
    n = scenario.get("grid", {}).get("n_points")
    return int(n) if n is not None else None


def _seed(args, scenario: dict) -> int:
    return int(args.seed if args.seed is not None else scenario.get("rng_seed", 0))


def _reach(delays: np.ndarray) -> float:
    return max(float(np.max(np.abs(delays))), PS)


# ---------------------------------------------------------------------------
# Setup construction


def _source(spec: dict) -> Source:
    if "preset" in spec:
        return preset_source(spec["preset"])
    return analytic_source(spec["kind"], spec["t_c_ps"] * PS)


def _build_setup(scenario: dict, delays: np.ndarray) -> InterferenceSetup:
    src = _section(scenario, "sources")
    a, b = _source(src["a"]), _source(src["b"])
    jit = _jitters(scenario)
    # the grid also resolves the nominal plateau delay, _plateau_reach,
    # although _plateau_delay clamps the sample to at most tau_23 / 2:
    # dropping it takes appendix_shape from 683 points to 415 and moves
    # its plateau by -0.25 % and the normalized dip by up to 6.9 %
    return build_setup(
        a,
        b,
        _windows(scenario),
        jit,
        reach=max(_reach(delays), _plateau_reach((a.t_c, b.t_c), jit)),
        n_points=_n_points(scenario),
    )


def _coherence_jsa(scenario: dict, which: str, delays: np.ndarray):
    source = _source(_section(scenario, "sources")[which])
    reach = _reach(delays)
    grid = source_grid((source,), reach, _n_points(scenario))
    _check_resolution(grid, reach, f"delays out to {reach / PS:.6g} ps")
    return source.jsa(grid)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_coherence(args, scenario: dict, base: str) -> dict:
    delays = _delays(scenario)
    which = scenario.get("coherence", {}).get("source", "a")
    jit = _jitters(scenario)
    pair = source_jitters(jit, which)
    jsa = _coherence_jsa(scenario, which, delays)
    curve = coherence_function(jsa, *pair, delays)
    # positive: coherence_function's FWHM refuses any other peak
    peak = float(np.max(curve.density))
    n = _write_csv(args.out, "tau_ps,value", zip(delays / PS, curve.density / peak))
    return {"t_c_fwhm_ps": curve.t_c_fwhm / PS, "n_rows": n}


def _cmd_homdip(args, scenario: dict, base: str) -> dict:
    delays = _delays(scenario)
    setup = _build_setup(scenario, delays)
    curve = hom_curve(setup, delays)
    if not (curve.plateau > 0):
        raise ValueError("plateau probability vanished; cannot normalize the dip")
    rows = zip(delays / PS, curve.values / curve.plateau, curve.values)
    n = _write_csv(args.out, "tau_ps,value,raw", rows)
    return {
        "plateau": curve.plateau,
        "dip": curve.dip,
        "plateau_reliable": curve.plateau_reliable,
        "n_rows": n,
    }


def _cmd_visibility(args, scenario: dict, base: str) -> None:
    zero = np.array([0.0])
    setup = _build_setup(scenario, zero)
    curve = hom_curve(setup, zero)
    out = {
        "visibility": visibility(curve),
        "plateau_reliable": curve.plateau_reliable,
        "plateau_delay_ps": curve.plateau_delay / PS,
        "inputs": scenario,
    }
    _write_json(args.out, out, "visibility")


def _cmd_vismap(args, scenario: dict, base: str) -> dict:
    vm = _section(scenario, "vismap")
    tcs = np.asarray(vm["tc_values_ps"], dtype=float) * PS
    t14s = np.asarray(vm["tau14_values_ps"], dtype=float) * PS
    factor = {"tau23_factor": vm["tau23_factor"]} if "tau23_factor" in vm else {}
    v = visibility_map(tcs, t14s, vm["jitter_ps"] * PS, **factor)
    header = ",".join(["tc_ps"] + [_fmt(t / PS) for t in t14s])
    n = _write_csv(args.out, header, ([tc / PS, *v[i]] for i, tc in enumerate(tcs)))
    return {"n_rows": n}


def _cmd_optimize_rate(args, scenario: dict, base: str) -> None:
    rq = _section(scenario, "rate_query")
    q = RateQuery(
        mu=rq["mu"],
        jitter=rq["jitter_ps"] * PS,
        v_target=rq["v_target"],
        tc_max=rq["tc_max_ps"] * PS,
    )
    res = optimize_window(q)
    out = {
        "tau_w_opt_ps": res.tau_w_opt / PS,
        "tc_opt_ps": res.tc_opt / PS,
        "rate_opt_hz": res.rate_opt,
        "curve": [[tw / PS, tc / PS, r] for tw, tc, r in res.curve],
    }
    _write_json(args.out, out, "optresult")


def _cmd_pulsed_rate(args, scenario: dict, base: str) -> None:
    p = _section(scenario, "pulsed")
    r = pulsed_rate(p["mu_p"], p["tau_p_ps"] * PS, p["t_c_ps"] * PS, p["f_rep_hz"])
    _write_json(args.out, {"rate_hz": r}, "rate")


def _cmd_pass_swaps(args, scenario: dict, base: str) -> None:
    sw = _section(scenario, "swap")
    profile = LossProfile.from_csv(_resolve(base, sw["loss_csv"]))
    n = pass_swaps(profile, sw["mu"], sw["t_c_ps"] * PS, sw["tau_w_ps"] * PS)
    _write_json(args.out, {"swaps": n}, "swaps")


def _cmd_tags_simulate(args, scenario: dict, base: str) -> dict:
    tg = _section(scenario, "tags")
    t_c_ps = tg["density"]["t_c_ps"]
    t_c = t_c_ps * PS
    # the density below divides by t_c, which a positive t_c_ps can underflow to 0
    if not t_c > 0:
        raise ValueError(f"tags.density.t_c_ps = {t_c_ps!r} underflows to 0 s")
    span = 5.0 * t_c_ps * PS
    grid_t = np.linspace(-span, span, 501)
    # a (t / t_c)^2 past the float range gives exp(-inf), the exact 0
    with np.errstate(over="ignore"):
        density = np.exp(-4.0 * math.log(2.0) * (grid_t / t_c) ** 2)
    curve = CoherenceCurve(delays=grid_t, density=density, t_c_fwhm=t_c)

    high = (1.0 + float(tg["gamma_step"]["v_target"])) / 2.0
    width = tg["gamma_step"]["width_ps"] * PS

    def gamma(delta):
        return np.where(np.abs(np.asarray(delta, dtype=float)) <= width, high, 0.5)

    horizon = tg.get("pairing_horizon_ps")
    sim = SimScenario(
        pair_rate_a=float(tg["pair_rate_a_hz"]),
        pair_rate_b=float(tg["pair_rate_b_hz"]),
        internal_delay_density=curve,
        gamma=gamma,
        noise_rates=tuple(float(r) for r in tg["noise_rates_hz"]),
        etas=tuple(float(e) for e in tg["etas"]),
        detectors=DetectorModel(jitter_fwhm=_jitters(scenario)),
        duration=tg["duration_ps"] * PS,
        rng_seed=_seed(args, scenario),
        pairing_horizon=horizon * PS if horizon is not None else None,
    )
    stream = simulate_streams(sim)
    save_tags_csv(stream, args.out)
    return {"n_events": stream.n_events}


# kept across main calls: a delay scan run as several `tags count` calls in
# one process parses its file once
_TAG_FILES = SharedTagLoader()


def _cmd_tags_count(args, scenario: dict, base: str) -> None:
    ct = _section(scenario, "count")
    cfg = _windows(scenario)
    duration = ct.get("duration_ps")
    stream = _TAG_FILES.load(
        _resolve(base, ct["tag_csv"]),
        duration=duration * PS if duration is not None else None,
    )
    tau = ct.get("tau_ps", 0.0) * PS
    # the accidentals' shift is 20 tau_23, twice the least fourfold_counts takes
    raw, s2, s3 = fourfold_counts(stream, cfg, tau, 20.0 * cfg.tau_23)
    out = {"raw": raw, "shifted_2": s2, "shifted_3": s3, "corrected": raw - s2 - s3}
    _write_json(args.out, out, "counts")


def _cmd_fbg_fit(args, scenario: dict, base: str) -> dict:
    ff = _section(scenario, "fbg_fit")
    omega, refl = load_filter_table(_resolve(base, ff["table_csv"]))
    seed_model = FbgModel(**ff["seed"])
    restarts = {"n_restarts": int(ff["n_restarts"])} if "n_restarts" in ff else {}
    model, residual = fit_fbg(omega, refl, seed_model, rng_seed=_seed(args, scenario), **restarts)
    _write_json(args.out, asdict(model), "fbg_model")
    return {"residual": residual}


def _cmd_oracle_check(args, scenario: dict, base: str) -> None:
    delays = _delays(scenario)
    setup = _build_setup(scenario, delays)
    engine = FourfoldEngine(setup).probabilities(delays)
    oracle = fourfold_probability_oracle(setup, delays)
    rel = np.abs(engine - oracle) / np.maximum(np.abs(oracle), np.finfo(float).tiny)
    max_rel = float(np.max(rel))
    out = {
        "delays_ps": [float(t / PS) for t in delays],
        "engine": [float(x) for x in engine],
        "oracle": [float(x) for x in oracle],
        "max_rel_deviation": max_rel,
        "tolerance": ORACLE_TOLERANCE,
        "pass": bool(max_rel <= ORACLE_TOLERANCE),
    }
    _write_json(args.out, out, "oracle_report")


# Subcommand name -> (handler, help). A handler writes --out and returns
# the fields of its stdout status line, or None when it prints none.
_COMMANDS = {
    "coherence": (_cmd_coherence, "signal-idler arrival-delay density CSV and its FWHM"),
    "homdip": (_cmd_homdip, "coincidence probability over a delay scan, normalized and raw"),
    "visibility": (_cmd_visibility, "interference visibility at zero delay, JSON"),
    "vismap": (_cmd_vismap, "visibility matrix over coherence time and herald window"),
    "optimize-rate": (_cmd_optimize_rate, "best window/coherence-time pair under a visibility floor"),
    "pulsed-rate": (_cmd_pulsed_rate, "fourfold rate of the pulsed reference scheme"),
    "pass-swaps": (_cmd_pass_swaps, "swaps integrated over a time-dependent loss profile"),
    "oracle-check": (_cmd_oracle_check, "engine versus time-lattice oracle agreement report"),
    "tags simulate": (_cmd_tags_simulate, "generate a tag stream CSV"),
    "tags count": (_cmd_tags_count, "fourfolds with shifted-window accidentals"),
    "fbg fit": (_cmd_fbg_fit, "fit a grating model to a reflectance table"),
}

# help of each group of two-word subcommands
_GROUPS = {"tags": "time-tag stream simulation and counting", "fbg": "grating model utilities"}


# ---------------------------------------------------------------------------
# Argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cwhom",
        description="Asynchronous four-photon interference: scenario in, CSV/JSON out.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    parents = {"": sub}
    for name, (_, help_txt) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in parents:
            parent = sub.add_parser(group, help=_GROUPS[group])
            parents[group] = parent.add_subparsers(dest=f"{group}_command", required=True)
        parser = parents[group].add_parser(leaf, help=help_txt)
        parser.add_argument("--scenario", required=True, help="scenario JSON file")
        parser.add_argument("--out", required=True, help="output artifact path")
        parser.add_argument("--seed", type=int, default=None, help="override the scenario RNG seed")
        parser.set_defaults(subcommand=name)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario, base = _load_scenario(args.scenario)
        status = _COMMANDS[args.subcommand][0](args, scenario, base)
        if status is not None:
            status = {"subcommand": args.subcommand, "out": args.out, **status}
            validate(status, "csv_meta")
            print(json.dumps(status, sort_keys=True, allow_nan=False))
    except GridResolutionError as exc:
        extra = {}
        if exc.required_n_points is not None:
            extra["required_n_points"] = exc.required_n_points
        return _fail(3, "resolution", str(exc), **extra)
    except NumericalError as exc:
        return _fail(4, "numerical", str(exc))
    except (ValueError, OSError) as exc:
        return _fail(2, "validation", str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
