"""Scenario-driven command line emitting CSV and JSON artifacts.

Each subcommand reads one JSON scenario file, validated against the
schema shipped with the package, runs the requested computation, and
writes a single artifact to ``--out``.  All durations in scenario files
are picoseconds; columns and keys that carry times say so in their
names.  CSV-emitting subcommands print one JSON metadata line on
stdout.

Exit codes: 0 on success, 2 on scenario or input validation failure,
3 when the frequency grid cannot resolve the requested delays, 4 when
a numeric guard trips (roundoff swamps the computed quantity).  On
failure one JSON object is printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from importlib import resources

import jsonschema
import numpy as np

from .detection import DetectorModel, effective_jitter
from .interference import (
    CoherenceCurve,
    CoincidenceConfig,
    FourfoldEngine,
    GridResolutionError,
    InterferenceSetup,
    NumericalError,
    _required_n_points,
    coherence_function,
    fourfold_probability_oracle,
    hom_curve,
    visibility,
    visibility_map,
)
from .presets import REFERENCE_FILTERS, reference_source_a, reference_source_b
from .rates import LossProfile, RateQuery, optimize_window, pass_swaps, pulsed_rate
from .spectral import (
    FbgModel,
    FrequencyGrid,
    fbg_reflectivity_fwhm,
    fit_fbg,
    joint_spectral_amplitude,
    load_filter_table,
    make_filter,
    save_fbg_model,
)
from .timetags import (
    SimScenario,
    count_fourfolds,
    load_tags_csv,
    save_tags_csv,
    shifted_accidentals,
    simulate_streams,
)
from .units import RECT_TC_PRODUCT

PS = 1e-12

# engine and time-lattice oracle must agree to this after one shared
# normalization scalar
ORACLE_TOLERANCE = 1e-3

# intensity-FWHM x coherence-time product per analytic filter shape
_WIDTH_PRODUCTS = {
    "rect": RECT_TC_PRODUCT,
    "gaussian": 4.0 * math.sqrt(2.0) * math.log(2.0),
    "lorentzian": 2.0 * math.log(2.0),
}

_PRESET_SOURCES = {"a": reference_source_a, "b": reference_source_b}


# ---------------------------------------------------------------------------
# Schemas and serialization


@lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    text = resources.files("cwhom").joinpath(f"schemas/{name}.schema.json").read_text()
    return json.loads(text)


def _validate(instance, schema_name: str) -> None:
    jsonschema.validate(instance, _schema(schema_name), cls=jsonschema.Draft7Validator)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def _write_json(path: str, obj: dict, schema_name: str) -> None:
    _validate(obj, schema_name)
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: str, rows) -> int:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


def _emit_meta(meta: dict) -> None:
    _validate(meta, "csv_meta")
    print(json.dumps(meta, sort_keys=True))


def _fail(code: int, kind: str, message: str, **extra) -> int:
    print(json.dumps({"error": kind, "message": message, **extra}, sort_keys=True), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Scenario parsing


def _load_scenario(path: str) -> tuple[dict, str]:
    with open(path) as fh:
        scenario = json.load(fh)
    _validate(scenario, "scenario")
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
    if rms is not None:
        rms_s = float(rms) * PS
        jit = tuple(
            effective_jitter(components_fwhm=(j,), components_rms=(rms_s,)) for j in jit
        )
    return jit


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


def _grid_overrides(scenario: dict) -> tuple[float, int | None]:
    g = scenario.get("grid", {})
    n = g.get("n_points")
    return float(g.get("span_factor", 8.0)), (int(n) if n is not None else None)


def _sized_n(span: float, reach: float, n_override: int | None, floor: int) -> int:
    if n_override is not None:
        return n_override
    probe = FrequencyGrid(n_points=3, span=span)
    return max(floor, _required_n_points(probe, reach))


# ---------------------------------------------------------------------------
# Setup construction


def _analytic_jsa(grid: FrequencyGrid, kind: str, w_f: float):
    f = make_filter(grid, kind, w_f)
    return joint_spectral_amplitude(f, f)


def _build_setup(scenario: dict, delays: np.ndarray) -> InterferenceSetup:
    src = _section(scenario, "sources")
    cfg = _windows(scenario)
    jit = _jitters(scenario)
    span_factor, n_override = _grid_overrides(scenario)
    max_delay = float(np.max(np.abs(delays))) if delays.size else 0.0
    a, b = src["a"], src["b"]
    if ("preset" in a) != ("preset" in b):
        raise ValueError("sources must be both presets or both analytic shapes")

    if "preset" in a:
        widths = [fbg_reflectivity_fwhm(m) for m in REFERENCE_FILTERS.values()]
        span = span_factor * max(widths)
        reach = max(cfg.tau_14, cfg.tau_23, max_delay, 3.0 * max(jit), PS)
        # coherence times are unknown until the gratings are sampled, and
        # the plateau sample sits at up to 6x the largest one; rebuild on
        # a finer grid whenever the first estimate shows the reach short
        for _ in range(3):
            n = _sized_n(span, reach, n_override, 513)
            grid = FrequencyGrid(n_points=n, span=span)
            setup = InterferenceSetup(
                jsa_a=_PRESET_SOURCES[a["preset"]](grid=grid),
                jsa_b=_PRESET_SOURCES[b["preset"]](grid=grid),
                detectors=DetectorModel(jitter_fwhm=jit),
                windows=cfg,
            )
            need = max(reach, 6.0 * max(setup.coherence_times))
            if need <= reach or n_override is not None:
                break
            reach = need
        return setup

    tc_a, tc_b = a["t_c_ps"] * PS, b["t_c_ps"] * PS
    w_a = _WIDTH_PRODUCTS[a["kind"]] / tc_a
    w_b = _WIDTH_PRODUCTS[b["kind"]] / tc_b
    span = span_factor * max(w_a, w_b)
    reach = max(cfg.tau_14, cfg.tau_23, max_delay, 6.0 * max(tc_a, tc_b), 3.0 * max(jit))
    grid = FrequencyGrid(n_points=_sized_n(span, reach, n_override, 129), span=span)
    setup = InterferenceSetup(
        jsa_a=_analytic_jsa(grid, a["kind"], w_a),
        jsa_b=_analytic_jsa(grid, b["kind"], w_b),
        detectors=DetectorModel(jitter_fwhm=jit),
        windows=cfg,
    )
    # exact by construction of the filter widths
    setup.__dict__["coherence_times"] = (tc_a, tc_b)
    return setup


def _coherence_jsa(scenario: dict, which: str, delays: np.ndarray):
    src = _section(scenario, "sources")[which]
    span_factor, n_override = _grid_overrides(scenario)
    reach = max(float(np.max(np.abs(delays))), PS)
    if "preset" in src:
        builder = _PRESET_SOURCES[src["preset"]]
        jsa = builder(n_points=n_override, tau_max=reach)
    else:
        t_c = src["t_c_ps"] * PS
        w_f = _WIDTH_PRODUCTS[src["kind"]] / t_c
        span = span_factor * w_f
        n = _sized_n(span, max(reach, t_c), n_override, 129)
        jsa = _analytic_jsa(FrequencyGrid(n_points=n, span=span), src["kind"], w_f)
    required = _required_n_points(jsa.grid, reach)
    if jsa.grid.n_points < required:
        raise GridResolutionError(
            f"grid of {jsa.grid.n_points} points cannot resolve delays out to "
            f"{reach / PS:.6g} ps (need {required})",
            required_n_points=required,
        )
    return jsa


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_coherence(args, scenario: dict, base: str) -> None:
    delays = _delays(scenario)
    which = scenario.get("coherence", {}).get("source", "a")
    jit = _jitters(scenario)
    # source A feeds channels 1 and 2, source B channels 4 and 3
    pair = {"a": (jit[0], jit[1]), "b": (jit[3], jit[2])}[which]
    jsa = _coherence_jsa(scenario, which, delays)
    curve = coherence_function(jsa, pair[0], pair[1], delays)
    peak = float(np.max(curve.density))
    if not peak > 0:
        raise ValueError("coherence density vanished over the requested delays")
    n = _write_csv(args.out, "tau_ps,value", zip(delays / PS, curve.density / peak))
    _emit_meta(
        {
            "subcommand": "coherence",
            "out": args.out,
            "t_c_fwhm_ps": curve.t_c_fwhm / PS,
            "n_rows": n,
        }
    )


def _cmd_homdip(args, scenario: dict, base: str) -> None:
    delays = _delays(scenario)
    setup = _build_setup(scenario, delays)
    curve = hom_curve(setup, delays)
    if not (curve.plateau > 0):
        raise ValueError("plateau probability vanished; cannot normalize the dip")
    rows = zip(delays / PS, curve.values / curve.plateau, curve.values)
    n = _write_csv(args.out, "tau_ps,value,raw", rows)
    _emit_meta(
        {
            "subcommand": "homdip",
            "out": args.out,
            "plateau": curve.plateau,
            "dip": curve.dip,
            "plateau_reliable": curve.plateau_reliable,
            "n_rows": n,
        }
    )


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


def _cmd_vismap(args, scenario: dict, base: str) -> None:
    vm = _section(scenario, "vismap")
    tcs = np.asarray(vm["tc_values_ps"], dtype=float) * PS
    t14s = np.asarray(vm["tau14_values_ps"], dtype=float) * PS
    v = visibility_map(
        tcs,
        t14s,
        vm["jitter_ps"] * PS,
        filter_kind=vm.get("filter_kind", "rect"),
        tau23_factor=vm.get("tau23_factor", 8.0),
    )
    header = ",".join(["tc_ps"] + [_fmt(t / PS) for t in t14s])
    n = _write_csv(args.out, header, ([tc / PS, *v[i]] for i, tc in enumerate(tcs)))
    _emit_meta({"subcommand": "vismap", "out": args.out, "n_rows": n})


def _cmd_optimize_rate(args, scenario: dict, base: str) -> None:
    rq = _section(scenario, "rate_query")
    kwargs = {}
    if "tau_w_range_ps" in rq:
        lo, hi = rq["tau_w_range_ps"]
        kwargs["tau_w_range"] = (lo * PS, hi * PS)
    if "filter_kind" in rq:
        kwargs["filter_kind"] = rq["filter_kind"]
    q = RateQuery(
        mu=rq["mu"],
        jitter=rq["jitter_ps"] * PS,
        v_target=rq["v_target"],
        tc_max=rq["tc_max_ps"] * PS,
        **kwargs,
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


def _cmd_tags_simulate(args, scenario: dict, base: str) -> None:
    tg = _section(scenario, "tags")
    dens = tg["density"]
    t_c = dens["t_c_ps"] * PS
    span = dens.get("span_ps", 5.0 * dens["t_c_ps"]) * PS
    n_pts = int(dens.get("n_points", 501))
    grid_t = np.linspace(-span, span, n_pts)
    density = np.exp(-4.0 * math.log(2.0) * (grid_t / t_c) ** 2)
    curve = CoherenceCurve(delays=grid_t, density=density, t_c_fwhm=t_c)

    has_const = "gamma" in tg
    has_step = "gamma_step" in tg
    if has_const == has_step:
        raise ValueError("give exactly one of tags.gamma and tags.gamma_step")
    if has_const:
        gamma = float(tg["gamma"])
    else:
        high = (1.0 + float(tg["gamma_step"]["v_target"])) / 2.0
        width = tg["gamma_step"]["width_ps"] * PS

        def gamma(delta, _w=width, _h=high):
            return np.where(np.abs(np.asarray(delta, dtype=float)) <= _w, _h, 0.5)

    seed = args.seed if args.seed is not None else scenario.get("rng_seed", 0)
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
        rng_seed=int(seed),
        pairing_horizon=horizon * PS if horizon is not None else None,
    )
    stream = simulate_streams(sim)
    save_tags_csv(stream, args.out)
    _emit_meta({"subcommand": "tags simulate", "out": args.out, "n_events": stream.n_events})


def _cmd_tags_count(args, scenario: dict, base: str) -> None:
    ct = _section(scenario, "count")
    cfg = _windows(scenario)
    duration = ct.get("duration_ps")
    stream = load_tags_csv(
        _resolve(base, ct["tag_csv"]),
        duration=duration * PS if duration is not None else None,
    )
    tau = ct.get("tau_ps", 0.0) * PS
    delta_ps = ct.get("delta_ps")
    delta = delta_ps * PS if delta_ps is not None else 20.0 * cfg.tau_23
    raw = count_fourfolds(stream, cfg, tau)
    s2 = shifted_accidentals(stream, cfg, delta, 2, tau)
    s3 = shifted_accidentals(stream, cfg, delta, 3, tau)
    out = {"raw": raw, "shifted_2": s2, "shifted_3": s3, "corrected": raw - s2 - s3}
    _write_json(args.out, out, "counts")


def _cmd_fbg_fit(args, scenario: dict, base: str) -> None:
    ff = _section(scenario, "fbg_fit")
    omega, refl, _phase = load_filter_table(_resolve(base, ff["table_csv"]))
    seed_model = FbgModel(**ff["seed"])
    rng_seed = args.seed if args.seed is not None else ff.get("rng_seed", 0)
    model, residual = fit_fbg(
        omega,
        refl,
        seed_model,
        rng_seed=int(rng_seed),
        n_restarts=int(ff.get("n_restarts", 3)),
    )
    _validate(asdict(model), "fbg_model")
    save_fbg_model(model, args.out)
    _emit_meta({"subcommand": "fbg fit", "out": args.out, "residual": residual})


def _cmd_oracle_check(args, scenario: dict, base: str) -> None:
    delays = _delays(scenario)
    setup = _build_setup(scenario, delays)
    engine = FourfoldEngine(setup).probabilities(delays)
    oracle = np.array([fourfold_probability_oracle(setup, t) for t in delays])
    if np.sum(engine) == 0.0 or np.sum(oracle) == 0.0:
        raise ValueError("cannot normalize: one probability sum vanished")
    scaled = engine * (float(np.sum(oracle)) / float(np.sum(engine)))
    rel = np.abs(scaled - oracle) / np.maximum(np.abs(oracle), np.finfo(float).tiny)
    max_rel = float(np.max(rel))
    out = {
        "delays_ps": [float(t / PS) for t in delays],
        "engine": [float(x) for x in scaled],
        "oracle": [float(x) for x in oracle],
        "max_rel_deviation": max_rel,
        "tolerance": ORACLE_TOLERANCE,
        "pass": bool(max_rel <= ORACLE_TOLERANCE),
    }
    _write_json(args.out, out, "oracle_report")


_HANDLERS = {
    "coherence": _cmd_coherence,
    "homdip": _cmd_homdip,
    "visibility": _cmd_visibility,
    "vismap": _cmd_vismap,
    "optimize-rate": _cmd_optimize_rate,
    "pulsed-rate": _cmd_pulsed_rate,
    "pass-swaps": _cmd_pass_swaps,
    "tags simulate": _cmd_tags_simulate,
    "tags count": _cmd_tags_count,
    "fbg fit": _cmd_fbg_fit,
    "oracle-check": _cmd_oracle_check,
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output artifact path")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario RNG seed")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cwhom",
        description="Asynchronous four-photon interference: scenario in, CSV/JSON out.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    plain = [
        ("coherence", "signal-idler arrival-delay density CSV and its FWHM"),
        ("homdip", "coincidence probability over a delay scan, normalized and raw"),
        ("visibility", "interference visibility at zero delay, JSON"),
        ("vismap", "visibility matrix over coherence time and herald window"),
        ("optimize-rate", "best window/coherence-time pair under a visibility floor"),
        ("pulsed-rate", "fourfold rate of the pulsed reference scheme"),
        ("pass-swaps", "swaps integrated over a time-dependent loss profile"),
        ("oracle-check", "engine versus time-lattice oracle agreement report"),
    ]
    for name, help_txt in plain:
        _add_io_flags(sub.add_parser(name, help=help_txt))

    tags = sub.add_parser("tags", help="time-tag stream simulation and counting")
    tsub = tags.add_subparsers(dest="tags_command", required=True)
    _add_io_flags(tsub.add_parser("simulate", help="generate a tag stream CSV"))
    _add_io_flags(tsub.add_parser("count", help="fourfolds with shifted-window accidentals"))

    fbg = sub.add_parser("fbg", help="grating model utilities")
    fsub = fbg.add_subparsers(dest="fbg_command", required=True)
    _add_io_flags(fsub.add_parser("fit", help="fit a grating model to a reflectance table"))
    return ap


def _dispatch_name(args: argparse.Namespace) -> str:
    if args.command == "tags":
        return f"tags {args.tags_command}"
    if args.command == "fbg":
        return f"fbg {args.fbg_command}"
    return args.command


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario, base = _load_scenario(args.scenario)
        _HANDLERS[_dispatch_name(args)](args, scenario, base)
    except GridResolutionError as exc:
        extra = {}
        if exc.required_n_points is not None:
            extra["required_n_points"] = exc.required_n_points
        return _fail(3, "resolution", str(exc), **extra)
    except NumericalError as exc:
        return _fail(4, "numerical", str(exc))
    except jsonschema.ValidationError as exc:
        return _fail(2, "validation", exc.message)
    except KeyError as exc:
        return _fail(2, "validation", f"missing key {exc}")
    except (ValueError, OSError) as exc:
        return _fail(2, "validation", str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
