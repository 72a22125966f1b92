"""End-to-end command line checks: scenario JSON in, artifacts out.

Runs main() in process and pins the bundled scenarios' outputs, the
exit-code contract, and the schema validity of every emitted artifact.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from cwhom.cli import _validate, _validator, _write_json, main
from cwhom.schemas import SCHEMAS
from cwhom.timetags import SharedTagLoader

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def meta_of(out: str) -> dict:
    meta = json.loads(out.strip().splitlines()[-1])
    _validator("csv_meta").validate(meta)
    return meta


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0], rows


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIOS, name)


def test_pulsed_rate(capsys, tmp_path):
    out = tmp_path / "rate.json"
    code, _, _ = run(capsys, ["pulsed-rate", "--scenario", scenario_path("pulsed.json"),
                              "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    _validator("rate").validate(doc)
    assert doc["rate_hz"] == 1e5


def test_pass_swaps(capsys, tmp_path):
    out = tmp_path / "swaps.json"
    code, _, _ = run(capsys, ["pass-swaps", "--scenario", scenario_path("swap.json"),
                              "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    _validator("swaps").validate(doc)
    assert doc["swaps"] == pytest.approx(0.8509641908674247, rel=1e-12)


def test_visibility_identical_sources(capsys, tmp_path):
    out = tmp_path / "vis.json"
    code, _, _ = run(capsys, ["visibility", "--scenario", scenario_path("identical_165.json"),
                              "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    _validator("visibility").validate(doc)
    assert doc["plateau_reliable"] is True
    assert doc["visibility"] == pytest.approx(0.9753996266532972, rel=1e-9)
    with open(scenario_path("identical_165.json")) as fh:
        assert doc["inputs"] == json.load(fh)


def test_homdip_identical_sources(capsys, tmp_path):
    out = tmp_path / "dip.csv"
    code, stdout, _ = run(capsys, ["homdip", "--scenario", scenario_path("identical_165.json"),
                                   "--out", str(out)])
    assert code == 0
    meta = meta_of(stdout)
    assert meta["subcommand"] == "homdip"
    assert meta["plateau_reliable"] is True
    assert meta["n_rows"] == 41
    assert meta["plateau"] == pytest.approx(3331296499580.0664, rel=1e-9)
    assert meta["dip"] == pytest.approx(81951137618.23389, rel=1e-9)

    header, rows = read_csv(out)
    assert header == "tau_ps,value,raw"
    assert rows.shape == (41, 3)
    taus, norm, raw = rows.T
    # raw column is the normalized one times the plateau
    np.testing.assert_allclose(raw, norm * meta["plateau"], rtol=1e-9)
    i0 = int(np.argmin(np.abs(taus)))
    assert taus[i0] == 0.0
    assert norm[i0] == norm.min()
    assert norm[i0] == pytest.approx(0.0246003733467, rel=1e-6)
    # far delays sit on the plateau
    assert norm[0] == pytest.approx(0.998692345999, rel=1e-6)
    assert norm[-1] == norm[0]
    v = 1.0 - meta["dip"] / meta["plateau"]
    assert 0.936 <= v <= 0.976


def test_homdip_short_bs_window_flags_plateau(capsys, tmp_path):
    out = tmp_path / "dip.csv"
    code, stdout, _ = run(capsys, ["homdip", "--scenario", scenario_path("appendix_shape.json"),
                                   "--out", str(out)])
    assert code == 0
    meta = meta_of(stdout)
    assert meta["plateau_reliable"] is False
    assert meta["n_rows"] == 49


def test_coherence_identical_sources(capsys, tmp_path):
    out = tmp_path / "coh.csv"
    code, stdout, _ = run(capsys, ["coherence", "--scenario", scenario_path("identical_165.json"),
                                   "--out", str(out)])
    assert code == 0
    meta = meta_of(stdout)
    # rect coherence broadened a little by the composed tagger jitter
    assert meta["t_c_fwhm_ps"] == pytest.approx(167.0832223500918, rel=1e-9)
    header, rows = read_csv(out)
    assert header == "tau_ps,value"
    assert rows.shape == (41, 2)
    taus, vals = rows.T
    assert vals.max() == 1.0
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-9)


def test_coherence_preset_source_b(capsys, tmp_path):
    out = tmp_path / "coh.csv"
    code, stdout, _ = run(capsys, ["coherence", "--scenario",
                                   scenario_path("reference_sources.json"), "--out", str(out)])
    assert code == 0
    meta = meta_of(stdout)
    assert meta["n_rows"] == 161
    assert meta["t_c_fwhm_ps"] == pytest.approx(168.55088825918506, rel=1e-9)


def test_optimize_rate(capsys, tmp_path):
    out = tmp_path / "opt.json"
    code, _, _ = run(capsys, ["optimize-rate", "--scenario", scenario_path("optimize.json"),
                              "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    _validator("optresult").validate(doc)
    curve = np.asarray(doc["curve"])
    assert curve.shape[1] == 3
    assert doc["rate_opt_hz"] == curve[:, 2].max()
    assert doc["tc_opt_ps"] <= 800.0


def test_vismap(capsys, tmp_path):
    sc = tmp_path / "vm.json"
    sc.write_text(json.dumps({
        "vismap": {"tc_values_ps": [100.0, 200.0], "tau14_values_ps": [20.0, 40.0],
                   "jitter_ps": 15.0, "tau23_factor": 8.0},
    }))
    out = tmp_path / "vm.csv"
    code, stdout, _ = run(capsys, ["vismap", "--scenario", str(sc), "--out", str(out)])
    assert code == 0
    assert meta_of(stdout)["n_rows"] == 2
    header, rows = read_csv(out)
    assert header == "tc_ps,20,40"
    assert rows[0, 1] == pytest.approx(0.973102473675, rel=1e-6)
    # longer coherence raises V, wider herald window lowers it
    assert np.all(rows[1, 1:] > rows[0, 1:])
    assert np.all(rows[:, 1] > rows[:, 2])


def test_fbg_fit_recovers_calibrated_model(capsys, tmp_path, monkeypatch):
    import cwhom.cli
    from cwhom.presets import FILTER_SIGNAL_A
    from cwhom.spectral import FbgModel

    fits = []
    fit = cwhom.cli.fit_fbg

    def recording_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(cwhom.cli, "fit_fbg", recording_fit)
    out = tmp_path / "fit.json"
    code, stdout, _ = run(capsys, ["fbg", "fit", "--scenario", scenario_path("fbg_fit.json"),
                                   "--out", str(out)])
    assert code == 0
    meta = meta_of(stdout)
    assert meta["residual"] < 1e-6
    doc = json.loads(out.read_text())
    _validator("fbg_model").validate(doc)
    assert doc["peak_kappa"] == pytest.approx(FILTER_SIGNAL_A.peak_kappa, rel=5e-3)
    assert doc["length"] == FILTER_SIGNAL_A.length
    # the artifact reads back as exactly the model the fit returned
    with open(out) as fh:
        assert FbgModel(**json.load(fh)) == fits[0][0]


def test_fbg_fit_passes_restarts_only_when_set(capsys, tmp_path, monkeypatch):
    # fit_fbg alone holds the default restart count
    import cwhom.cli

    calls = []

    def fake_fit(omega, refl, seed, **kwargs):
        calls.append(kwargs)
        return seed, 0.0

    monkeypatch.setattr(cwhom.cli, "fit_fbg", fake_fit)
    with open(scenario_path("fbg_fit.json")) as fh:
        doc = json.load(fh)
    doc["fbg_fit"]["table_csv"] = os.path.join(REPO, "data", "filter_signal_a.csv")
    sc = tmp_path / "fit.json"
    argv = ["fbg", "fit", "--scenario", str(sc), "--out", str(tmp_path / "m.json")]
    sc.write_text(json.dumps(doc))
    assert run(capsys, argv)[0] == 0
    del doc["fbg_fit"]["n_restarts"]
    sc.write_text(json.dumps(doc))
    assert run(capsys, argv)[0] == 0
    assert calls == [{"rng_seed": 0, "n_restarts": 2}, {"rng_seed": 0}]


def modules_loaded_by(module: str, prefixes: tuple[str, ...]) -> list[str]:
    """Names starting with one of prefixes in sys.modules after a fresh import of module."""
    script = f"import sys, {module}; print(*[m for m in sys.modules if m.startswith({prefixes!r})])"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_leaves_scipy_unloaded():
    assert modules_loaded_by("cwhom.cli", ("scipy",)) == []


def test_every_subcommand_runs_without_scipy(tmp_path):
    # with scipy blocked in sys.modules, any import of it, at start-up or
    # inside a call, raises ImportError out of main
    vismap = tmp_path / "vismap.json"
    vismap.write_text(json.dumps({
        "vismap": {"tc_values_ps": [250.0], "tau14_values_ps": [250.0, 125.0],
                   "jitter_ps": 50.0, "tau23_factor": 8.0},
    }))
    calls = [
        (["fbg", "fit"], "fbg_fit.json"),
        (["coherence"], "identical_165.json"),
        (["homdip"], "identical_165.json"),
        (["visibility"], "identical_165.json"),
        (["oracle-check"], "appendix_shape.json"),
        (["optimize-rate"], "optimize.json"),
        (["vismap"], str(vismap)),
        (["pulsed-rate"], "pulsed.json"),
        (["pass-swaps"], "swap.json"),
        (["tags", "simulate"], "tags_demo.json"),
        (["tags", "count"], "tags_demo.json"),
    ]
    argvs = [sub + ["--scenario", scenario_path(sc), "--out", str(tmp_path / f"out{i}")]
             for i, (sub, sc) in enumerate(calls)]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from cwhom.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0] * len(calls), proc.stderr


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_exit_code_2_non_finite_scenario_number(capsys, tmp_path, constant):
    # json.load reads these literals and the schema's number type admits them
    with open(scenario_path("identical_165.json")) as fh:
        text = fh.read()
    sc = tmp_path / "bad.json"
    sc.write_text(text.replace("[17.0,", f"[{constant},", 1))
    assert json.loads(sc.read_text(), parse_constant=lambda c: c)["detectors"]["jitter_fwhm_ps"][0] == constant
    out = tmp_path / "v.json"
    code, _, stderr = run(capsys, ["visibility", "--scenario", str(sc), "--out", str(out)])
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "validation"
    assert constant in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("sub, text, needle", [
    # json.load reads 1e400 as inf, past the schema's exclusiveMinimum
    ("pulsed-rate", '{"pulsed": {"mu_p": 0.01, "tau_p_ps": 800.0, "t_c_ps": 800.0, "f_rep_hz": 1e400}}',
     "1e400"),
    ("optimize-rate", '{"rate_query": {"mu": 0.01, "jitter_ps": 15.0, "v_target": 0.9, "tc_max_ps": 1e400}}',
     "1e400"),
    # json.load reads an integer literal as an exact int, which float() refuses
    pytest.param("optimize-rate", '{"rate_query": {"mu": 0.01, "jitter_ps": 15.0, "v_target": 0.9, '
                 '"tc_max_ps": 1' + "0" * 400 + "}}", "integer of 401 digits", id="optimize-rate-10**400"),
    # finite inputs whose rate overflows
    ("pulsed-rate", '{"pulsed": {"mu_p": 1e200, "tau_p_ps": 800.0, "t_c_ps": 800.0, "f_rep_hz": 1e9}}',
     "finite"),
])
def test_exit_code_2_when_a_number_overflows(capsys, tmp_path, sub, text, needle):
    sc = tmp_path / "big.json"
    sc.write_text(text)
    out = tmp_path / "out.json"
    code, _, stderr = run(capsys, [sub, "--scenario", str(sc), "--out", str(out)])
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "validation" and needle in err["message"]
    assert not out.exists()


def test_fbg_fit_refuses_a_nan_seed(capsys, tmp_path):
    with open(scenario_path("fbg_fit.json")) as fh:
        doc = json.load(fh)
    doc["fbg_fit"]["table_csv"] = os.path.join(REPO, "data", "filter_signal_a.csv")
    doc["fbg_fit"]["seed"]["peak_kappa"] = float("nan")
    doc["fbg_fit"]["n_restarts"] = 0
    sc = tmp_path / "fit.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "m.json"
    code, _, stderr = run(capsys, ["fbg", "fit", "--scenario", str(sc), "--out", str(out)])
    assert code == 2
    assert json.loads(stderr)["error"] == "validation"
    assert not out.exists()


def test_fbg_fit_refuses_a_seed_with_design_wavelength(capsys, tmp_path):
    # FbgModel has no design wavelength: detuning converts through the
    # grating's effective index alone
    with open(scenario_path("fbg_fit.json")) as fh:
        doc = json.load(fh)
    doc["fbg_fit"]["table_csv"] = os.path.join(REPO, "data", "filter_signal_a.csv")
    doc["fbg_fit"]["seed"]["design_wavelength"] = 1.55e-06
    sc = tmp_path / "fit.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "m.json"
    code, stdout, stderr = run(capsys, ["fbg", "fit", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    err = json.loads(stderr)
    assert err == {"error": "validation",
                   "message": "Additional properties are not allowed ('design_wavelength' was unexpected)"}
    assert not out.exists()


def test_spectral_import_leaves_engine_and_scipy_unloaded():
    # the package namespace imports nothing, so a leaf module loads only its own imports
    assert modules_loaded_by("cwhom.spectral", ("cwhom.interference", "scipy")) == []


def test_tags_simulate_count_roundtrip(capsys, tmp_path):
    sim = tmp_path / "sim.csv"
    code, stdout, _ = run(capsys, ["tags", "simulate", "--scenario",
                                   scenario_path("tags_demo.json"), "--out", str(sim)])
    assert code == 0
    meta = meta_of(stdout)
    assert meta["n_events"] > 1000
    first = sim.read_bytes()
    # the bundled stream is this scenario's output
    with open(os.path.join(REPO, "data", "tags_demo.csv"), "rb") as fh:
        assert first == fh.read()

    # identical scenario, identical bytes; a new seed changes the stream
    code, _, _ = run(capsys, ["tags", "simulate", "--scenario",
                              scenario_path("tags_demo.json"), "--out", str(sim)])
    assert code == 0
    assert sim.read_bytes() == first
    code, _, _ = run(capsys, ["tags", "simulate", "--scenario",
                              scenario_path("tags_demo.json"), "--seed", "8", "--out", str(sim)])
    assert code == 0
    assert sim.read_bytes() != first
    sim.write_bytes(first)

    count_sc = tmp_path / "count.json"
    count_sc.write_text(json.dumps({
        "windows": {"tau_14_ps": 100.0, "tau_23_ps": 2000.0},
        "count": {"tag_csv": "sim.csv", "tau_ps": 0.0, "delta_ps": 40000.0},
    }))
    out = tmp_path / "counts.json"
    code, _, _ = run(capsys, ["tags", "count", "--scenario", str(count_sc), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    _validator("counts").validate(doc)
    assert doc["corrected"] == doc["raw"] - doc["shifted_2"] - doc["shifted_3"]
    assert doc["raw"] >= 0


def test_tags_count_empty_stream(capsys, tmp_path):
    tags = tmp_path / "empty.csv"
    tags.write_text("channel,timestamp_fs\n")
    sc = tmp_path / "count.json"
    sc.write_text(json.dumps({
        "windows": {"tau_14_ps": 100.0, "tau_23_ps": 2000.0},
        "count": {"tag_csv": "empty.csv", "tau_ps": 0.0, "duration_ps": 1e9},
    }))
    out = tmp_path / "counts.json"
    code, _, _ = run(capsys, ["tags", "count", "--scenario", str(sc), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc == {"raw": 0, "shifted_2": 0, "shifted_3": 0, "corrected": 0}


def test_tags_count_delay_scan_parses_the_file_once(capsys, tmp_path, monkeypatch):
    # counts at three delays of one file in one process: one parse, and the
    # artifacts of a fresh load and count at each delay
    parsed = []
    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda fname, *a, **k: parsed.append(fname) or real(fname, *a, **k))
    monkeypatch.setattr("cwhom.cli._TAG_FILES", SharedTagLoader())
    tags = os.path.join(REPO, "data", "tags_demo.csv")

    def count(tau: float, name: str) -> bytes:
        sc = tmp_path / f"count_{tau:g}.json"
        sc.write_text(json.dumps({
            "windows": {"tau_14_ps": 100.0, "tau_23_ps": 2000.0},
            "count": {"tag_csv": tags, "tau_ps": tau, "delta_ps": 40000.0},
        }))
        out = tmp_path / name
        assert run(capsys, ["tags", "count", "--scenario", str(sc), "--out", str(out)]) == (0, "", "")
        return out.read_bytes()

    taus = (0.0, 150.0, 600.0)
    scan = [count(tau, f"scan_{tau:g}.json") for tau in taus]
    assert parsed == [tags]
    for tau, artifact in zip(taus, scan):
        monkeypatch.setattr("cwhom.cli._TAG_FILES", SharedTagLoader())
        assert count(tau, f"fresh_{tau:g}.json") == artifact
    assert parsed == [tags] * 4


@pytest.mark.parametrize("row", ["257,5", "-252,7", "1,1.9"])
def test_tags_count_rejects_bad_rows(capsys, tmp_path, row):
    # a label that uint8 would wrap, or a fractional timestamp, is a
    # validation error, not a silently different channel or time
    (tmp_path / "bad.csv").write_text(f"channel,timestamp_fs\n1,3\n{row}\n")
    sc = tmp_path / "count.json"
    sc.write_text(json.dumps({
        "windows": {"tau_14_ps": 100.0, "tau_23_ps": 2000.0},
        "count": {"tag_csv": "bad.csv", "tau_ps": 0.0, "duration_ps": 1.0},
    }))
    out = tmp_path / "counts.json"
    code, _, stderr = run(capsys, ["tags", "count", "--scenario", str(sc), "--out", str(out)])
    assert code == 2
    assert json.loads(stderr)["error"] == "validation"
    assert not out.exists()


@pytest.mark.parametrize("section, key, needle", [
    ("windows", "tau_14_ps", "tau_14"),
    # without delta_ps the shift is 20 tau_23, so tau_23 itself is refused
    ("windows", "tau_23_ps", "tau_23"),
    ("count", "tau_ps", "tau"),
    ("count", "delta_ps", "delta"),
])
def test_tags_count_refuses_a_span_past_int64_femtoseconds(capsys, tmp_path, section, key, needle):
    (tmp_path / "tags.csv").write_text("channel,timestamp_fs\n1,3\n4,5\n")
    doc = {
        "windows": {"tau_14_ps": 100.0, "tau_23_ps": 2000.0},
        "count": {"tag_csv": "tags.csv", "tau_ps": 0.0},
    }
    doc[section][key] = 1e300
    sc = tmp_path / "count.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "counts.json"
    code, _, stderr = run(capsys, ["tags", "count", "--scenario", str(sc), "--out", str(out)])
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "validation" and err["message"].startswith(f"{needle} must lie within 2**60 fs")
    assert not out.exists()


def test_tags_count_refuses_timestamps_past_2_60_fs(capsys, tmp_path):
    # these four tags make one fourfold at tau = 70 ps, but a herald-window
    # edge of a count would pass 2**63 - 1 fs, so the file is refused
    t = 9223372036854700000
    (tmp_path / "late.csv").write_text(f"channel,timestamp_fs\n1,{t}\n2,{t}\n3,{t}\n4,{t + 70000}\n")
    sc = tmp_path / "count.json"
    sc.write_text(json.dumps({
        "windows": {"tau_14_ps": 200.0, "tau_23_ps": 2000.0},
        "count": {"tag_csv": "late.csv", "tau_ps": 70.0},
    }))
    out = tmp_path / "counts.json"
    code, stdout, stderr = run(capsys, ["tags", "count", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    err = json.loads(stderr)
    assert err["error"] == "validation" and "duration must be below 2**60 fs" in err["message"]
    assert not out.exists()


def test_tags_simulate_refuses_a_duration_past_the_sort_key(capsys, tmp_path):
    # no pairs and no strays, so a refusal is the only way to exit non-zero
    with open(scenario_path("tags_demo.json")) as fh:
        doc = json.load(fh)
    doc["tags"].update(pair_rate_a_hz=0.0, pair_rate_b_hz=0.0, noise_rates_hz=[0.0] * 4,
                       duration_ps=2e15)
    sc = tmp_path / "long.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "tags.csv"
    code, stdout, stderr = run(capsys, ["tags", "simulate", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    err = json.loads(stderr)
    assert err["error"] == "validation" and "duration must be below 2**60 fs" in err["message"]
    assert not out.exists()


def test_exit_code_3_when_grid_too_coarse(capsys, tmp_path):
    sc = tmp_path / "coarse.json"
    sc.write_text(json.dumps({
        "sources": {"a": {"kind": "rect", "t_c_ps": 165.0},
                    "b": {"kind": "rect", "t_c_ps": 165.0}},
        "delays": {"start_ps": -800.0, "stop_ps": 800.0, "count": 5},
        "grid": {"n_points": 129},
        "coherence": {"source": "a"},
    }))
    code, _, stderr = run(capsys, ["coherence", "--scenario", str(sc),
                                   "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = json.loads(stderr)
    assert err["error"] == "resolution"
    assert err["required_n_points"] == 551


def _with_tc(t_c_ps):
    def edit(doc):
        for src in doc["sources"].values():
            src["t_c_ps"] = t_c_ps
    return edit


@pytest.mark.parametrize("edit, required", [
    # the span overflows to inf, whose int() is an OverflowError
    (_with_tc(1e-300), None),
    # t_max overflows to inf, leaving a step of 0 to divide by
    (lambda doc: doc["detectors"].update(jitter_fwhm_ps=[1e300, 13.0, 11.0, 16.0]), None),
    (lambda doc: doc["detectors"].update(compose_tagger_rms_ps=1e300), None),
    # finite counts whose grids would take 1.57 EiB and 7.28 TiB
    (_with_tc(1e-12), 226788592992999649),
    (lambda doc: doc.update(grid={"n_points": 10**12 + 1}), None),
], ids=["tc-1e-300", "jitter-1e300", "tagger-rms-1e300", "tc-1e-12", "n-points-1e12"])
def test_exit_code_3_before_an_oversized_grid_is_allocated(capsys, tmp_path, edit, required):
    import tracemalloc

    from cwhom.interference import MAX_GRID_POINTS

    with open(scenario_path("identical_165.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    sc = tmp_path / "big.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "vis.json"
    tracemalloc.start()
    try:
        code, stdout, stderr = run(capsys, ["visibility", "--scenario", str(sc), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, stdout) == (3, "")
    err = json.loads(stderr)
    assert err["error"] == "resolution" and str(MAX_GRID_POINTS) in err["message"]
    assert err.get("required_n_points") == required
    # bytes: no grid array was made, one over the largest admitted grid takes 8 MiB
    assert peak < 2**20
    assert not out.exists()


@pytest.mark.parametrize("row", ["300,nan,30,2.2,2.2", "inf,30,30,2.2,2.2"])
def test_pass_swaps_refuses_a_non_finite_loss_file(capsys, tmp_path, row):
    # np.loadtxt reads nan and inf, which used to end as NaN or Infinity
    # in the artifact, neither of them JSON
    (tmp_path / "loss.csv").write_text(f"t_s,loss1_db,loss2_db,loss3_db,loss4_db\n0,30,30,2.2,2.2\n{row}\n")
    with open(scenario_path("swap.json")) as fh:
        doc = json.load(fh)
    doc["swap"]["loss_csv"] = "loss.csv"
    sc = tmp_path / "swap.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "swaps.json"
    code, _, stderr = run(capsys, ["pass-swaps", "--scenario", str(sc), "--out", str(out)])
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "validation"
    assert "must be finite" in err["message"]
    assert not out.exists()


def test_write_json_refuses_non_finite_numbers(tmp_path):
    # the artifact is serialized before its file opens, so none is left behind
    out = tmp_path / "swaps.json"
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_json(str(out), {"swaps": value}, "swaps")
        assert not out.exists()


def test_homdip_preset_regrids_until_the_plateau_reach_resolves(capsys, tmp_path, monkeypatch):
    # the first grid resolves the 800 ps delays and tau_23 = 1000 ps; the
    # coherence times estimated on it put the plateau reach at 1.46 ns, so
    # the setup is rebuilt once, on a finer grid
    import cwhom.cli
    from cwhom.interference import _check_resolution, _plateau_reach

    setups = []
    build = cwhom.cli.build_setup

    def recording_build(*args, **kwargs):
        setups.append(build(*args, **kwargs))
        return setups[-1]

    monkeypatch.setattr(cwhom.cli, "build_setup", recording_build)
    with open(scenario_path("reference_sources.json")) as fh:
        doc = json.load(fh)
    doc["windows"]["tau_23_ps"] = 1000.0
    doc["delays"]["count"] = 5
    sc = tmp_path / "dip.json"
    sc.write_text(json.dumps(doc))
    code, _, _ = run(capsys, ["homdip", "--scenario", str(sc), "--out", str(tmp_path / "dip.csv")])
    assert code == 0
    assert [s.jsa_a.grid.n_points for s in setups] == [705, 1027]
    final = setups[-1]
    reach = _plateau_reach(final.coherence_times, final.detectors.jitter_fwhm)
    assert reach > 1.4e-9
    _check_resolution(final.jsa_a.grid, reach, "the plateau reach")


def test_exit_code_2_mixed_preset_and_analytic_sources(capsys, tmp_path):
    sc = tmp_path / "mixed.json"
    sc.write_text(json.dumps({
        "sources": {"a": {"preset": "a"}, "b": {"kind": "rect", "t_c_ps": 165.0}},
        "windows": {"tau_14_ps": 40.0, "tau_23_ps": 2000.0},
        "delays": {"start_ps": -200.0, "stop_ps": 200.0, "count": 5},
    }))
    code, _, stderr = run(capsys, ["homdip", "--scenario", str(sc),
                                   "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "validation"
    assert "both presets or both analytic" in err["message"]


def preset_coherence_scenario(tmp_path, grid: dict) -> str:
    with open(scenario_path("reference_sources.json")) as fh:
        doc = json.load(fh)
    doc["grid"] = grid
    sc = tmp_path / "preset_coherence.json"
    sc.write_text(json.dumps(doc))
    return str(sc)


def test_coherence_preset_honours_span_factor(capsys, tmp_path):
    from cwhom.interference import coherence_function, sized_grid
    from cwhom.presets import (
        COHERENCE_JITTER_PAIRS, GRATING_GRID_FLOOR, REFERENCE_SOURCES, grating_width,
        reference_source_b,
    )

    out = tmp_path / "coh.csv"
    sc = preset_coherence_scenario(tmp_path, {"span_factor": 6.0})
    code, stdout, _ = run(capsys, ["coherence", "--scenario", sc, "--out", str(out)])
    assert code == 0
    t_c_ps = meta_of(stdout)["t_c_fwhm_ps"]
    # the default span factor 8 gives 168.55088825918506 ps
    assert t_c_ps != pytest.approx(168.55088825918506, rel=1e-6)
    delays = np.linspace(-800e-12, 800e-12, 161)
    grid = sized_grid(6.0 * grating_width(*REFERENCE_SOURCES["b"]), 800e-12, GRATING_GRID_FLOOR)
    curve = coherence_function(reference_source_b(grid), *COHERENCE_JITTER_PAIRS["b"], delays)
    assert t_c_ps == pytest.approx(curve.t_c_fwhm / 1e-12, rel=1e-12)


def test_exit_code_3_when_preset_grid_too_coarse(capsys, tmp_path):
    sc = preset_coherence_scenario(tmp_path, {"n_points": 129})
    code, _, stderr = run(capsys, ["coherence", "--scenario", sc,
                                   "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = json.loads(stderr)
    assert err["error"] == "resolution"
    # the grid source B is sampled on by default resolves the 800 ps reach
    assert err["required_n_points"] == 565


SMALL_DIP = {
    "sources": {"a": {"kind": "rect", "t_c_ps": 100.0},
                "b": {"kind": "rect", "t_c_ps": 100.0}},
    "detectors": {"jitter_fwhm_ps": [17.0, 13.0, 11.0, 16.0]},
    "windows": {"tau_14_ps": 40.0, "tau_23_ps": 280.0},
    "delays": {"start_ps": -200.0, "stop_ps": 200.0, "count": 5},
}


def test_exit_code_4_when_numeric_guard_trips(capsys, tmp_path, monkeypatch):
    import cwhom.interference

    # a negative tolerance makes every imaginary residue count as too large
    monkeypatch.setattr(cwhom.interference, "IMAG_RESIDUE_TOL", -1.0)
    sc = tmp_path / "dip.json"
    sc.write_text(json.dumps(SMALL_DIP))
    code, _, stderr = run(capsys, ["homdip", "--scenario", str(sc),
                                   "--out", str(tmp_path / "x.csv")])
    assert code == 4
    err = json.loads(stderr)
    assert err["error"] == "numerical"
    assert "imaginary residue" in err["message"]


def test_oracle_check_builds_one_engine(capsys, tmp_path, monkeypatch):
    from cwhom.interference import FourfoldEngine

    builds = []
    init = FourfoldEngine.__init__

    def counting_init(self, setup):
        builds.append(setup)
        init(self, setup)

    monkeypatch.setattr(FourfoldEngine, "__init__", counting_init)
    sc = tmp_path / "oracle.json"
    sc.write_text(json.dumps(SMALL_DIP))
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, ["oracle-check", "--scenario", str(sc), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["engine"]) == 5
    assert doc["pass"] is True
    assert len(builds) == 1


def test_exit_code_2_unknown_scenario_key(capsys, tmp_path):
    sc = tmp_path / "bogus.json"
    sc.write_text(json.dumps({
        "pulsed": {"mu_p": 0.01, "tau_p_ps": 800.0, "t_c_ps": 800.0, "f_rep_hz": 1e9},
        "bogus": 1,
    }))
    code, _, stderr = run(capsys, ["pulsed-rate", "--scenario", str(sc),
                                   "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "validation"
    assert "bogus" in err["message"]


def test_exit_code_2_missing_section(capsys, tmp_path):
    code, _, stderr = run(capsys, ["pulsed-rate", "--scenario", scenario_path("swap.json"),
                                   "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "validation"
    assert "pulsed" in err["message"]


PULSED = {"mu_p": 0.01, "tau_p_ps": 800.0, "t_c_ps": 800.0, "f_rep_hz": 1e9}
RATE_QUERY = {"mu": 0.01, "jitter_ps": 15.0, "v_target": 0.9, "tc_max_ps": 500.0}


@pytest.mark.parametrize("doc, message", [
    ({"pulsed": PULSED, "bogus": 1}, "Additional properties are not allowed ('bogus' was unexpected)"),
    ({"pulsed": PULSED, "windows": {"tau_14_ps": 40.0}}, "'tau_23_ps' is a required property"),
    ({"rate_query": {**RATE_QUERY, "filter_kind": "sinc"}},
     "'sinc' is not one of ['rect', 'gaussian', 'lorentzian']"),
    ({"pulsed": PULSED, "sources": {"a": {"kind": "sinc", "t_c_ps": 165.0}, "b": {"preset": "b"}}},
     "'sinc' is not one of ['rect', 'gaussian', 'lorentzian']"),
    ({"pulsed": PULSED, "sources": {"a": {"preset": "c"}, "b": {"preset": "b"}}},
     "'c' is not one of ['a', 'b']"),
    ({"pulsed": PULSED, "coherence": {"source": "c"}}, "'c' is not one of ['a', 'b']"),
    ({"pulsed": {**PULSED, "tau_p_ps": "800"}}, "'800' is not of type 'number'"),
    ({"pulsed": {**PULSED, "mu_p": 0.0}}, "0.0 is less than or equal to the minimum of 0"),
    # both the type and the minimum refuse 2.5; the schema's key order picks the message
    ({"pulsed": PULSED, "grid": {"n_points": 2.5}}, "2.5 is less than the minimum of 3"),
], ids=["unknown-key", "missing-key", "filter-kind", "source-kind", "preset", "coherence-source",
        "type", "range", "type-and-range"])
def test_validation_message_is_pinned(capsys, tmp_path, doc, message):
    sc = tmp_path / "bad.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "rate.json"
    code, stdout, stderr = run(capsys, ["pulsed-rate", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr == json.dumps({"error": "validation", "message": message}) + "\n"
    assert not out.exists()


def test_refused_artifact_message_is_pinned(capsys, tmp_path, monkeypatch):
    import cwhom.cli

    monkeypatch.setattr(cwhom.cli, "pulsed_rate", lambda *args: -1.0)
    out = tmp_path / "rate.json"
    code, stdout, stderr = run(capsys, ["pulsed-rate", "--scenario", scenario_path("pulsed.json"),
                                        "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr == '{"error": "validation", "message": "-1.0 is less than the minimum of 0"}\n'
    assert not out.exists()


def test_bundled_scenarios_validate():
    names = sorted(os.listdir(SCENARIOS))
    assert len(names) >= 8
    for name in names:
        with open(os.path.join(SCENARIOS, name)) as fh:
            doc = json.load(fh)
        _validator("scenario").validate(doc)


def test_packaged_schemas_are_valid_draft7():
    # the cached validators skip the metaschema check that
    # jsonschema.validate makes on every call
    assert len(SCHEMAS) == 9
    for name, schema in SCHEMAS.items():
        jsonschema.Draft7Validator.check_schema(schema)
        # key order picks among equally relevant errors, see cwhom.schemas
        assert json.dumps(schema) == json.dumps(schema, sort_keys=True), name


def test_validate_raises_what_jsonschema_validate_raises():
    bad = {"pulsed": {"mu_p": -1.0, "tau_p_ps": 0.0}, "bogus": 1}
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, _validator("scenario").schema, cls=jsonschema.Draft7Validator)
    with pytest.raises(jsonschema.ValidationError) as got:
        _validate(bad, "scenario")
    assert (got.value.message, got.value.path) == (want.value.message, want.value.path)

