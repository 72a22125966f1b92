"""End-to-end command line checks: scenario JSON in, artifacts out.

Runs main() in process and pins the bundled scenarios' outputs, the
exit-code contract, and the schema validity of every emitted artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cwhom.cli import _COMMANDS, _validate, _validator, _write_json, main
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


def seeded_fit_scenario(tmp_path, rng_seed: int) -> str:
    """The fit scenario from a seed kappa of 30 with two restarts, where the seed decides the fit."""
    with open(scenario_path("fbg_fit.json")) as fh:
        doc = json.load(fh)
    doc["fbg_fit"]["table_csv"] = os.path.join(REPO, "data", "filter_signal_a.csv")
    doc["fbg_fit"]["seed"]["peak_kappa"] = 30.0
    doc["fbg_fit"]["n_restarts"] = 2
    doc["rng_seed"] = rng_seed
    sc = tmp_path / f"fit_{rng_seed}.json"
    sc.write_text(json.dumps(doc))
    return str(sc)


def test_fbg_fit_reads_the_scenario_seed_and_seed_overrides_it(capsys, tmp_path):
    # restarts drawn from seed 0 stall at a residual of ~1.5e-2; those of
    # seed 5 reach the calibrated grating
    def fit(scenario, *extra):
        out = tmp_path / "m.json"
        code, stdout, _ = run(capsys, ["fbg", "fit", "--scenario", scenario, "--out", str(out), *extra])
        assert code == 0
        return meta_of(stdout)["residual"], out.read_bytes()

    stalled, model_0 = fit(seeded_fit_scenario(tmp_path, 0))
    assert stalled > 1e-3
    assert fit(seeded_fit_scenario(tmp_path, 5))[0] < 1e-18
    assert fit(seeded_fit_scenario(tmp_path, 5), "--seed", "0") == (stalled, model_0)


def test_tags_simulate_seed_overrides_the_scenario_seed(capsys, tmp_path):
    with open(scenario_path("tags_demo.json")) as fh:
        doc = json.load(fh)
    bundled_seed = doc["rng_seed"]
    doc["rng_seed"] = 8
    sc = tmp_path / "tags_8.json"
    sc.write_text(json.dumps(doc))

    def simulate(scenario, *extra):
        out = tmp_path / "tags.csv"
        assert run(capsys, ["tags", "simulate", "--scenario", scenario, "--out", str(out), *extra])[0] == 0
        return out.read_bytes()

    bundled = simulate(scenario_path("tags_demo.json"))
    assert simulate(str(sc)) != bundled
    assert simulate(scenario_path("tags_demo.json"), "--seed", "8") == simulate(str(sc))
    assert simulate(str(sc), "--seed", str(bundled_seed)) == bundled


def test_fbg_fit_refuses_a_seed_inside_its_section(capsys, tmp_path):
    # the run seed has one key, the scenario's top-level rng_seed
    with open(seeded_fit_scenario(tmp_path, 0)) as fh:
        doc = json.load(fh)
    doc["fbg_fit"]["rng_seed"] = 5
    sc = tmp_path / "fit.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "m.json"
    code, stdout, stderr = run(capsys, ["fbg", "fit", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": "validation",
                                  "message": "Additional properties are not allowed ('rng_seed' was unexpected)"}
    assert not out.exists()


def modules_loaded_by(module: str, prefixes: tuple[str, ...]) -> list[str]:
    """Names starting with one of prefixes in sys.modules after a fresh import of module."""
    script = f"import sys, {module}; print(*[m for m in sys.modules if m.startswith({prefixes!r})])"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_leaves_scipy_unloaded():
    assert modules_loaded_by("cwhom.cli", ("scipy",)) == []


def readme_cli_calls() -> list[list[str]]:
    """The argv of each `cwhom ...` line in the README's sh blocks."""
    with open(os.path.join(REPO, "README.md")) as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("cwhom ")]


def test_every_subcommand_runs_without_scipy(tmp_path):
    # the README's command-line examples, each --out redirected into
    # tmp_path, run from the repository root; with scipy blocked in
    # sys.modules, any import of it, at start-up or inside a call, raises
    # ImportError out of main
    argvs = readme_cli_calls()
    subcommands = {" ".join(argv[: argv.index("--scenario")]) for argv in argvs}
    assert subcommands == set(_COMMANDS)
    for i, argv in enumerate(argvs):
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / f"{i}_{os.path.basename(argv[out])}")
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from cwhom.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0] * len(argvs), proc.stderr


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
        "count": {"tag_csv": "sim.csv", "tau_ps": 0.0},
    }))
    out = tmp_path / "counts.json"
    code, _, _ = run(capsys, ["tags", "count", "--scenario", str(count_sc), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    _validator("counts").validate(doc)
    assert doc["corrected"] == doc["raw"] - doc["shifted_2"] - doc["shifted_3"]
    assert doc["raw"] >= 0


def test_tags_simulate_bytes_are_pinned_at_scale(capsys, tmp_path):
    # the bundled scenario at 10x its duration writes ~24 CSV chunks, where
    # the pinned library cases write less than one
    with open(scenario_path("tags_demo.json")) as fh:
        doc = json.load(fh)
    doc["tags"]["duration_ps"] *= 10
    sc = tmp_path / "tags_10.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "tags.csv"
    code, stdout, _ = run(capsys, ["tags", "simulate", "--scenario", str(sc), "--out", str(out)])
    assert code == 0
    assert meta_of(stdout)["n_events"] == 384_874
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "fbfcf16a1212fa1fa3d06f854b217747186f740039c1977d22633bc686e143ce"


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
            "count": {"tag_csv": tags, "tau_ps": tau},
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


@pytest.mark.parametrize("rows", ["1\n4\n", "1,5,9\n4,7,9\n"], ids=["one-field", "three-fields"])
def test_tags_count_refuses_rows_of_other_than_two_fields(capsys, tmp_path, rows):
    # rows of one field used to end in an IndexError traceback, and a
    # third field was dropped without a word
    (tmp_path / "tags.csv").write_text(f"channel,timestamp_fs\n{rows}")
    sc = tmp_path / "count.json"
    sc.write_text(json.dumps({
        "windows": {"tau_14_ps": 100.0, "tau_23_ps": 2000.0},
        "count": {"tag_csv": "tags.csv", "tau_ps": 0.0},
    }))
    out = tmp_path / "counts.json"
    code, stdout, stderr = run(capsys, ["tags", "count", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    width = rows.split("\n")[0].count(",") + 1
    assert json.loads(stderr) == {
        "error": "validation",
        "message": f"tag file rows must hold 2 fields, channel and timestamp_fs, not {width}",
    }
    assert not out.exists()


@pytest.mark.parametrize("section, key, needle", [
    ("windows", "tau_14_ps", "tau_14"),
    # the shift is 20 tau_23, so tau_23 itself is refused
    ("windows", "tau_23_ps", "tau_23"),
    ("count", "tau_ps", "tau"),
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


UNDERFLOWING_TC = [
    ("identical_165.json", sub, ("sources", "a", "t_c_ps"), "coherence time must be positive, not 0.0 s")
    for sub in (["coherence"], ["homdip"], ["visibility"], ["oracle-check"])
] + [
    ("tags_demo.json", ["tags", "simulate"], ("tags", "density", "t_c_ps"),
     "tags.density.t_c_ps = 1e-320 underflows to 0 s"),
]


@pytest.mark.parametrize("name, sub, path, message", UNDERFLOWING_TC,
                         ids=[" ".join(case[1]) for case in UNDERFLOWING_TC])
def test_a_coherence_time_that_underflows_to_zero_seconds_is_refused(
    capsys, tmp_path, name, sub, path, message
):
    # 1e-320 ps passes the schema's exclusive minimum of 0, but is 0.0 in
    # seconds: the analytic commands divided by it in filter_width (a
    # ZeroDivisionError traceback, exit 1), and tags simulate wrote a NaN
    # density after a numpy warning
    with open(scenario_path(name)) as fh:
        doc = json.load(fh)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 1e-320
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    # recorded, since pytest would capture a warning printed ahead of the JSON object
    with warnings.catch_warnings(record=True) as caught:
        code, stdout, stderr = run(capsys, [*sub, "--scenario", str(sc), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert (code, stdout) == (2, "")
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"error": "validation", "message": message}
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


@pytest.mark.parametrize("edit, expected", [
    (lambda tags: tags.update(pair_rate_a_hz=1e12), "~2e+09"),
    (lambda tags: tags.update(pair_rate_b_hz=1e12), "~2e+09"),
    (lambda tags: tags["noise_rates_hz"].__setitem__(2, 1e12), "~1e+09"),
    # 1 s of the bundled rates
    (lambda tags: tags.update(duration_ps=1e12), "~4.04e+07"),
], ids=["pair-rate-a", "pair-rate-b", "noise-rate", "duration"])
def test_tags_simulate_refuses_an_event_count_past_its_limit(capsys, tmp_path, edit, expected):
    # unrefused, each draws arrays of 0.3-15 GiB; the limit is 2**25 events
    with open(scenario_path("tags_demo.json")) as fh:
        doc = json.load(fh)
    edit(doc["tags"])
    sc = tmp_path / "busy.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "tags.csv"
    code, stdout, stderr, peak = run_traced(capsys, ["tags", "simulate", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {
        "error": "validation",
        "message": f"the stream would hold {expected} events; at most 33554432 are allowed",
    }
    assert peak < 16 * 2**20
    assert not out.exists()


@pytest.mark.parametrize("sub, name, window", [
    (["homdip"], "identical_165", "tau_23_ps"),
    (["visibility"], "identical_165", "tau_14_ps"),
    (["oracle-check"], "identical_165", "tau_23_ps"),
    (["tags", "count"], "tags_demo", "tau_14_ps"),
], ids=["homdip", "visibility", "oracle-check", "tags-count"])
def test_exit_code_2_for_a_window_below_1_fs(capsys, tmp_path, sub, name, window):
    # a 1e-300 ps window ran the engine on subnormal kernels for ~18 s
    doc = bundled_scenario(name)
    doc["windows"][window] = 0.0005
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, [*sub, "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": "validation", "message": "coincidence windows must be at least 1 fs"}
    assert not out.exists()


def test_pass_swaps_failure_prints_one_json_object(tmp_path):
    # a subprocess, since pytest's warning capture would hide a warning
    # printed ahead of the JSON object
    doc = bundled_scenario("swap")
    doc["swap"]["t_c_ps"] = 1e-300
    sc = tmp_path / "swap.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "swaps.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-m", "cwhom.cli", "pass-swaps", "--scenario", str(sc),
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == json.dumps({
        "error": "validation",
        "message": "CW rate (mu / t_c)^2 * tau_w is not a finite float",
    }) + "\n"
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


def run_traced(capsys, argv):
    """run(), plus the peak bytes Python allocated during it."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (*result, peak)


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
    from cwhom.interference import MAX_GRID_POINTS

    with open(scenario_path("identical_165.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    sc = tmp_path / "big.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "vis.json"
    code, stdout, stderr, peak = run_traced(capsys, ["visibility", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (3, "")
    err = json.loads(stderr)
    assert err["error"] == "resolution" and str(MAX_GRID_POINTS) in err["message"]
    assert err.get("required_n_points") == required
    # bytes: no grid array was made, one over the largest admitted grid takes 8 MiB
    assert peak < 2**20
    assert not out.exists()


def test_exit_code_3_before_the_engine_allocates_its_m_by_m_arrays(capsys, tmp_path):
    from cwhom.interference import MAX_ENGINE_CORE_BYTES

    # T_c = 2.5 ps sizes a grid of 90 717 points whose rect JSA spans
    # m = 5671 of them: 0.48 GiB for the two real m x m kernels, minutes of GEMMs
    with open(scenario_path("identical_165.json")) as fh:
        doc = json.load(fh)
    doc["sources"]["a"]["t_c_ps"] = 2.5
    sc = tmp_path / "narrow.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "vis.json"
    code, stdout, stderr, peak = run_traced(capsys, ["visibility", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (3, "")
    err = json.loads(stderr)
    assert err == {
        "error": "resolution",
        "message": f"a JSA support of 5671 grid points needs {16 * 5671**2} bytes for the engine's "
                   f"two real m x m kernels; at most {MAX_ENGINE_CORE_BYTES} are allowed",
    }
    # the grid's few vectors, not one m x m array
    assert peak < 16 * 2**20
    assert not out.exists()


def test_oracle_check_refuses_an_oversized_lattice_before_allocating(capsys, tmp_path):
    from cwhom.interference import MAX_ORACLE_CELLS

    # a 1e-9 ps channel-1 jitter sets a lattice step of 1.4e-22 s: 2.4e12
    # lattice offsets, 17.2 TiB
    with open(scenario_path("appendix_shape.json")) as fh:
        doc = json.load(fh)
    doc["detectors"]["jitter_fwhm_ps"][0] = 1e-9
    sc = tmp_path / "sharp.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "oracle.json"
    code, stdout, stderr, peak = run_traced(capsys, ["oracle-check", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (3, "")
    err = json.loads(stderr)
    assert err["error"] == "resolution" and f"more than {MAX_ORACLE_CELLS} points" in err["message"]
    assert peak < 16 * 2**20
    assert not out.exists()


@pytest.mark.parametrize("sub, name, edit, message", [
    (["homdip"], "identical_165.json", lambda doc: doc["delays"].update(count=10**12),
     "1000000000000 is greater than the maximum of 100000"),
    (["fbg", "fit"], "fbg_fit.json", lambda doc: doc["fbg_fit"]["seed"].update(n_sections=10**9),
     "1000000000 is greater than the maximum of 4096"),
    (["fbg", "fit"], "fbg_fit.json", lambda doc: doc["fbg_fit"].update(n_restarts=10**12),
     "1000000000000 is greater than the maximum of 100"),
], ids=["delays-count", "n-sections", "n-restarts"])
def test_exit_code_2_for_a_count_past_its_maximum(capsys, tmp_path, sub, name, edit, message):
    # unrefused, each count sizes an array of 7.3 TiB or 7.5 GiB, or a loop
    # of 10**12 fits
    with open(scenario_path(name)) as fh:
        doc = json.load(fh)
    edit(doc)
    if "fbg_fit" in doc:
        doc["fbg_fit"]["table_csv"] = os.path.join(REPO, "data", "filter_signal_a.csv")
    sc = tmp_path / name
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, stdout, stderr, peak = run_traced(capsys, [*sub, "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr == json.dumps({"error": "validation", "message": message}) + "\n"
    assert peak < 16 * 2**20
    assert not out.exists()


# The subcommands each bundled scenario drives, for the exit-code property.
SCENARIO_COMMANDS = {
    "appendix_shape": [["homdip"], ["oracle-check"], ["visibility"]],
    "fbg_fit": [["fbg", "fit"]],
    "identical_165": [["visibility"], ["homdip"], ["coherence"], ["oracle-check"]],
    "optimize": [["optimize-rate"]],
    "pulsed": [["pulsed-rate"]],
    "reference_sources": [["homdip"], ["coherence"], ["visibility"]],
    "swap": [["pass-swaps"]],
    "tags_demo": [["tags", "simulate"], ["tags", "count"]],
}
EXTREMES = (0, -1, 1e-300, 1e300, 1e12, 2.5)


def bundled_scenario(name: str) -> dict:
    """A bundled scenario with absolute data paths, trimmed to run in milliseconds.

    Scans keep 5 delays and the fit one start, unless the property draws
    those counts themselves.
    """
    with open(scenario_path(name + ".json")) as fh:
        doc = json.load(fh)
    for section, key in (("fbg_fit", "table_csv"), ("swap", "loss_csv"), ("count", "tag_csv")):
        if section in doc:
            doc[section][key] = os.path.join(REPO, "data", os.path.basename(doc[section][key]))
    if "delays" in doc:
        doc["delays"]["count"] = 5
    if "fbg_fit" in doc:
        doc["fbg_fit"]["n_restarts"] = 0
    return doc


def numeric_leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from numeric_leaves(value, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def admitted_heavy_work(path: tuple, value) -> bool:
    """Values the CLI admits although they size seconds or GiB of work.

    No refusal comes before that work, so the property does not draw
    them (measured one subprocess each under a 3 GB address-space cap).
    """
    key = next(k for k in reversed(path) if isinstance(k, str))
    # a 2.5 ps coherence time or herald window: grids of 1e4 points and
    # fine oracle lattices, 2-17 s
    return key in ("t_c_ps", "tau_14_ps") and value == 2.5


def _fuzz_cases():
    cases = []
    for name, commands in SCENARIO_COMMANDS.items():
        doc = bundled_scenario(name)
        for path in numeric_leaves(doc):
            for value in EXTREMES:
                if not admitted_heavy_work(path, value):
                    cases.extend((name, sub, path, value) for sub in commands)
    return cases


FUZZ_CASES = _fuzz_cases()

# Header-only copies of the tables the CLI reads, as cases whose value is
# the file's text: np.loadtxt warns on a file with no rows.
HEADER_ONLY_TABLES = [
    ("swap", ["pass-swaps"], ("swap", "loss_csv"), "t_s,loss1_db,loss2_db,loss3_db,loss4_db\n"),
    ("fbg_fit", ["fbg", "fit"], ("fbg_fit", "table_csv"), "wavelength_pm,reflectance\n"),
    ("tags_demo", ["tags", "count"], ("count", "tag_csv"), "channel,timestamp_fs\n"),
]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(FUZZ_CASES))
@example(case=HEADER_ONLY_TABLES[0])
@example(case=HEADER_ONLY_TABLES[1])
@example(case=HEADER_ONLY_TABLES[2])
def test_every_cli_failure_keeps_the_exit_code_contract(capsys, tmp_path, case):
    name, sub, path, value = case
    doc = bundled_scenario(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if isinstance(value, str):
        table = tmp_path / f"header_only_{path[-1]}"
        table.write_text(value)
        value = str(table)
    node[path[-1]] = value
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if out.exists():
        out.unlink()
    # pytest would capture a warning printed ahead of the JSON object
    with warnings.catch_warnings(record=True) as caught:
        code, _, stderr = run(capsys, [*sub, "--scenario", str(sc), "--out", str(out)])
    assert code in (0, 2, 3, 4)
    if code:
        assert [str(w.message) for w in caught] == []
        assert stderr.endswith("\n") and stderr.count("\n") == 1
        assert isinstance(json.loads(stderr), dict)


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


def test_pass_swaps_refuses_a_loss_file_with_no_rows(capsys, tmp_path):
    (tmp_path / "loss.csv").write_text("t_s,loss1_db,loss2_db,loss3_db,loss4_db\n")
    with open(scenario_path("swap.json")) as fh:
        doc = json.load(fh)
    doc["swap"]["loss_csv"] = "loss.csv"
    sc = tmp_path / "swap.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "swaps.json"
    # recorded, since pytest would capture a warning printed ahead of the JSON object
    with warnings.catch_warnings(record=True) as caught:
        code, stdout, stderr = run(capsys, ["pass-swaps", "--scenario", str(sc), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": "validation", "message": "need at least two time samples"}
    assert not out.exists()


def test_write_json_refuses_non_finite_numbers(tmp_path):
    # the artifact is serialized before its file opens, so none is left behind
    out = tmp_path / "swaps.json"
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_json(str(out), {"swaps": value}, "swaps")
        assert not out.exists()


def recorded_calls(monkeypatch, module, name: str) -> list:
    """Results of every call to module.name from here on; the calls still run."""
    results = []
    func = getattr(module, name)

    def recording(*args, **kwargs):
        results.append(func(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recording)
    return results


def test_homdip_preset_sizes_its_grid_once(capsys, tmp_path, monkeypatch):
    # the calibrated coherence times put the plateau reach at 1.46 ns, past
    # tau_23 = 1000 ps and the 800 ps delays, so the one grid resolves it
    import cwhom.cli
    from cwhom.interference import _check_resolution, _plateau_reach

    setups = recorded_calls(monkeypatch, cwhom.cli, "build_setup")
    with open(scenario_path("reference_sources.json")) as fh:
        doc = json.load(fh)
    doc["windows"]["tau_23_ps"] = 1000.0
    doc["delays"]["count"] = 5
    sc = tmp_path / "dip.json"
    sc.write_text(json.dumps(doc))
    code, _, _ = run(capsys, ["homdip", "--scenario", str(sc), "--out", str(tmp_path / "dip.csv")])
    assert code == 0
    assert [s.jsa_a.grid.n_points for s in setups] == [1027]
    reach = _plateau_reach(setups[0].coherence_times, setups[0].detectors.jitter_fwhm)
    assert reach > 1.4e-9
    _check_resolution(setups[0].jsa_a.grid, reach, "the plateau reach")


MIXED = {
    "sources": {"a": {"preset": "a"}, "b": {"kind": "rect", "t_c_ps": 165.0}},
    "detectors": {"jitter_fwhm_ps": [17.0, 13.0, 11.0, 16.0]},
    "windows": {"tau_14_ps": 40.0, "tau_23_ps": 2000.0},
    "delays": {"start_ps": -200.0, "stop_ps": 200.0, "count": 5},
}


def test_homdip_runs_a_preset_with_an_analytic_source(capsys, tmp_path, monkeypatch):
    import cwhom.cli
    from cwhom.presets import REFERENCE_COHERENCE_TIMES

    setups = recorded_calls(monkeypatch, cwhom.cli, "build_setup")
    sc = tmp_path / "mixed.json"
    sc.write_text(json.dumps(MIXED))
    out = tmp_path / "dip.csv"
    code, stdout, stderr = run(capsys, ["homdip", "--scenario", str(sc), "--out", str(out)])
    assert (code, stderr) == (0, "")
    assert meta_of(stdout)["plateau_reliable"] is True
    _, rows = read_csv(str(out))
    assert rows.shape == (5, 3) and np.all(rows[:, 1] > 0)
    (setup,) = setups
    assert setup.coherence_times == (REFERENCE_COHERENCE_TIMES["a"], 165e-12)
    # the rect filter, wider than preset A's gratings, sets the span and
    # tau_23 the step: the grid of identical_165
    assert setup.jsa_a.grid.n_points == 1377


@pytest.mark.parametrize("sub", ["coherence", "homdip", "visibility", "oracle-check"])
@pytest.mark.parametrize("sources", [
    {"a": {"preset": "a"}, "b": {"preset": "b"}},
    MIXED["sources"],
    {"a": {"kind": "gaussian", "t_c_ps": 120.0}, "b": {"kind": "rect", "t_c_ps": 165.0}},
], ids=["presets", "mixed", "analytic"])
def test_each_command_sizes_one_grid_and_estimates_no_coherence_time(
    capsys, tmp_path, monkeypatch, sub, sources
):
    import cwhom.cli
    import cwhom.interference

    setups = recorded_calls(monkeypatch, cwhom.cli, "build_setup")
    estimates = recorded_calls(monkeypatch, cwhom.interference, "jsa_coherence_fwhm")
    # a 600 ps BS window keeps the oracle small; the delays bracket the
    # coherence half maxima
    doc = {
        **MIXED,
        "sources": sources,
        "windows": {"tau_14_ps": 40.0, "tau_23_ps": 600.0},
        "delays": {"start_ps": -800.0, "stop_ps": 800.0, "count": 17},
    }
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, [sub, "--scenario", str(sc), "--out", str(tmp_path / "out")])
    # a 600 ps BS window leaves no reliable plateau for visibility to read
    assert code == (2 if sub == "visibility" else 0), stderr
    assert len(setups) == (0 if sub == "coherence" else 1)
    assert estimates == []


def preset_coherence_scenario(tmp_path, grid: dict) -> str:
    with open(scenario_path("reference_sources.json")) as fh:
        doc = json.load(fh)
    doc["grid"] = grid
    sc = tmp_path / "preset_coherence.json"
    sc.write_text(json.dumps(doc))
    return str(sc)


def test_scenario_refuses_a_grid_span_factor(capsys, tmp_path):
    # every grid's half span is SPAN_FACTOR times its widest source width
    sc = preset_coherence_scenario(tmp_path, {"span_factor": 6.0})
    out = tmp_path / "coh.csv"
    code, stdout, stderr = run(capsys, ["coherence", "--scenario", sc, "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {
        "error": "validation",
        "message": "Additional properties are not allowed ('span_factor' was unexpected)",
    }
    assert not out.exists()


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


@pytest.mark.parametrize("sub, doc", [
    ("vismap", {"vismap": {"tc_values_ps": [80.0], "tau14_values_ps": [40.0], "jitter_ps": 15.0}}),
    ("optimize-rate", {"rate_query": {"mu": 0.01, "jitter_ps": 15.0, "v_target": 0.9, "tc_max_ps": 800.0}}),
])
def test_exit_code_4_from_the_baseline_visibility(capsys, tmp_path, monkeypatch, sub, doc):
    import cwhom.interference
    import cwhom.rates

    # the baseline visibility reads the engine's terms through the same
    # guards as the dip; no cached visibility may stand in for them
    monkeypatch.setattr(cwhom.interference, "IMAG_RESIDUE_TOL", -1.0)
    cwhom.rates._visibility_model.cache_clear()
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, [sub, "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (4, "")
    err = json.loads(stderr)
    assert err["error"] == "numerical" and "imaginary residue" in err["message"]
    assert not out.exists()


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


def test_oracle_check_fits_no_scale(capsys, tmp_path, monkeypatch):
    # an engine 1 % high fails the check: no fitted scale absorbs it
    from cwhom.interference import FourfoldEngine

    probabilities = FourfoldEngine.probabilities
    monkeypatch.setattr(FourfoldEngine, "probabilities", lambda self, delays: 1.01 * probabilities(self, delays))
    sc = tmp_path / "oracle.json"
    sc.write_text(json.dumps(SMALL_DIP))
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, ["oracle-check", "--scenario", str(sc), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is False
    assert doc["max_rel_deviation"] == pytest.approx(1e-2, rel=1e-3)


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


@pytest.mark.parametrize("doc, message", [
    ({"pulsed": PULSED, "bogus": 1}, "Additional properties are not allowed ('bogus' was unexpected)"),
    ({"pulsed": PULSED, "windows": {"tau_14_ps": 40.0}}, "'tau_23_ps' is a required property"),
    # the step is the only bunching model a scenario gives
    ({"pulsed": PULSED, "tags": {"pair_rate_a_hz": 1e7, "pair_rate_b_hz": 1e7, "noise_rates_hz": [0.0] * 4,
                                 "etas": [1.0] * 4, "duration_ps": 1e9, "density": {"t_c_ps": 50.0}}},
     "'gamma_step' is a required property"),
    ({"pulsed": PULSED, "sources": {"a": {"kind": "sinc", "t_c_ps": 165.0}, "b": {"preset": "b"}}},
     "'sinc' is not one of ['rect', 'gaussian', 'lorentzian']"),
    ({"pulsed": PULSED, "sources": {"a": {"preset": "c"}, "b": {"preset": "b"}}},
     "'c' is not one of ['a', 'b']"),
    ({"pulsed": PULSED, "coherence": {"source": "c"}}, "'c' is not one of ['a', 'b']"),
    ({"pulsed": {**PULSED, "tau_p_ps": "800"}}, "'800' is not of type 'number'"),
    ({"pulsed": {**PULSED, "mu_p": 0.0}}, "0.0 is less than or equal to the minimum of 0"),
    # both the type and the minimum refuse 2.5; the schema's key order picks the message
    ({"pulsed": PULSED, "grid": {"n_points": 2.5}}, "2.5 is less than the minimum of 3"),
], ids=["unknown-key", "missing-key", "missing-gamma-step", "source-kind", "preset", "coherence-source",
        "type", "range", "type-and-range"])
def test_validation_message_is_pinned(capsys, tmp_path, doc, message):
    sc = tmp_path / "bad.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "rate.json"
    code, stdout, stderr = run(capsys, ["pulsed-rate", "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr == json.dumps({"error": "validation", "message": message}) + "\n"
    assert not out.exists()


# Each key is set to the value of the rule that replaced it: the key
# itself is refused, not its value.
REMOVED_KEYS = [
    (["tags", "simulate"], "tags_demo.json", "tags.density.span_ps", 250.0),
    (["tags", "simulate"], "tags_demo.json", "tags.density.n_points", 501),
    (["tags", "count"], "tags_demo.json", "count.delta_ps", 40000.0),
    (["tags", "simulate"], "tags_demo.json", "tags.gamma", 0.95),
    (["optimize-rate"], "optimize.json", "rate_query.filter_kind", "rect"),
    (["vismap"], "vismap.json", "vismap.filter_kind", "rect"),
    (["optimize-rate"], "optimize.json", "rate_query.tau_w_range_ps", [5.0, 1000.0]),
]


@pytest.mark.parametrize("sub, name, path, value", REMOVED_KEYS, ids=[case[2] for case in REMOVED_KEYS])
def test_scenario_refuses_a_removed_key(capsys, tmp_path, sub, name, path, value):
    with open(scenario_path(name)) as fh:
        doc = json.load(fh)
    # the copy still finds the bundled tag file, so the key is all that is wrong
    if "count" in doc:
        doc["count"]["tag_csv"] = os.path.join(REPO, "data", "tags_demo.csv")
    *sections, key = path.split(".")
    section = doc
    for part in sections:
        section = section[part]
    section[key] = value
    sc = tmp_path / name
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, [*sub, "--scenario", str(sc), "--out", str(out)])
    assert (code, stdout) == (2, "")
    message = f"Additional properties are not allowed ('{key}' was unexpected)"
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


def _object_schemas():
    """(path, node) of every object schema in SCHEMAS, definitions and oneOf included."""
    def objects(node, path):
        if isinstance(node, dict):
            if node.get("type") == "object":
                yield path, node
            for key, value in node.items():
                yield from objects(value, (*path, key))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from objects(value, (*path, i))

    for name, schema in SCHEMAS.items():
        yield from objects(schema, (name,))


def test_every_object_schema_refuses_unknown_keys():
    open_objects = [path for path, node in _object_schemas() if node.get("additionalProperties") is not False]
    # the visibility artifact echoes the scenario sections it read
    assert open_objects == [("visibility", "properties", "inputs")]


def test_every_required_key_is_a_property():
    # a required key outside properties would make its object unsatisfiable
    checked = []
    for path, node in _object_schemas():
        if "required" in node:
            assert set(node["required"]) <= set(node["properties"]), path
            checked.append(path)
    assert ("scenario", "definitions", "fbg_model") in checked
    assert ("scenario", "definitions", "source", "oneOf", 1) in checked


def test_validate_raises_what_jsonschema_validate_raises():
    bad = {"pulsed": {"mu_p": -1.0, "tau_p_ps": 0.0}, "bogus": 1}
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, _validator("scenario").schema, cls=jsonschema.Draft7Validator)
    with pytest.raises(jsonschema.ValidationError) as got:
        _validate(bad, "scenario")
    assert (got.value.message, got.value.path) == (want.value.message, want.value.path)

