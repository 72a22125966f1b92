"""End-to-end command line checks: scenario JSON in, artifacts out.

Runs main() in process and pins the bundled scenarios' outputs, the
exit-code contract, and the schema validity of every emitted artifact.
"""

from __future__ import annotations

import json
import os

import jsonschema
import numpy as np
import pytest

from cwhom.cli import _schema, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")
SCHEMAS = os.path.join(REPO, "schemas")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def meta_of(out: str) -> dict:
    meta = json.loads(out.strip().splitlines()[-1])
    jsonschema.validate(meta, _schema("csv_meta"))
    return meta


def read_csv(path):
    lines = open(path).read().splitlines()
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
    jsonschema.validate(doc, _schema("rate"))
    assert doc["rate_hz"] == 1e5


def test_pass_swaps(capsys, tmp_path):
    out = tmp_path / "swaps.json"
    code, _, _ = run(capsys, ["pass-swaps", "--scenario", scenario_path("swap.json"),
                              "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("swaps"))
    assert doc["swaps"] == pytest.approx(0.8509641908674247, rel=1e-12)


def test_visibility_identical_sources(capsys, tmp_path):
    out = tmp_path / "vis.json"
    code, _, _ = run(capsys, ["visibility", "--scenario", scenario_path("identical_165.json"),
                              "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("visibility"))
    assert doc["plateau_reliable"] is True
    assert doc["visibility"] == pytest.approx(0.9753996266532972, rel=1e-9)
    assert doc["inputs"] == json.loads(open(scenario_path("identical_165.json")).read())


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
    jsonschema.validate(doc, _schema("optresult"))
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


def test_fbg_fit_recovers_calibrated_model(capsys, tmp_path):
    from cwhom.presets import FILTER_SIGNAL_A

    out = tmp_path / "fit.json"
    code, stdout, _ = run(capsys, ["fbg", "fit", "--scenario", scenario_path("fbg_fit.json"),
                                   "--out", str(out)])
    assert code == 0
    meta = meta_of(stdout)
    assert meta["residual"] < 1e-6
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("fbg_model"))
    assert doc["peak_kappa"] == pytest.approx(FILTER_SIGNAL_A.peak_kappa, rel=5e-3)
    assert doc["length"] == FILTER_SIGNAL_A.length


def test_tags_simulate_count_roundtrip(capsys, tmp_path):
    sim = tmp_path / "sim.csv"
    code, stdout, _ = run(capsys, ["tags", "simulate", "--scenario",
                                   scenario_path("tags_demo.json"), "--out", str(sim)])
    assert code == 0
    meta = meta_of(stdout)
    assert meta["n_events"] > 1000
    first = sim.read_bytes()

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
    jsonschema.validate(doc, _schema("counts"))
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


def test_bundled_scenarios_validate():
    names = sorted(os.listdir(SCENARIOS))
    assert len(names) >= 8
    for name in names:
        doc = json.loads(open(os.path.join(SCENARIOS, name)).read())
        jsonschema.validate(doc, _schema("scenario"))


def test_schema_copies_in_sync():
    # the repo-level schema directory mirrors the packaged one
    names = sorted(os.listdir(SCHEMAS))
    pkg_dir = os.path.join(REPO, "src", "cwhom", "schemas")
    assert names == sorted(os.listdir(pkg_dir))
    for name in names:
        repo_bytes = open(os.path.join(SCHEMAS, name), "rb").read()
        pkg_bytes = open(os.path.join(pkg_dir, name), "rb").read()
        assert repo_bytes == pkg_bytes, name
