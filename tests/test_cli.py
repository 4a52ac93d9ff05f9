import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invarsets.cli import main
from invarsets.report import export_trajectory, load_scenario, run_scenario, scenario_trajectory
from invarsets import coincidence, flow_adaptive, invariance, jacobian, report, toda

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

EXPECTED_EXIT = {
    # exit 0 iff the verdict is pass; the negative control exits 1 by contract
    "kepler-offset-control.json": 1,
}


def _write(tmp_path, config):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_shipped_scenarios_exist():
    assert len(sorted(SCENARIO_DIR.glob("*.json"))) >= 10


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.name)
def test_exit_code_contract_over_shipped_scenarios(path, capsys):
    code = main(["run", str(path)])
    capsys.readouterr()
    assert code == EXPECTED_EXIT.get(path.name, 0)


def test_run_all_shipped_scenarios(capsys):
    code = main(["run-all", str(SCENARIO_DIR)])
    out = capsys.readouterr().out
    assert code == 0
    assert "12/12" in out or "matched their expected verdict" in out


def test_empty_set_config_is_a_config_error(tmp_path, capsys):
    config = {
        "label": "empty-set",
        "model": {"kind": "toda-periodic", "n": 4},
        "check": "set-persistence",
        "quantity": "I1",
        "initial_state": {"set_id": "M0_I1", "params": {}},
        "t_end": 1.0,
    }
    code = main(["run", _write(tmp_path, config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "provably empty" in err
    assert "never vanishes" in err


def test_unknown_model_names_valid_options(tmp_path, capsys):
    config = {"model": {"kind": "pendulum"}, "check": "drift", "quantity": "I1"}
    code = main(["run", _write(tmp_path, config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "kepler" in err and "toda-periodic" in err and "toda-nonperiodic" in err


def test_unknown_check_names_valid_options(tmp_path, capsys):
    config = {"model": {"kind": "kepler"}, "check": "frobnicate", "quantity": "H"}
    code = main(["run", _write(tmp_path, config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "rank-invariance" in err


def test_missing_file_is_a_config_error(capsys):
    code = main(["run", "no-such-file.json"])
    assert code == 2


def test_report_written_and_deterministic(tmp_path, capsys):
    path = SCENARIO_DIR / "toda-periodic-rank-pattern.json"
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", str(path), "--report", str(out1)]) == 0
    assert main(["run", str(path), "--report", str(out2)]) == 0
    capsys.readouterr()
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("elapsed_seconds")
    r2.pop("elapsed_seconds")
    assert r1 == r2
    assert r1["verdict"] == "pass"
    assert r1["evidence"]["ranks_seen"] == [2]


def test_tolerance_override_changes_outcome(tmp_path, capsys):
    # an absurdly tight deviation tolerance flips the coincidence verdict
    path = SCENARIO_DIR / "kepler-circular-coincidence.json"
    code = main(["run", str(path), "--tolerance", "deviation=1e-16"])
    capsys.readouterr()
    assert code == 1


def test_csv_export_shape_and_roundtrip(tmp_path, capsys):
    config = load_scenario(SCENARIO_DIR / "toda-periodic-rank-pattern.json")
    config["integ"]["sample_count"] = 11
    csv_path = tmp_path / "traj.csv"
    code = main(["run", _write(tmp_path, config), "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 12  # header + one row per sample
    header = lines[0].split(",")
    n, k = 4, 3
    assert len(header) == 1 + 2 * n + k + min(k, 2 * n)
    assert header[1:3] == ["X1", "X2"] and header[5] == "u1"
    assert header[9:12] == ["I1", "I2", "I3"]
    assert header[-1] == "sigma3"

    # the 17-significant-digit format reproduces the states bit-exactly
    system = toda.periodic_field(4)
    x0 = toda.explicit_set_sample("M2_I123", 4, config["initial_state"]["params"])
    traj = flow_adaptive(system, x0, config["t_end"], 1e-10, 1e-10, 11)
    for line, t, state in zip(lines[1:], traj.times, traj.states):
        cells = [float(c) for c in line.split(",")]
        assert cells[0] == t
        assert np.array_equal(np.array(cells[1:9]), state)


def test_export_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code = main(
        ["export", str(SCENARIO_DIR / "toda-periodic-drift.json"), "--csv", str(csv_path),
         "--sample-count", "5"]
    )
    capsys.readouterr()
    assert code == 0
    assert csv_path.exists()
    assert len(csv_path.read_text().strip().split("\n")) == 6


def test_export_kepler_header_names(tmp_path, capsys):
    csv_path = tmp_path / "kepler.csv"
    code = main(
        ["export", str(SCENARIO_DIR / "kepler-circular-coincidence.json"),
         "--csv", str(csv_path), "--sample-count", "3"]
    )
    capsys.readouterr()
    assert code == 0
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header == ["t", "x1", "x2", "y1", "y2", "H", "sigma1"]


def test_run_scenario_rejects_quantity_model_mismatch(tmp_path):
    config = {
        "label": "mismatch",
        "model": {"kind": "toda-periodic", "n": 4},
        "check": "drift",
        "quantity": "F1",
        "initial_state": [0.9, 0.4, 0.7, 1.1, 0.3, -0.5, 0.2, 0.4],
    }
    with pytest.raises(Exception, match="not available"):
        run_scenario(config)


def test_coincidence_on_lattice_model_is_a_config_error(tmp_path, capsys):
    config = {
        "label": "bad-pairing",
        "model": {"kind": "toda-periodic", "n": 4},
        "check": "coincidence",
        "quantity": "I1",
        "initial_state": [0.9, 0.4, 0.7, 1.1, 0.3, -0.5, 0.2, 0.4],
    }
    code = main(["run", _write(tmp_path, config)])
    capsys.readouterr()
    assert code == 2


def test_export_trajectory_rejects_bad_names(tmp_path):
    traj = flow_adaptive(toda.periodic_field(4), [0.9, 0.4, 0.7, 1.1, 0.3, -0.5, 0.2, 0.4], 1.0,
                         sample_count=3)
    with pytest.raises(Exception, match="component names"):
        export_trajectory(traj, toda.periodic_invariants(4), tmp_path / "x.csv", ("a", "b"))


@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_non_finite_t_end_exits_2_instead_of_hanging(tmp_path, t_end):
    config = load_scenario(SCENARIO_DIR / "toda-periodic-rank-pattern.json")
    config["t_end"] = t_end
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "invarsets.cli", "run", _write(tmp_path, config)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 2
    assert f"t_end must be a positive finite number, got {t_end}" in done.stderr


@pytest.mark.parametrize(
    "change,named",
    [
        ({"model": {"kind": "toda-periodic", "n": "abc"}}, '"model.n" must be an integer'),
        ({"model": {"kind": "toda-periodic", "n": 4.7}}, '"model.n" must be an integer, got 4.7'),
        ({"tolerances": "x"}, '"tolerances" must be an object'),
        ({"integ": "x"}, '"integ" must be an object'),
        ({"integ": {"sample_count": "many"}}, '"integ.sample_count" must be an integer'),
        ({"tolerances": {"conservation": "tight"}}, '"tolerances.conservation" must be a number'),
        ({"t_end": [1.0]}, '"t_end" must be a number'),
        ({"rank_tol": None}, '"rank_tol" must be a number'),
    ],
    ids=["model-n", "model-n-fraction", "tolerances", "integ", "sample-count", "tolerance-value", "t-end", "rank-tol"],
)
def test_malformed_config_types_are_config_errors(tmp_path, capsys, change, named):
    config = load_scenario(SCENARIO_DIR / "toda-periodic-rank-pattern.json")
    config.update(change)
    code = main(["run", _write(tmp_path, config)])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err


def test_malformed_tolerance_override_is_a_config_error(tmp_path, capsys):
    path = SCENARIO_DIR / "kepler-circular-coincidence.json"
    assert main(["run", str(path), "--tolerance", "deviation=abc"]) == 2
    assert "deviation" in capsys.readouterr().err
    config = load_scenario(path)
    config["tolerances"] = "x"
    assert main(["run", _write(tmp_path, config), "--tolerance", "deviation=1e-6"]) == 2
    assert '"tolerances" must be an object' in capsys.readouterr().err


def test_csv_sigma_columns_are_the_per_sample_singular_values(tmp_path, capsys):
    config = load_scenario(SCENARIO_DIR / "toda-periodic-rank-generic.json")
    config["integ"] = {"sample_count": 9}
    csv_path = tmp_path / "traj.csv"
    assert main(["run", _write(tmp_path, config), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    traj, quantity, _ = scenario_trajectory(config)
    for line, state in zip(csv_path.read_text().splitlines()[1:], traj.states):
        cells = [float(c) for c in line.split(",")]
        sigma = np.linalg.svd(jacobian(quantity, state), compute_uv=False)
        assert np.array_equal(cells[-quantity.k :], sigma)
        assert np.array_equal(cells[-2 * quantity.k : -quantity.k], quantity.values_at(state))


@pytest.mark.parametrize(
    "scenario,section,key,valid",
    [
        ("toda-periodic-drift.json", "tolerances", "drfit", "drift"),
        ("kepler-circular-coincidence.json", "tolerances", "devation", "deviation, hypothesis"),
        ("toda-periodic-vanishing-M0I3.json", "tolerances", "residual", "vanishing, conservation"),
        ("toda-periodic-henon-oracle.json", "tolerances", "drift", "value, gradient"),
        ("toda-periodic-rank-generic.json", "integ", "abs_tl", "abs_tol, rel_tol, sample_count"),
        ("toda-periodic-henon-oracle.json", "integ", "abs_tol", "none"),
    ],
    ids=["drift", "coincidence", "n-invariance", "oracle", "integ", "oracle-integ"],
)
def test_unknown_config_key_is_a_config_error(tmp_path, capsys, scenario, section, key, valid):
    # a misspelt key used to fall back to its default silently
    config = load_scenario(SCENARIO_DIR / scenario)
    config.setdefault(section, {})[key] = 1e-30
    assert main(["run", _write(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert f'unknown key "{section}.{key}"' in err
    assert f"valid {section} keys: {valid}" in err


def test_unknown_tolerance_override_is_a_config_error(capsys):
    path = SCENARIO_DIR / "toda-periodic-drift.json"
    assert main(["run", str(path), "--tolerance", "drfit=1e-30"]) == 2
    err = capsys.readouterr().err
    assert 'unknown key "tolerances.drfit" for the drift check' in err
    assert "valid tolerances keys: drift" in err
    assert main(["run", str(path), "--tolerance", "drift=1e-30"]) == 1  # the real key still bites
    capsys.readouterr()


def test_unknown_integ_key_in_export_is_a_config_error(tmp_path, capsys):
    config = load_scenario(SCENARIO_DIR / "toda-periodic-drift.json")
    config["integ"]["samples"] = 11
    code = main(["export", _write(tmp_path, config), "--csv", str(tmp_path / "x.csv")])
    assert code == 2
    assert 'unknown key "integ.samples"' in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def _count_flows(monkeypatch):
    calls = []
    for module in (invariance, coincidence, report):
        original = module.flow_adaptive

        def counted(*args, _flow=original, **kwargs):
            calls.append(1)
            return _flow(*args, **kwargs)

        monkeypatch.setattr(module, "flow_adaptive", counted)
    return calls


@pytest.mark.parametrize(
    "scenario,change,code,flows",
    [
        ("toda-periodic-rank-pattern.json", {}, 0, 1),
        ("kepler-circular-coincidence.json", {}, 0, 2),
        # a start off the family stops at the premise: only the export integrates
        ("toda-periodic-persist-M1I13.json", {"initial_state": [1.0] * 8, "set_id": "M1_I13"}, 1, 1),
    ],
    ids=["rank", "coincidence", "premise-failed"],
)
def test_run_csv_exports_the_checks_own_trajectory(
    tmp_path, capsys, monkeypatch, scenario, change, code, flows
):
    # the coincidence check integrates the F- and G-driven flows; --csv adds none
    config = load_scenario(SCENARIO_DIR / scenario)
    config.update(change)
    path = _write(tmp_path, config)
    calls = _count_flows(monkeypatch)
    assert main(["run", path, "--sample-count", "21", "--csv", str(tmp_path / "run.csv")]) == code
    assert len(calls) == flows
    assert main(["export", path, "--sample-count", "21", "--csv", str(tmp_path / "export.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "export.csv").read_bytes()


def test_run_csv_on_oracle_check_exits_2_before_any_report(tmp_path, capsys):
    path = SCENARIO_DIR / "toda-periodic-henon-oracle.json"
    argv = ["run", str(path), "--report", str(tmp_path / "r.json"), "--csv", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "integrates no trajectory" in captured.err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "scenario,change,flags,key",
    [
        ("toda-periodic-drift.json", {"t_ned": 1.0}, [], "t_ned"),
        ("toda-periodic-drift.json", {}, ["--rank-tol", "5"], "rank_tol"),
        ("toda-periodic-rank-pattern.json", {}, ["--seed", "3"], "seed"),
        ("toda-periodic-henon-oracle.json", {}, ["--t-end", "2"], "t_end"),
        ("kepler-circular-coincidence.json", {"order": 2}, [], "order"),
    ],
    ids=["misspelt-t-end", "rank-tol-on-drift", "seed-on-rank", "t-end-on-oracle", "order-on-coincidence"],
)
def test_unknown_top_level_key_is_a_config_error(tmp_path, capsys, scenario, change, flags, key):
    # a key the check does not read used to be ignored: "t_ned" ran with t_end 10
    config = load_scenario(SCENARIO_DIR / scenario)
    config.update(change)
    assert main(["run", _write(tmp_path, config)] + flags) == 2
    err = capsys.readouterr().err
    assert f'unknown key "{key}" for the {config["check"]} check' in err
    assert "valid top-level keys: label, check, model" in err


@pytest.mark.parametrize("quantity", ["A", None], ids=["other", "missing"])
def test_coincidence_reads_only_the_energy_quantity(tmp_path, capsys, quantity):
    config = load_scenario(SCENARIO_DIR / "kepler-circular-coincidence.json")
    config["quantity"] = quantity
    if quantity is None:
        del config["quantity"]
    assert main(["run", _write(tmp_path, config)]) == 2
    assert 'the coincidence check needs "quantity": "H"' in capsys.readouterr().err
