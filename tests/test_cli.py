import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invarsets.cli import main
from invarsets.report import export_trajectory, load_scenario, run_scenario, scenario_trajectory
from invarsets import ConservedQuantitySet, coincidence, flow_adaptive, invariance, jacobian, report, toda

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = sorted(SCENARIO_DIR.glob("*.json"))


def _write(tmp_path, config):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_shipped_scenarios_exist():
    assert len(SHIPPED) >= 10


def _strict_json(text):
    """json.loads that, like RFC 8259 parsers, rejects NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_exit_code_contract_over_shipped_scenarios(path, capsys):
    # exit 0 iff the verdict is pass, so a negative control exits 1; the
    # printed report is strict JSON, whatever the verdict
    expected = 0 if load_scenario(path).get("expected_verdict", "pass") == "pass" else 1
    code = main(["run", str(path)])
    _strict_json(capsys.readouterr().out)
    assert code == expected


def test_failed_off_set_coincidence_report_is_strict_json(tmp_path, capsys):
    # radial free fall off the agreement set: the F-driven flow hits the
    # Kepler singularity, so deviation and drift are never measured
    config = {
        "label": "kepler-radial-fall", "model": {"kind": "kepler", "a": 1.0},
        "check": "coincidence", "quantity": "H",
        "initial_state": [1.0, 0.0, -1.0, 0.0], "t_end": 3.0,
    }
    code = main(["run", _write(tmp_path, config)])
    report = _strict_json(capsys.readouterr().out)
    assert code == 1 and report["verdict"] == "hypothesis-error"
    assert "integration additionally failed" in report["evidence"]["message"]
    for key in ("difference_drift", "max_deviation", "max_deviation_time"):
        assert report["evidence"][key] is None


def test_run_all_shipped_scenarios(capsys):
    code = main(["run-all", str(SCENARIO_DIR)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"{len(SHIPPED)}/{len(SHIPPED)} scenarios matched their expected verdict" in out


def test_every_check_has_a_shipped_scenario():
    shipped = {load_scenario(path)["check"] for path in SHIPPED}
    assert shipped == set(report._CHECKS)


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


def _run_cli(tmp_path, config, *python_flags):
    """``invarsets run`` on ``config`` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "invarsets.cli", "run", _write(tmp_path, config)],
        env=env, capture_output=True, text=True, timeout=30,
    )


@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_non_finite_t_end_exits_2_instead_of_hanging(tmp_path, t_end):
    config = load_scenario(SCENARIO_DIR / "toda-periodic-rank-pattern.json")
    config["t_end"] = t_end
    done = _run_cli(tmp_path, config)
    assert done.returncode == 2
    assert f"t_end must be a positive finite number, got {t_end}" in done.stderr


def _kepler_drift(start):
    return {
        "model": {"kind": "kepler"}, "check": "drift", "quantity": "HA",
        "initial_state": start, "t_end": 1,
    }


def test_overflowing_initial_step_norm_ends_without_a_traceback(tmp_path):
    # |f0 / scale| overflows in the initial-step heuristic's norm, and |x|^3
    # in the Kepler field: a pass, even with every RuntimeWarning an error
    done = _run_cli(tmp_path, _kepler_drift([1e100, 0, 0, 1e150]), "-W", "error::RuntimeWarning")
    assert done.returncode == 0, done.stderr
    assert _strict_json(done.stdout)["verdict"] == "pass"


def test_underflowing_kepler_radius_is_a_numeric_error_without_a_traceback(tmp_path):
    # |x|^3 underflows to zero: the field is singular there, not divided by zero
    done = _run_cli(tmp_path, _kepler_drift([1e-110, 0, 0, 1]), "-W", "error::RuntimeWarning")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "Kepler field is singular at the origin (|x|^3 is zero or underflows)" in done.stderr


@pytest.mark.parametrize(
    "start",
    [
        [1e160, 0, 0, 1e-80],  # the norms that scale the premise tolerances overflow
        pytest.param(
            # the stepper's trial stages overflow, and numpy warns of it
            [1.5e308, 0, 1.5e308, 0],
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning:invarsets.integrate"),
        ),
    ],
    ids=["norm-overflows", "stage-overflows"],
)
def test_far_out_coincidence_start_is_a_hypothesis_error(tmp_path, capsys, start):
    config = {
        "model": {"kind": "kepler", "a": 1.0}, "check": "coincidence", "quantity": "H",
        "initial_state": start, "t_end": 1,
    }
    code = main(["run", _write(tmp_path, config)])
    report = _strict_json(capsys.readouterr().out)
    assert code == 1 and report["verdict"] == "hypothesis-error"
    assert "start is off the agreement set" in report["evidence"]["message"]


def test_printed_report_and_report_file_hold_the_same_bytes(tmp_path, capsys, monkeypatch):
    serialized = []
    to_json = report.RunReport.to_json

    def counted(self):
        serialized.append(self)
        return to_json(self)

    monkeypatch.setattr(report.RunReport, "to_json", counted)
    out = tmp_path / "report.json"
    main(["run", str(SCENARIO_DIR / "kepler-circular-coincidence.json"), "--report", str(out)])
    assert capsys.readouterr().out.encode() == out.read_bytes()
    assert len(serialized) == 1


RANK = "toda-periodic-rank-pattern.json"
ORACLE = "toda-periodic-henon-oracle.json"
DRIFT = "toda-periodic-drift.json"
KEPLER = "kepler-circular-coincidence.json"
GENERIC = "toda-periodic-rank-generic.json"
CRITICAL = "toda-periodic-critical-pattern.json"


@pytest.mark.parametrize(
    "scenario,change,flags,named",
    [
        (RANK, {"model": {"kind": "toda-periodic", "n": "abc"}}, [], '"model.n" must be an integer'),
        (RANK, {"model": {"kind": "toda-periodic", "n": 4.7}}, [], '"model.n" must be an integer, got 4.7'),
        (RANK, {"tolerances": "x"}, [], '"tolerances" must be an object'),
        (RANK, {"integ": "x"}, [], '"integ" must be an object'),
        (RANK, {"integ": {"sample_count": "many"}}, [], '"integ.sample_count" must be an integer'),
        (RANK, {"tolerances": {"conservation": "tight"}}, [], '"tolerances.conservation" must be a number'),
        (RANK, {"t_end": [1.0]}, [], '"t_end" must be a number'),
        (RANK, {"rank_tol": None}, [], '"rank_tol" must be a number'),
        (RANK, {"check": ["drift"]}, [], "unknown check '['drift']'; valid checks: rank-invariance"),
        (RANK, {"model": {"kind": {}}}, [], "unknown model '{}'; valid models: kepler"),
        # these passed with no sample checked, failed, or raised a traceback
        (ORACLE, {"samples": 0}, [], '"samples" must be at least 1, got 0'),
        (ORACLE, {"samples": -5}, [], '"samples" must be at least 1, got -5'),
        (ORACLE, {"seed": -1}, [], '"seed" must be at least 0, got -1'),
        (DRIFT, {"tolerances": {"drift": -1}}, [], '"tolerances.drift" must be positive and finite, got -1.0'),
        (KEPLER, {"tolerances": {"deviation": float("nan")}}, [], '"tolerances.deviation" must be positive and finite, got nan'),
        (DRIFT, {}, ["--tolerance", "drift=-1"], '"tolerances.drift" must be positive and finite, got -1.0'),
        (KEPLER, {}, ["--tolerance", "deviation=nan"], '"tolerances.deviation" must be positive and finite, got nan'),
        (RANK, {"model": {"kind": "toda-periodic", "n": float("inf")}}, [], '"model.n" must be an integer, got inf'),
        (RANK, {"initial_state": {"set_id": ["M2_I123"]}}, [], '"initial_state.set_id" must be a string'),
        # these were reported as the library's rel_tol, which reads as integ.rel_tol
        (GENERIC, {"rank_tol": 0}, [], '"rank_tol" must lie in (0, 1), got 0.0'),
        (GENERIC, {"rank_tol": 1.5}, [], '"rank_tol" must lie in (0, 1), got 1.5'),
        (GENERIC, {"rank_tol": float("nan")}, [], '"rank_tol" must lie in (0, 1), got nan'),
        (GENERIC, {}, ["--rank-tol", "0"], '"rank_tol" must lie in (0, 1), got 0.0'),
        (CRITICAL, {"rank_tol": 1.0}, [], '"rank_tol" must lie in (0, 1), got 1.0'),
        # these ended in a traceback
        (RANK, {"model": {"kind": "toda-periodic", "n": 10**30}}, [], '"model.n" must be at most 256'),
        (RANK, {"integ": {"sample_count": 1e30}}, [], '"integ.sample_count" must be at most 10001'),
        (ORACLE, {"samples": 10**12}, [], '"samples" must be at most 10000'),
        (KEPLER, {"model": {"kind": "kepler", "a": 1e200}}, [], '"model.a" must be positive, with a^3'),
        (KEPLER, {"model": {"kind": "kepler", "a": 1e-200}}, [], '"model.a" must be positive, with a^3'),
        (KEPLER, {"initial_state": {"circular": {"a": 1e-200}}}, [], '"initial_state.circular.a" must be'),
    ],
    ids=[
        "model-n", "model-n-fraction", "tolerances", "integ", "sample-count", "tolerance-value", "t-end",
        "rank-tol", "check-list", "model-kind-object", "samples-zero", "samples-negative",
        "seed-negative", "tolerance-negative", "tolerance-nan", "tolerance-flag-negative",
        "tolerance-flag-nan", "model-n-inf", "set-id-list", "rank-tol-zero", "rank-tol-above-one",
        "rank-tol-nan", "rank-tol-flag-zero", "critical-rank-tol-one", "model-n-huge", "sample-count-huge",
        "samples-huge", "model-a-huge", "model-a-tiny", "circular-a-tiny",
    ],
)
def test_malformed_config_types_are_config_errors(tmp_path, capsys, scenario, change, flags, named):
    config = load_scenario(SCENARIO_DIR / scenario)
    config.update(change)
    code = main(["run", _write(tmp_path, config)] + flags)
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
        ("toda-periodic-rank-pattern.json", "model", "N", "kind, n"),
        ("kepler-circular-coincidence.json", "initial_state.circular", "radius", "a, theta"),
        ("toda-periodic-drift.json", "initial_state.random", "sed", "seed, scale"),
        # a second start form used to lose silently to the first
        ("toda-periodic-rank-pattern.json", "initial_state", "circular", "set_id, params"),
    ],
    ids=[
        "drift", "coincidence", "n-invariance", "oracle", "integ", "oracle-integ", "model",
        "circular", "random", "two-start-forms",
    ],
)
def test_unknown_config_key_is_a_config_error(tmp_path, capsys, scenario, section, key, valid):
    # a misspelt key used to fall back to its default silently
    config = load_scenario(SCENARIO_DIR / scenario)
    target = config
    for part in section.split("."):  # a vector start becomes an empty object
        if not isinstance(target.get(part), dict):
            target[part] = {}
        target = target[part]
    target[key] = 1e-30
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
        # without t_end both run to the check's own horizon, one period 2*pi*a^3
        ("kepler-circular-coincidence-a15.json", {"t_end": None}, 0, 2),
    ],
    ids=["rank", "coincidence", "premise-failed", "coincidence-default-horizon"],
)
def test_run_csv_exports_the_checks_own_trajectory(
    tmp_path, capsys, monkeypatch, scenario, change, code, flows
):
    # the coincidence check integrates the F- and G-driven flows; --csv adds none
    config = load_scenario(SCENARIO_DIR / scenario)
    config.update(change)
    config = {key: value for key, value in config.items() if value is not None}
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


def test_set_persistence_quantity_must_be_the_sets_own_stack(tmp_path, capsys):
    # the check certifies set M1_I13 for the stack I1, I3; "I2" used to pass unnoticed
    config = load_scenario(SCENARIO_DIR / "toda-periodic-persist-M1I13.json")
    config["quantity"] = "I2"
    assert main(["run", _write(tmp_path, config)]) == 2
    assert 'set M1_I13 is a level set of I1, I3, but "quantity" selects I2' in capsys.readouterr().err


def _oracle_loop(kind, n, seed, samples):
    """The per-sample oracle scan the stacked one replaced: one state drawn
    and every reference evaluated at it, sample after sample."""
    rng = np.random.default_rng(seed)
    refs = []
    if kind == "toda-periodic":
        dim, lax = 2 * n, None
        for m in (1, 2, 3):
            enum = toda.henon_invariant_oracle(n, m)
            refs.append((toda.henon_closed_form(n, m), lambda z, _e=enum: _e.values_at(z)[0], enum))
    else:
        dim, lax = 2 * n - 1, toda.lax_commutator_residual
        for k in (1, 2, 3):
            q = toda.flaschka_invariant(n, k)
            fd = ConservedQuantitySet(dim, 1, q.value, q.labels)
            refs.append((q, lambda z, _k=k: toda.trace_invariant_value(n, _k, z), fd))
    worst_value = worst_gradient = worst_lax = 0.0
    for _ in range(samples):
        z = rng.standard_normal(dim)
        for closed, value, fd_quantity in refs:
            a = float(closed.values_at(z)[0])
            worst_value = max(worst_value, abs(a - float(value(z))) / max(1.0, abs(a)))
            g, fd = jacobian(closed, z), jacobian(fd_quantity, z)
            scale = max(1.0, float(np.max(np.abs(g))))
            worst_gradient = max(worst_gradient, float(np.max(np.abs(g - fd))) / scale)
        if lax is not None:
            worst_lax = max(worst_lax, lax(n, z))
    return worst_value, worst_gradient, worst_lax


@pytest.mark.parametrize(
    "scenario,n,seed,samples",
    [
        ("toda-periodic-henon-oracle.json", 5, 20240901, 100),
        ("toda-periodic-henon-oracle.json", 4, 7, 13),
        ("toda-nonperiodic-flaschka-oracle.json", 4, 20240901, 100),
        ("toda-nonperiodic-flaschka-oracle.json", 5, 7, 13),
    ],
)
def test_stacked_oracle_evidence_equals_the_per_sample_loop(scenario, n, seed, samples):
    config = load_scenario(SCENARIO_DIR / scenario)
    config.update(seed=seed, samples=samples)
    config["model"]["n"] = n
    evidence = run_scenario(config).evidence
    found = (evidence["max_value_mismatch"], evidence["max_gradient_mismatch"], evidence["max_lax_residual"])
    assert found == _oracle_loop(config["model"]["kind"], n, seed, samples)
