import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invarsets.cli import main
from invarsets.report import export_trajectory, load_scenario, run_scenario
from invarsets import ConservedQuantitySet, IntegratorSettings, flow_adaptive, integrate
from invarsets import invariance, jacobians, rank_levels, report, toda
from invarsets.core import PREMISE_TOL

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


def test_tight_tolerance_changes_outcome(tmp_path, capsys):
    # an absurdly tight deviation tolerance flips the coincidence verdict
    config = load_scenario(SCENARIO_DIR / "kepler-circular-coincidence.json")
    config["tolerances"]["deviation"] = 1e-16
    code = main(["run", _write(tmp_path, config)])
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
    traj = flow_adaptive(system, x0, config["t_end"], integ=IntegratorSettings(tol=1e-10, sample_count=11))
    for line, t, state in zip(lines[1:], traj.times, traj.states):
        cells = [float(c) for c in line.split(",")]
        assert cells[0] == t
        assert np.array_equal(np.array(cells[1:9]), state)


def test_export_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    config = load_scenario(SCENARIO_DIR / "toda-periodic-drift.json")
    config["integ"]["sample_count"] = 5
    code = main(["run", _write(tmp_path, config), "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    assert csv_path.exists()
    assert len(csv_path.read_text().strip().split("\n")) == 6


def test_export_kepler_header_names(tmp_path, capsys):
    csv_path = tmp_path / "kepler.csv"
    config = load_scenario(SCENARIO_DIR / "kepler-circular-coincidence.json")
    config["integ"]["sample_count"] = 3
    code = main(["run", _write(tmp_path, config), "--csv", str(csv_path)])
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
    traj = flow_adaptive(
        toda.periodic_field(4), [0.9, 0.4, 0.7, 1.1, 0.3, -0.5, 0.2, 0.4], 1.0,
        integ=IntegratorSettings(sample_count=3),
    )
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


@pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
def test_non_finite_t_end_exits_2_instead_of_hanging(tmp_path, t_end):
    # JSON's NaN and Infinity; the strings "nan" and "inf" are not numbers
    config = load_scenario(SCENARIO_DIR / "toda-periodic-rank-pattern.json")
    config["t_end"] = t_end
    done = _run_cli(tmp_path, config)
    assert done.returncode == 2
    assert f"t_end must be a positive finite number, got {t_end}" in done.stderr
    config["t_end"] = str(t_end)
    done = _run_cli(tmp_path, config)
    assert done.returncode == 2
    assert f"\"t_end\" must be a number, got '{t_end}'" in done.stderr


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


# |x|^3 underflows at a radial start (A = 0), which the exact flow leaves to the stepper
RADIAL_TINY = [1e-110, 0, 1, 0]


def test_underflowing_kepler_radius_is_a_numeric_error_without_a_traceback(tmp_path):
    # |x|^3 underflows to zero: the field is singular there, not divided by
    # zero, and the failed integration is reported as a broken premise
    done = _run_cli(tmp_path, _kepler_drift(RADIAL_TINY), "-W", "error::RuntimeWarning")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    report = _strict_json(done.stdout)
    assert report["verdict"] == "hypothesis-error"
    assert "Kepler field is singular at the origin (|x|^3 is zero or underflows)" in report["evidence"]["message"]


def test_failed_integration_is_a_hypothesis_error_report(tmp_path, capsys):
    code = main(["run", _write(tmp_path, _kepler_drift(RADIAL_TINY))])
    out, err = capsys.readouterr()
    report = _strict_json(out)
    assert code == 1 and err == ""
    assert report["verdict"] == "hypothesis-error"
    assert report["evidence"]["last_sample_time"] == 0.0
    message = report["evidence"]["message"]
    assert message.startswith("integration stopped before t_end=1: last sample time reached 0; ")
    assert "field evaluation failed during integration: Kepler field is singular" in message


def test_failed_integration_with_csv_prints_the_report_and_writes_no_csv(tmp_path, capsys, monkeypatch):
    csv_path, report_path = tmp_path / "x.csv", tmp_path / "r.json"
    calls = _count_flows(monkeypatch)
    argv = ["run", _write(tmp_path, _kepler_drift(RADIAL_TINY)), "--csv", str(csv_path),
            "--report", str(report_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    report = _strict_json(out)
    assert report["verdict"] == "hypothesis-error"
    assert _strict_json(report_path.read_text()) == report
    assert len(calls) == 1  # the check's own, failed integration; --csv repeats none
    assert not csv_path.exists()
    assert "no CSV written: the check integrated no trajectory (hypothesis-error)" in err


def test_failed_integration_does_not_abort_run_all(tmp_path, capsys):
    (tmp_path / "a-singular.json").write_text(json.dumps(_kepler_drift(RADIAL_TINY)))
    shutil.copy(SCENARIO_DIR / "toda-periodic-drift.json", tmp_path / "b-drift.json")
    assert main(["run-all", str(tmp_path), "--report-dir", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[:5] == ["a-singular.json", "drift", "hypothesis-error", "pass", "NO"]
    assert lines[2].split()[2:] == ["pass", "pass", "yes"]
    assert lines[-1] == "1/2 scenarios matched their expected verdict"
    report = _strict_json((tmp_path / "out" / "a-singular.report.json").read_text())
    assert report["verdict"] == "hypothesis-error"


def test_stage_overflow_under_strict_warnings_is_a_report_not_a_traceback(tmp_path):
    # the stepper's stage sums overflow for this start; numpy's warning of it
    # must not end the run when every RuntimeWarning is an error
    config = {
        "model": {"kind": "kepler", "a": 1.0}, "check": "coincidence", "quantity": "H",
        "initial_state": [1.5e308, 0, 1.5e308, 0], "t_end": 1,
    }
    done = _run_cli(tmp_path, config, "-W", "error::RuntimeWarning")
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert _strict_json(done.stdout)["verdict"] == "hypothesis-error"


NO_AGREEMENT_TOLERANCE = "the agreement premise has no finite tolerance at the start: 1.0e-08 * |x| overflows"
NO_SCAN_TOLERANCE = "F-G has no finite tolerance along the first flow: 1.0e-08 * |x| overflows"


@pytest.mark.parametrize(
    "a,start,t_end,message",
    [
        # the norms that scale the premise tolerances overflow
        (1.0, [1e160, 0, 0, 1e-80], 1, NO_AGREEMENT_TOLERANCE + "; " + NO_SCAN_TOLERANCE),
        (1.0, [1e200, 1e200, 1e-200, 0], 1, NO_AGREEMENT_TOLERANCE + "; " + NO_SCAN_TOLERANCE),
        # on the agreement set (residual 1.6e-117), with |x| = 1e200
        (1e100, {"circular": {"a": 1e100, "theta": 0.1}}, 1, NO_AGREEMENT_TOLERANCE + "; " + NO_SCAN_TOLERANCE),
        # the stepper's trial stages overflow
        (1.0, [1.5e308, 0, 1.5e308, 0], 1, NO_AGREEMENT_TOLERANCE + "; integration additionally failed: "),
        # a finite scale at the start, but not along the flow
        (1.0, [1e150, 0, 1e152, 0], 300, "start is off the agreement set (residual 1.000e+152); " + NO_SCAN_TOLERANCE),
    ],
    ids=["norm-overflows", "norm-overflows-2", "on-set-norm-overflows", "stage-overflows", "flow-norm-overflows"],
)
def test_far_out_coincidence_start_is_a_hypothesis_error(tmp_path, capsys, a, start, t_end, message):
    config = {
        "model": {"kind": "kepler", "a": a}, "check": "coincidence", "quantity": "H",
        "initial_state": start, "t_end": t_end,
    }
    code = main(["run", _write(tmp_path, config)])
    report = _strict_json(capsys.readouterr().out)
    assert code == 1 and report["verdict"] == "hypothesis-error"
    assert report["evidence"]["message"].startswith(message)


STRICT = ("-W", "error::RuntimeWarning")
TODA_FAR_OUT = [1e160, 0, 0, 0, 0, 0, 0, 0]  # X1 ** 2 overflows


@pytest.mark.parametrize("flags", [(), STRICT], ids=["default-warnings", "strict-warnings"])
@pytest.mark.parametrize(
    "model,check,quantity,start",
    [
        ({"kind": "kepler"}, "rank-invariance", "H", [1e200, 0, 0, 1e-200]),
        ({"kind": "toda-periodic", "n": 4}, "critical-invariance", "I123", TODA_FAR_OUT),
        ({"kind": "toda-periodic", "n": 4}, "n-invariance", "I3", TODA_FAR_OUT),
    ],
    ids=["kepler-rank", "toda-critical", "toda-n"],
)
def test_start_whose_norm_overflows_fails_the_conservation_premise(tmp_path, flags, model, check, quantity, start):
    # no tolerance scaled by |x| is finite, so the premise fails at once
    config = {"model": model, "check": check, "quantity": quantity, "initial_state": start, "t_end": 1}
    done = _run_cli(tmp_path, config, *flags)
    assert done.returncode == 1 and "Traceback" not in done.stderr, done.stderr
    report = _strict_json(done.stdout)
    assert report["verdict"] == "hypothesis-error"
    assert report["evidence"]["message"].endswith("has no finite tolerance at the start: 1.0e-08 * |x| overflows")


@pytest.mark.parametrize("flags", [(), STRICT], ids=["default-warnings", "strict-warnings"])
@pytest.mark.parametrize("check", ["rank-invariance", "critical-invariance", "n-invariance", "coincidence"])
def test_numeric_failure_at_a_premise_is_a_hypothesis_error_report(tmp_path, flags, check):
    # the Kepler field and the energy gradient are singular at q = 0
    config = {"model": {"kind": "kepler"}, "check": check, "quantity": "H", "initial_state": [0, 0, 1, 0]}
    done = _run_cli(tmp_path, config, *flags)
    assert done.returncode == 1 and done.stderr == ""
    report = _strict_json(done.stdout)
    assert report["verdict"] == "hypothesis-error"
    message = report["evidence"]["message"]
    assert message.startswith("a numeric failure stopped the check: ")
    assert "is singular at the origin (|x|^3 is zero or underflows)" in message


def test_numeric_failure_with_csv_prints_the_report_and_writes_no_csv(tmp_path, capsys):
    config = {"model": {"kind": "kepler"}, "check": "rank-invariance", "quantity": "H", "initial_state": [0, 0, 1, 0]}
    csv_path = tmp_path / "x.csv"
    assert main(["run", _write(tmp_path, config), "--csv", str(csv_path)]) == 1
    out, err = capsys.readouterr()
    assert _strict_json(out)["verdict"] == "hypothesis-error"
    assert not csv_path.exists()
    assert err == "no CSV written: the check integrated no trajectory (hypothesis-error)\n"


def test_spent_step_budget_is_a_hypothesis_error_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_ATTEMPTS", 2)
    # a radial start (A = 0), which the exact flow leaves to the stepper
    assert main(["run", _write(tmp_path, _kepler_drift([0.0, 1.1, 0.0, 0.9]))]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["verdict"] == "hypothesis-error"
    message = report["evidence"]["message"]
    assert message.startswith("integration stopped before t_end=1: last sample time reached ")
    assert message.endswith(
        "the step budget of 2 attempts is spent (steps too short for the horizon: a fast oscillation?)"
    )


def test_bounded_flow_past_its_step_budget_is_not_worded_as_a_flow_that_does_not_exist(tmp_path, capsys):
    # the periodic lattice's flow exists for all time; at t_end 1e308 the
    # budget's projection stops the stepper, and the message says that
    config = {**json.loads((SCENARIO_DIR / "toda-periodic-drift.json").read_text()), "t_end": 1e308}
    assert main(["run", _write(tmp_path, config)]) == 1
    message = _strict_json(capsys.readouterr().out)["evidence"]["message"]
    assert message.startswith("integration stopped before t_end=1e+308: last sample time reached 0; ")
    assert message.endswith("a pace that projects over 10 times the step budget of 100000 attempts")
    assert "does not exist" not in message


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
VANISHING = "toda-periodic-vanishing-M0I3.json"
FLASCHKA = "toda-nonperiodic-flaschka-oracle.json"


@pytest.mark.parametrize(
    "scenario,change,named",
    [
        (RANK, {"model": {"kind": "toda-periodic", "n": "abc"}}, '"model.n" must be an integer'),
        (RANK, {"model": {"kind": "toda-periodic", "n": 4.7}}, '"model.n" must be an integer, got 4.7'),
        (RANK, {"tolerances": "x"}, '"tolerances" must be an object'),
        (RANK, {"integ": "x"}, '"integ" must be an object'),
        (RANK, {"integ": {"sample_count": "many"}}, '"integ.sample_count" must be an integer'),
        (RANK, {"tolerances": {"rank": "tight"}}, '"tolerances.rank" must be a number'),
        (RANK, {"t_end": [1.0]}, '"t_end" must be a number'),
        (RANK, {"tolerances": {"rank": None}}, '"tolerances.rank" must be a number'),
        (RANK, {"check": ["drift"]}, "unknown check '['drift']'; valid checks: rank-invariance"),
        (RANK, {"model": {"kind": {}}}, "unknown model '{}'; valid models: kepler"),
        # these passed with no sample checked, failed, or raised a traceback
        (ORACLE, {"samples": 0}, '"samples" must be at least 1, got 0'),
        (ORACLE, {"samples": -5}, '"samples" must be at least 1, got -5'),
        (ORACLE, {"seed": -1}, '"seed" must be at least 0, got -1'),
        (DRIFT, {"tolerances": {"drift": -1}}, '"tolerances.drift" must be positive and finite, got -1.0'),
        (KEPLER, {"tolerances": {"deviation": float("nan")}}, '"tolerances.deviation" must be positive and finite, got nan'),
        (RANK, {"model": {"kind": "toda-periodic", "n": float("inf")}}, '"model.n" must be an integer, got inf'),
        (RANK, {"initial_state": {"set_id": ["M2_I123"]}}, '"initial_state.set_id" must be a string'),
        # these were reported as the library's rel_tol (now tol), which read as integ.rel_tol
        (GENERIC, {"tolerances": {"rank": 0}}, '"tolerances.rank" must lie in (0, 1), got 0.0'),
        (GENERIC, {"tolerances": {"rank": 1.5}}, '"tolerances.rank" must lie in (0, 1), got 1.5'),
        (GENERIC, {"tolerances": {"rank": float("nan")}}, '"tolerances.rank" must lie in (0, 1), got nan'),
        (CRITICAL, {"tolerances": {"rank": 1.0}}, '"tolerances.rank" must lie in (0, 1), got 1.0'),
        # these ended in a traceback
        (RANK, {"model": {"kind": "toda-periodic", "n": 10**30}}, '"model.n" must be at most 256'),
        (RANK, {"integ": {"sample_count": 1e30}}, '"integ.sample_count" must be at most 10001'),
        (ORACLE, {"samples": 10**12}, '"samples" must be at most 10000'),
        (KEPLER, {"model": {"kind": "kepler", "a": 1e200}}, '"model.a" must be positive, with a^3'),
        (KEPLER, {"model": {"kind": "kepler", "a": 1e-200}}, '"model.a" must be positive, with a^3'),
        (KEPLER, {"initial_state": {"circular": {"a": 1e-200}}}, '"initial_state.circular.a" must be'),
        # a JSON true passed as 1: the drift gate loosened 10^8-fold, t_end 1, a = 1, one sample
        (DRIFT, {"tolerances": {"drift": True}}, '"tolerances.drift" must be a number, got True'),
        (DRIFT, {"t_end": True}, '"t_end" must be a number, got True'),
        (KEPLER, {"model": {"kind": "kepler", "a": True}}, '"model.a" must be a number, got True'),
        (ORACLE, {"samples": True}, '"samples" must be an integer, got True'),
        (
            RANK, {"initial_state": {"set_id": "M2_I123", "params": {"X1": True, "X2": 0.7, "u1": 0.5, "u2": -0.2}}},
            '"initial_state.params.X1" must be a number, got True',
        ),
        (
            DRIFT, {"initial_state": [True, 0.4, 0.7, 1.1, 0.3, -0.5, 0.2, 0.4]},
            '"initial_state" component 0 must be a number, got True',
        ),
        # admitted by the bounds on n and samples, these would run for hours
        # (n=256 at order 3) or ask for ~26 GB (n=256 free-end, 10,000 samples);
        # the cases sit just past the bounds on partials and on samples * n^2
        (
            VANISHING, {"model": {"kind": "toda-periodic", "n": 16}, "order": 3},
            "order 3 on dimension 32 needs 6544 partials per state",
        ),
        (
            FLASCHKA, {"model": {"kind": "toda-nonperiodic", "n": 128}, "samples": 300},
            '"samples" * "model.n"^2 must be at most 4194304 on the free-end lattice',
        ),
        # finite parameters whose sample overflows: an OverflowError traceback, and
        # a -inf entry reported only as "state has a non-finite entry at component 1"
        (
            RANK, {"initial_state": {"set_id": "M1_I23", "params": {"X1": 1e300, "u1": 1e300, "u2": 0.2}}},
            "sample of M1_I23 with parameters {'X1': 1e+300, 'u1': 1e+300, 'u2': 0.2} is not a finite state",
        ),
        (
            RANK, {"initial_state": {"set_id": "M0_I3", "params": {"X1": 0.5, "u": 1e200}}},
            "sample of M0_I3 with parameters {'X1': 0.5, 'u': 1e+200} is not a finite state",
        ),
        # JSON's Infinity: a traceback from np.sin under strict warnings, or a
        # non-finite state reported without the key
        (
            KEPLER, {"initial_state": {"circular": {"a": 1.0, "theta": float("inf")}}},
            '"initial_state.circular.theta" must be finite, got inf',
        ),
        (DRIFT, {"initial_state": {"random": {"scale": float("inf")}}}, '"initial_state.random.scale" must be finite, got inf'),
        # a finite scale whose product overflows: a traceback under strict warnings
        (
            DRIFT, {"initial_state": {"random": {"seed": 2, "scale": 1e308}}},
            '"initial_state.random.scale" overflows the state, got 1e+308',
        ),
        (
            RANK, {"initial_state": {"set_id": "M2_I123", "params": {"X1": float("nan"), "X2": 0.7, "u1": 0.5, "u2": -0.2}}},
            '"initial_state.params.X1" must be finite, got nan',
        ),
        # the integrator settings' own range checks, named in their section
        (RANK, {"integ": {"tol": 0}}, '"integ.tol" must lie in [2.22e-14, 1e-2], got 0.0'),
        (RANK, {"integ": {"tol": 0.1}}, '"integ.tol" must lie in [2.22e-14, 1e-2], got 0.1'),
        # below 100 machine epsilons the stepper raised the tolerance silently
        (RANK, {"integ": {"tol": 1e-14}}, '"integ.tol" must lie in [2.22e-14, 1e-2], got 1e-14'),
        (RANK, {"integ": {"sample_count": 1}}, '"integ.sample_count" must be an integer >= 2, got 1'),
        # a raw ValueError or TypeError traceback, or (null) a message without the key
        (DRIFT, {"initial_state": [[1, 2], 1, 2, 0, 0, 0, 0, 0]}, '"initial_state" component 0 must be a number, got [1, 2]'),
        (DRIFT, {"initial_state": [0.1, {"a": 1}, 0, 0, 0, 0, 0, 0]}, "component 1 must be a number, got {'a': 1}"),
        (DRIFT, {"initial_state": ["x", 0, 0, 0, 0, 0, 0, 0]}, '"initial_state" component 0 must be a number, got \'x\''),
        (DRIFT, {"initial_state": [0, 0, None, 0, 0, 0, 0, 0]}, '"initial_state" component 2 must be a number, got None'),
        (DRIFT, {"initial_state": [0, 10**400, 0, 0, 0, 0, 0, 0]}, '"initial_state" component 1 must be finite, got 1000'),
        (DRIFT, {"initial_state": [0, 0, 0, float("-inf"), 0, 0, 0, 0]}, '"initial_state" component 3 must be finite, got -inf'),
        # JSON strings were read as the numbers they spell, and echoed as strings
        (DRIFT, {"initial_state": ["1", 0, 0, 0, 0, 0, 0, 0]}, '"initial_state" component 0 must be a number, got \'1\''),
        (DRIFT, {"t_end": "1e1"}, '"t_end" must be a number, got \'1e1\''),
        (RANK, {"integ": {"sample_count": "401"}}, '"integ.sample_count" must be an integer, got \'401\''),
        (DRIFT, {"tolerances": {"drift": "1e-8"}}, '"tolerances.drift" must be a number, got \'1e-8\''),
        (KEPLER, {"model": {"kind": "kepler", "a": "1"}}, '"model.a" must be a number, got \'1\''),
        (ORACLE, {"samples": "5"}, '"samples" must be an integer, got \'5\''),
        # the descriptive keys were read with no kind: a list label ran, and
        # run-all counted an expected_verdict of 5 as a mismatch
        (DRIFT, {"label": [1]}, '"label" must be a string, got [1]'),
        (DRIFT, {"label": None}, '"label" must be a string, got None'),
        (DRIFT, {"claim": {"a": 1}}, '"claim" must be a string, got {\'a\': 1}'),
        (DRIFT, {"expected_verdict": 5}, '"expected_verdict" must be a string, got 5'),
        (
            DRIFT, {"expected_verdict": "passed"},
            '"expected_verdict" must be one of pass, fail, borderline, hypothesis-error, got \'passed\'',
        ),
    ],
    ids=[
        "model-n", "model-n-fraction", "tolerances", "integ", "sample-count", "tolerance-value", "t-end",
        "rank-tol", "check-list", "model-kind-object", "samples-zero", "samples-negative",
        "seed-negative", "tolerance-negative", "tolerance-nan", "model-n-inf", "set-id-list", "rank-tol-zero", "rank-tol-above-one",
        "rank-tol-nan", "critical-rank-tol-one", "model-n-huge", "sample-count-huge",
        "samples-huge", "model-a-huge", "model-a-tiny", "circular-a-tiny", "tolerance-true", "t-end-true",
        "model-a-true", "samples-true", "family-param-true", "initial-state-true", "partials-huge",
        "lax-entries-huge", "family-sample-overflow", "family-sample-non-finite", "circular-theta-inf",
        "random-scale-inf", "random-scale-overflow", "family-param-nan", "tol-zero",
        "tol-above-range", "tol-below-floor", "sample-count-one", "initial-state-list", "initial-state-object",
        "initial-state-word", "initial-state-null", "initial-state-huge-int", "initial-state-minus-inf",
        "initial-state-string", "t-end-string", "sample-count-string", "tolerance-string", "model-a-string",
        "samples-string", "label-list", "label-null", "claim-object", "expected-verdict-number",
        "expected-verdict-word",
    ],
)
def test_malformed_config_types_are_config_errors(tmp_path, capsys, scenario, change, named):
    config = load_scenario(SCENARIO_DIR / scenario)
    config.update(change)
    code = main(["run", _write(tmp_path, config)])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err


def test_run_all_with_a_wrong_kind_expected_verdict_is_a_config_error(tmp_path, capsys):
    # it ran, and the scenario was listed as a mismatch ("NO") with exit 1
    config = load_scenario(SCENARIO_DIR / DRIFT)
    config["expected_verdict"] = 5
    _write(tmp_path, config)
    assert main(["run-all", str(tmp_path)]) == 2
    assert '"expected_verdict" must be a string, got 5' in capsys.readouterr().err


# quantity token: (model and start over the vanishing scenario, largest
# partial, threshold at the start)
ORDER_CASES = {
    "A": ({"model": {"kind": "kepler", "a": 1.0}, "initial_state": [0.1, 0.0, 0.0, 0.1]}, "1.000e+00", "1.000e-08"),
    "I12": ({}, "1.000e+00", "1.838e-08"),
    "F12": (
        {"model": {"kind": "toda-nonperiodic", "n": 4}, "initial_state": {"random": {"seed": 1, "scale": 0.1}}},
        "1.000e+00", "1.000e-08",
    ),
    "I3": ({}, "1.600e+00", "1.838e-08"),
}


@pytest.mark.parametrize(
    "kind, quantity, start, message",
    [
        ("toda-periodic", "I3", [0.9, 0.4, 0.3, -0.5], "invariant degree must satisfy 1 <= m <= n, got m=3"),
        ("toda-periodic", "I123", [0.9, 0.4, 0.3, -0.5], "invariant degree must satisfy 1 <= m <= n, got m=3"),
        ("toda-nonperiodic", "F3", [0.9, 0.3, -0.5], "invariant index must satisfy 1 <= k <= n, got k=3"),
    ],
)
def test_degrees_above_the_lattice_size_are_configuration_errors(tmp_path, capsys, kind, quantity, start, message):
    # on two sites I3 vanishes identically and F3 is a function of F1 and F2,
    # so a rank check on either would certify nothing
    config = {
        **load_scenario(SCENARIO_DIR / "toda-periodic-rank-generic.json"),
        "model": {"kind": kind, "n": 2}, "quantity": quantity, "initial_state": start,
    }
    assert main(["run", _write(tmp_path, config)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("quantity", ORDER_CASES)
def test_vanishing_orders_above_one_come_from_finite_differences(tmp_path, capsys, quantity, order):
    # every order above 1 is nested central differences, so above the cap of
    # 4 every quantity is a configuration error
    change, largest, threshold = ORDER_CASES[quantity]
    config = {**load_scenario(SCENARIO_DIR / VANISHING), **change, "quantity": quantity, "order": order}
    code = main(["run", _write(tmp_path, config)])
    captured = capsys.readouterr()
    if order > 4:
        assert code == 2
        assert f"configuration error: order {order} exceeds the finite-difference cap 4" in captured.err
        assert "analytic_partial" not in captured.err
        return
    assert code == 1
    run = json.loads(captured.out)
    assert run["verdict"] == "hypothesis-error"
    assert run["evidence"]["message"] == (
        f"start is not in the order-{order} vanishing set: largest partial {largest} exceeds threshold {threshold}"
    )


def _numeric_paths(node, path=()):
    """The paths of the numbers in a scenario, vector entries included."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in _numeric_paths(value, path + (key,))]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in _numeric_paths(value, path + (i,))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


NUMERIC_KEYS = [(s.name, path) for s in SHIPPED for path in _numeric_paths(load_scenario(s))]
# JSON values of every kind but a number: strings (those that spell numbers
# too), lists, objects, null and booleans
WRONG_KINDS = st.one_of(
    st.sampled_from(["1", "1e1", "-0.5", "401", "nan", "Infinity", ""]),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3) | st.floats(-1e3, 1e3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.none(),
    st.booleans(),
)


@pytest.mark.parametrize(
    "scenario,path", NUMERIC_KEYS, ids=[f"{name[:-5]}:{'.'.join(map(str, path))}" for name, path in NUMERIC_KEYS]
)
@settings(max_examples=6, deadline=None)
@given(value=WRONG_KINDS)
def test_wrong_kind_in_a_numeric_key_is_a_config_error(tmp_path_factory, scenario, path, value):
    config = load_scenario(SCENARIO_DIR / scenario)
    target = config
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    file = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    file.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(file)])
    assert code == 2, (out.getvalue(), err.getvalue())
    assert err.getvalue().startswith("configuration error:")
    assert "Traceback" not in err.getvalue()


def _mutated(scenario, change):
    """The shipped ``scenario`` with each path of ``change`` set to its value."""
    config = load_scenario(SCENARIO_DIR / scenario)
    for path, value in change.items():
        target = config
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = value
    return config


NON_FINITE_GRADIENT = "a numeric failure stopped the check: analytic gradient of 'I1/I2/I3' is non-finite at state 0 of 1"
PERSIST = "toda-periodic-persist-M1I13.json"
# huge finite starts: the Toda forms, the field at the start and the set residuals
# overflowed with a RuntimeWarning, a traceback under -W error
HUGE_STARTS = [
    (GENERIC, {("initial_state", 4): -1e308}, NON_FINITE_GRADIENT),
    (RANK, {("initial_state", "params", "u1"): -1e308}, NON_FINITE_GRADIENT),
    (
        PERSIST, {("initial_state", "params", "u"): 1e300},
        "integration stopped before t_end=10: last sample time reached 0; adaptive integration of "
        "'toda-periodic(n=4)' stopped at t=0: Required step size is less than spacing between numbers.",
    ),
    # finite starts whose conservation rates overflow: grad F_i . f at the start, the F - G scan
    (
        GENERIC, {("initial_state",): {"random": {"seed": 1, "scale": 1e150}}},
        "quantity 'I1/I2/I3' has no finite conservation rate at the start",
    ),
    (KEPLER, {("initial_state",): [1e100, 1e100, 1e160, 1e160]}, f"{NO_AGREEMENT_TOLERANCE}; {NO_SCAN_TOLERANCE}"),
]


@pytest.mark.parametrize(
    "scenario,change,message", HUGE_STARTS, ids=["generic", "pattern", "persist", "random-rates", "coincidence-rates"]
)
def test_huge_finite_start_is_a_hypothesis_error_without_a_warning(scenario, change, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = run_scenario(_mutated(scenario, change))
    assert run.verdict == "hypothesis-error"
    assert run.evidence["message"] == message


# Every fuzzed scenario ends in a report or a configuration error within this
# bound, seven times the slowest edge horizon (0.34 s, t_end 1e3, on a shared
# 2-core x86-64 VM); a flow that spent the whole step budget took 3.5-7 s there,
# and the projected budget ends such a flow in 0.04 s
FUZZ_WALL_SECONDS = 2.5


def _assert_report_or_config_error(tmp_path_factory, config):
    """``invarsets run`` on ``config`` with RuntimeWarnings as errors: no
    exception escapes, the exit code is 0, 1 or 2, the report is strict JSON
    on 0 and 1 and a configuration error is printed on 2, within
    ``FUZZ_WALL_SECONDS``."""
    file = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    file.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(file)])
    elapsed = time.perf_counter() - started
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("configuration error:")
    else:
        _strict_json(out.getvalue())
    assert elapsed < FUZZ_WALL_SECONDS, (elapsed, out.getvalue(), err.getvalue())


# finite numbers at the edges of the float range, and just past the bounds on n
EDGE_NUMBERS = [0, 1e-320, -1e-320, 1e200, -1e200, 1e308, -1e308, 1e30, 257, -1, 2.5]
# the horizon of a check that integrates, with edges of its own
HORIZON_EDGES = {("t_end",): [1e-300, 1e-3, 1e3, 1e308], ("integ", "sample_count"): [2, 3, 10_001]}
# the leaves the edge fuzz sets, each with the values it draws: the numbers of
# the start and of the model, and the horizon where the scenario integrates
EDGE_LEAVES = {
    s.name: [
        ((key,) + path, EDGE_NUMBERS) for key in ("initial_state", "model")
        for path in _numeric_paths(load_scenario(s).get(key))
    ] + (list(HORIZON_EDGES.items()) if "initial_state" in load_scenario(s) else [])
    for s in SHIPPED
}


@st.composite
def _edge_number_changes(draw):
    scenario = draw(st.sampled_from(sorted(EDGE_LEAVES)))
    leaves = draw(st.permutations(EDGE_LEAVES[scenario]))[: draw(st.integers(1, 2))]
    return scenario, {path: draw(st.sampled_from(values)) for path, values in leaves}


@settings(max_examples=150, deadline=None, derandomize=True)
@example(edits=HUGE_STARTS[0][:2])
@example(edits=HUGE_STARTS[1][:2])
@example(edits=HUGE_STARTS[2][:2])
@example(edits=HUGE_STARTS[3][:2])
@example(edits=HUGE_STARTS[4][:2])
@example(edits=(DRIFT, {("initial_state", 0): 1e30}))  # spent the whole step budget
@example(edits=(DRIFT, {("t_end",): 1e308}))  # the same
@given(edits=_edge_number_changes())
def test_edge_numbers_in_a_scenario_end_in_a_report_or_a_config_error(tmp_path_factory, edits):
    _assert_report_or_config_error(tmp_path_factory, _mutated(*edits))


def _object_paths(node, path=()):
    """The paths of ``node`` and of every object nested in it that is an object."""
    if not isinstance(node, dict):
        return []
    return [path] + [p for key, value in node.items() for p in _object_paths(value, path + (key,))]


def _leaf_paths(node, path=()):
    """The paths of the values in a scenario that are neither objects nor lists."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in _leaf_paths(value, path + (key,))]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in _leaf_paths(value, path + (i,))]
    return [path]


UNKNOWN_KEYS = ["t_ned", "extra", "Sample_count"]  # a key no section of any check has


@st.composite
def _structure_changes(draw):
    """A shipped scenario with one top-level key dropped, one unknown key added
    to a section (top level, model, integ, tolerances or an initial_state
    object, made if missing) or one leaf wrapped in a list or an object."""
    config = load_scenario(SCENARIO_DIR / draw(st.sampled_from([s.name for s in SHIPPED])))
    change = draw(st.sampled_from(["drop", "add", "wrap"]))
    if change == "drop":
        del config[draw(st.sampled_from(sorted(config)))]
        return config
    if change == "add":
        sections = [(), ("model",), ("integ",), ("tolerances",)]
        sections += [("initial_state",) + p for p in _object_paths(config.get("initial_state"))]
        target = config
        for part in draw(st.sampled_from(sections)):
            target = target.setdefault(part, {})
        target[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(st.sampled_from([1, 1e-30, "x", None, [], {}]))
        return config
    path = draw(st.sampled_from(_leaf_paths(config)))
    target = config
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = draw(st.sampled_from([[target[path[-1]]], {"value": target[path[-1]]}]))
    return config


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=_structure_changes())
def test_dropped_added_or_nested_keys_end_in_a_report_or_a_config_error(tmp_path_factory, config):
    _assert_report_or_config_error(tmp_path_factory, config)


def test_csv_sigma_columns_are_the_per_sample_singular_values(tmp_path, capsys):
    config = load_scenario(SCENARIO_DIR / "toda-periodic-rank-generic.json")
    config["integ"] = {"sample_count": 9}
    csv_path = tmp_path / "traj.csv"
    assert main(["run", _write(tmp_path, config), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    traj, quantity, _ = run_scenario(config).flow
    for line, state in zip(csv_path.read_text().splitlines()[1:], traj.states):
        cells = [float(c) for c in line.split(",")]
        sigma = np.linalg.svd(jacobians(quantity, state[None])[0], compute_uv=False)
        assert np.array_equal(cells[-quantity.k :], sigma)
        assert np.array_equal(cells[-2 * quantity.k : -quantity.k], quantity.values_many(state[None])[0])


@pytest.mark.parametrize(
    "scenario,section,key,valid",
    [
        ("toda-periodic-drift.json", "tolerances", "drfit", "drift"),
        ("kepler-circular-coincidence.json", "tolerances", "devation", "deviation"),
        ("toda-periodic-vanishing-M0I3.json", "tolerances", "residual", "vanishing"),
        ("toda-periodic-henon-oracle.json", "tolerances", "drift", "value, gradient"),
        ("toda-periodic-rank-generic.json", "integ", "tl", "tol, sample_count"),
        ("toda-periodic-henon-oracle.json", "integ", "tol", "none"),
        ("toda-periodic-rank-pattern.json", "model", "N", "kind, n"),
        ("kepler-circular-coincidence.json", "initial_state.circular", "radius", "a, theta"),
        ("toda-periodic-drift.json", "initial_state.random", "sed", "seed, scale"),
        # a second start form used to lose silently to the first
        ("toda-periodic-rank-pattern.json", "initial_state", "circular", "set_id, params"),
        # the premise tolerances of earlier releases: every premise is held to PREMISE_TOL
        ("toda-periodic-rank-pattern.json", "tolerances", "conservation", "rank"),
        ("toda-periodic-critical-pattern.json", "tolerances", "conservation", "rank"),
        ("toda-periodic-vanishing-M0I3.json", "tolerances", "conservation", "vanishing"),
        ("kepler-circular-coincidence.json", "tolerances", "hypothesis", "deviation"),
    ],
    ids=[
        "drift", "coincidence", "n-invariance", "oracle", "integ", "oracle-integ", "model",
        "circular", "random", "two-start-forms", "conservation-on-rank", "conservation-on-critical",
        "conservation-on-n-invariance", "hypothesis-on-coincidence",
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


INTEGRATING = [s for s in SHIPPED if "integ" in load_scenario(s)]


@pytest.mark.parametrize("key", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("scenario", INTEGRATING, ids=[s.stem for s in INTEGRATING])
def test_the_integ_tolerances_of_earlier_releases_are_config_errors(tmp_path, capsys, scenario, key):
    # one integration tolerance: each shipped scenario with the old spelling beside it, at its own value
    config = load_scenario(scenario)
    config["integ"][key] = config["integ"]["tol"]
    assert main(["run", _write(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert f'unknown key "integ.{key}"' in err
    assert "valid integ keys: tol, sample_count" in err


def test_unknown_integ_key_in_export_is_a_config_error(tmp_path, capsys):
    config = load_scenario(SCENARIO_DIR / "toda-periodic-drift.json")
    config["integ"]["samples"] = 11
    code = main(["run", _write(tmp_path, config), "--csv", str(tmp_path / "x.csv")])
    assert code == 2
    assert 'unknown key "integ.samples"' in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def _count_flows(monkeypatch):
    """The flows the checks integrate, each through the one flow provider."""
    calls = []
    original = integrate.flow_adaptive

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(integrate, "flow_adaptive", counted)
    return calls


@pytest.mark.parametrize(
    "scenario,change,code,flows",
    [
        ("toda-periodic-rank-pattern.json", {}, 0, 1),
        ("kepler-circular-coincidence.json", {}, 0, 0),
        # a start off the family stops at the premise: no flow, so no CSV
        ("toda-periodic-persist-M1I13.json", {"initial_state": [1.0] * 8, "set_id": "M1_I13"}, 1, 0),
        # without t_end both run to the check's own horizon, one period 2*pi*a^3
        ("kepler-circular-coincidence-a15.json", {"t_end": None}, 0, 0),
    ],
    ids=["rank", "coincidence", "premise-failed", "coincidence-default-horizon"],
)
def test_run_csv_exports_the_checks_own_trajectory(
    tmp_path, capsys, monkeypatch, scenario, change, code, flows
):
    # the coincidence check takes the F-driven flow from Kepler's equation
    # and the linear G-driven one from the pair's rotation, integrating
    # neither; --csv adds no flow
    config = load_scenario(SCENARIO_DIR / scenario)
    config.update(change)
    config = {key: value for key, value in config.items() if value is not None}
    config["integ"]["sample_count"] = 21
    path = _write(tmp_path, config)
    calls = _count_flows(monkeypatch)
    assert main(["run", path, "--csv", str(tmp_path / "run.csv")]) == code
    assert len(calls) == flows
    if code:
        assert "no CSV written" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()
        return
    # the model's own flow from the start, over the check's horizon, exported
    # alone: the Kepler flow its field declares, or the lattice integrated
    s = report._read(config)
    traj, broken = integrate._flow(s.system, s.x0, s.t_end, s.integ, PREMISE_TOL)
    assert broken is None
    export_trajectory(traj, s.quantity, tmp_path / "export.csv", s.system.component_names)
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
    "scenario,change,key",
    [
        ("toda-periodic-drift.json", {"t_ned": 1.0}, "t_ned"),
        ("toda-periodic-drift.json", {"rank_tol": 5}, "rank_tol"),
        ("toda-periodic-rank-pattern.json", {"seed": 3}, "seed"),
        ("toda-periodic-henon-oracle.json", {"t_end": 2}, "t_end"),
        ("kepler-circular-coincidence.json", {"order": 2}, "order"),
        # the rank threshold is "tolerances.rank" only; its top-level spelling is gone
        ("toda-periodic-rank-generic.json", {"rank_tol": 1e-8}, "rank_tol"),
        ("toda-periodic-critical-pattern.json", {"rank_tol": 1e-8}, "rank_tol"),
    ],
    ids=[
        "misspelt-t-end", "rank-tol-on-drift", "seed-on-rank", "t-end-on-oracle", "order-on-coincidence",
        "rank-tol-on-rank", "rank-tol-on-critical",
    ],
)
def test_unknown_top_level_key_is_a_config_error(tmp_path, capsys, scenario, change, key):
    # a key the check does not read used to be ignored: "t_ned" ran with t_end 10
    config = load_scenario(SCENARIO_DIR / scenario)
    config.update(change)
    assert main(["run", _write(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert f'unknown key "{key}" for the {config["check"]} check' in err
    assert "valid top-level keys: label, check, model" in err


@pytest.mark.parametrize("scenario", [GENERIC, CRITICAL], ids=["rank", "critical"])
def test_tolerances_rank_sets_the_rank_threshold(monkeypatch, scenario):
    # the library's name, read by the start's rank and every sample's
    config = load_scenario(SCENARIO_DIR / scenario)
    config["tolerances"] = {"rank": 1e-6}
    thresholds = []

    def spy(quantity, states, tol):
        thresholds.append(tol)
        return rank_levels(quantity, states, tol)

    monkeypatch.setattr(invariance, "rank_levels", spy)
    assert run_scenario(config).verdict == config["expected_verdict"]
    assert thresholds == [1e-6, 1e-6]


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
            refs.append((toda.periodic_invariants(n, (m,)), lambda z, _e=enum: _e.values_many(z[None])[0, 0], enum))
    else:
        dim, lax = 2 * n - 1, toda.lax_commutator_residual
        for k in (1, 2, 3):
            q = toda.nonperiodic_invariants(n, (k,))
            fd = ConservedQuantitySet(dim, 1, q.value, q.labels)
            refs.append((q, lambda z, _k=k: toda.trace_invariant_value(n, _k, z), fd))
    worst_value = worst_gradient = worst_lax = 0.0
    for _ in range(samples):
        z = rng.standard_normal(dim)
        for closed, value, fd_quantity in refs:
            a = float(closed.values_many(z[None])[0, 0])
            worst_value = max(worst_value, abs(a - float(value(z))) / max(1.0, abs(a)))
            g, fd = jacobians(closed, z[None])[0], jacobians(fd_quantity, z[None])[0]
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


# the override flags of earlier releases, each with a value it took
REMOVED_FLAGS = [
    ("--t-end", "2"), ("--rank-tol", "1e-6"), ("--abs-tol", "1e-8"), ("--rel-tol", "1e-8"),
    ("--sample-count", "21"), ("--seed", "3"), ("--tolerance", "deviation=1e-7"),
]


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # the parser is built once per process: a run with both files, refused
    # flags and a plain run in a row leave nothing behind for the next call.
    # Every setting lives in the scenario file, so an override flag of an
    # earlier release is refused as any unknown flag is
    path = str(SCENARIO_DIR / "kepler-circular-coincidence.json")
    reports = [tmp_path / "both.json", tmp_path / "plain.json", tmp_path / "fresh.json"]
    assert main(["run", path, "--report", str(reports[0]), "--csv", str(tmp_path / "run.csv")]) == 0
    for flag in [("--no-such-flag",), *REMOVED_FLAGS]:
        with pytest.raises(SystemExit) as bad:
            main(["run", path, *flag])
        assert bad.value.code == 2
    assert main(["run", path, "--report", str(reports[1])]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "invarsets.cli", "run", path, "--report", str(reports[2])],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    both, plain, fresh = (p.read_text() for p in reports)
    assert (tmp_path / "run.csv").read_text().startswith("t,x1,x2,y1,y2,H,sigma1\n")
    assert json.loads(plain)["config"]["tolerances"] == {"deviation": 1e-6}
    elapsed = re.compile(r'"elapsed_seconds": [^,}\s]+')
    assert elapsed.sub("", both) == elapsed.sub("", plain) == elapsed.sub("", fresh)
