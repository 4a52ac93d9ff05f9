"""Scenario execution: configuration parsing, check dispatch, report
assembly, and CSV trajectory export.

A scenario is one JSON object describing a model, a check, a quantity
selection, an initial state, and tolerances.  Reports echo the
configuration and carry the numerical evidence behind the verdict, so a
directory of scenario files doubles as executable documentation of the
claims being certified.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .core import (
    ConservedQuantitySet,
    SystemDefinition,
    as_state,
    format_float,
    stack_quantities,
)
from .differentiate import jacobian, jacobians
from .errors import UsageError
from .integrate import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLE_COUNT,
    Trajectory,
    flow_adaptive,
    monitor_drift,
)
from .invariance import (
    DEFAULT_CONSERVATION_TOL,
    FAIL,
    PASS,
    verify_rank_invariance,
    verify_set_persistence,
    verify_vanishing_invariance,
)
from .coincidence import (
    DEFAULT_DEVIATION_TOL,
    DEFAULT_HYPOTHESIS_TOL,
    canonical_symplectic_matrix,
    verify_coincidence,
)
from .rank_sets import DEFAULT_RANK_TOL, DEFAULT_VANISH_TOL, singular_values
from . import kepler as kepler_model
from . import toda

VALID_MODELS = ("kepler", "toda-periodic", "toda-nonperiodic")
# Each check with the "tolerances" keys it reads; "integ" keys apply to every
# check that integrates a flow.  Any other key is a configuration error, since
# a misspelt tolerance would otherwise fall back to its default unnoticed.
TOLERANCE_KEYS = {
    "rank-invariance": ("conservation",),
    "n-invariance": ("vanishing", "conservation"),
    "set-persistence": ("residual",),
    "coincidence": ("deviation", "hypothesis"),
    "oracle-equality": ("value", "gradient"),
    "drift": ("drift",),
}
INTEG_KEYS = ("abs_tol", "rel_tol", "sample_count")
VALID_CHECKS = tuple(TOLERANCE_KEYS)
# The top-level keys every check accepts, then each check with the ones it
# reads on top of them; any other key (a misspelt "t_end", or a --rank-tol
# override on a check without a rank) is a configuration error.
COMMON_KEYS = ("label", "check", "model", "claim", "expected_verdict", "tolerances", "integ")
_FLOW_KEYS = ("quantity", "initial_state", "t_end")
TOP_LEVEL_KEYS = {
    "rank-invariance": _FLOW_KEYS + ("rank_tol",),
    "n-invariance": _FLOW_KEYS + ("order",),
    "set-persistence": _FLOW_KEYS + ("set_id",),
    "coincidence": _FLOW_KEYS,
    "oracle-equality": ("seed", "samples"),
    "drift": _FLOW_KEYS,
}
DEFAULT_T_END = 10.0

# What a check returns: verdict, evidence, and the trajectory it integrated
# with the quantity the CSV export tabulates (None, None when it integrated none)
_Outcome = tuple[str, dict[str, Any], Trajectory | None, ConservedQuantitySet | None]


@dataclass
class RunReport:
    label: str
    check: str
    verdict: str
    evidence: dict[str, Any]
    config: dict[str, Any]
    elapsed_seconds: float
    tool_version: str = __version__
    # the trajectory the check integrated, with its quantity and system, for
    # the CSV export; not serialized, and None when no flow was integrated
    flow: tuple[Trajectory, ConservedQuantitySet, SystemDefinition] | None = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "check": self.check,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "config": self.config,
            "elapsed_seconds": self.elapsed_seconds,
            "tool_version": self.tool_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def load_scenario(path) -> dict[str, Any]:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"scenario file not found: {p}")
    try:
        config = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario file {p} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"scenario file {p} must contain a JSON object")
    return config


def _section(config, key: str) -> dict[str, Any]:
    """An optional sub-object of a scenario, such as "tolerances" or "integ"."""
    section = config.get(key, {})
    if not isinstance(section, dict):
        raise UsageError(f'"{key}" must be an object, got {type(section).__name__}')
    return section


def _check_keys(config, section: str | None, valid: tuple[str, ...], user: str) -> None:
    """Reject a key of ``config[section]`` (of ``config`` itself when
    ``section`` is None) that ``user`` does not read."""
    keys = config if section is None else _section(config, section)
    unknown = [key for key in keys if key not in valid]
    if unknown:
        name = unknown[0] if section is None else f"{section}.{unknown[0]}"
        raise UsageError(
            f'unknown key "{name}" for {user}; '
            f"valid {section or 'top-level'} keys: {', '.join(valid) or 'none'}"
        )


def _number(section, key: str, default, kind=float, where: str = ""):
    """``section[key]`` (or ``default``) converted by ``kind``; a value that
    does not convert, or an integer setting with a fractional part, is a
    configuration error naming the key."""
    raw = section.get(key, default)
    try:
        value = kind(raw)
        if kind is int and isinstance(raw, float) and not raw.is_integer():
            raise ValueError  # int() would truncate 4.7 to 4
        return value
    except (TypeError, ValueError):
        expected = "an integer" if kind is int else "a number"
        raise UsageError(f'"{where}{key}" must be {expected}, got {raw!r}') from None


def _model_of(config) -> tuple[str, SystemDefinition, dict[str, Any]]:
    model = config.get("model")
    if not isinstance(model, dict) or "kind" not in model:
        raise UsageError('scenario needs a "model" object with a "kind" field')
    kind = model["kind"]
    if kind == "kepler":
        return kind, kepler_model.kepler_field(), {"a": _number(model, "a", 1.0, where="model.")}
    if kind == "toda-periodic":
        n = _number(model, "n", 4, int, "model.")
        return kind, toda.periodic_field(n), {"n": n}
    if kind == "toda-nonperiodic":
        n = _number(model, "n", 4, int, "model.")
        return kind, toda.nonperiodic_field(n), {"n": n}
    raise UsageError(f"unknown model '{kind}'; valid models: {', '.join(VALID_MODELS)}")


def _quantity_from_token(token: str, kind: str, params: dict[str, Any]) -> ConservedQuantitySet:
    if kind == "toda-periodic" and token.startswith("I") and token[1:].isdigit():
        degrees = tuple(int(c) for c in token[1:])
        if any(d not in (1, 2, 3) for d in degrees):
            raise UsageError(f"quantity '{token}': closed forms cover degrees 1..3")
        return toda.periodic_invariants(params["n"], degrees)
    if kind == "toda-nonperiodic" and token.startswith("F") and token[1:].isdigit():
        degrees = tuple(int(c) for c in token[1:])
        if any(d not in (1, 2, 3) for d in degrees):
            raise UsageError(f"quantity '{token}': closed forms cover degrees 1..3")
        return toda.nonperiodic_invariants(params["n"], degrees)
    if kind == "kepler":
        parts = {
            "H": kepler_model.hamiltonian,
            "A": kepler_model.angular_momentum,
            "K": lambda: kepler_model.combined_invariant(params["a"]),
        }
        if all(c in parts for c in token):
            return stack_quantities([parts[c]() for c in token])
    raise UsageError(
        f"quantity '{token}' is not available for model '{kind}' "
        "(toda-periodic: I1..I123; toda-nonperiodic: F1..F123; kepler: H, A, K "
        "and concatenations like HA)"
    )


def _quantity_of(config, kind: str, params: dict[str, Any]) -> ConservedQuantitySet:
    token = config.get("quantity")
    if token is None:
        raise UsageError('scenario needs a "quantity" field')
    if isinstance(token, list):
        return stack_quantities([_quantity_from_token(t, kind, params) for t in token])
    return _quantity_from_token(str(token), kind, params)


def _initial_state(config, kind: str, params: dict[str, Any], dim: int) -> np.ndarray:
    entry = config.get("initial_state")
    if entry is None:
        raise UsageError('scenario needs an "initial_state" field')
    if isinstance(entry, list):
        return as_state(entry, dim)
    if not isinstance(entry, dict):
        raise UsageError('"initial_state" must be a vector or an object')
    if "set_id" in entry:
        if kind == "kepler":
            raise UsageError("explicit set samples apply to the lattice models")
        return toda.explicit_set_sample(entry["set_id"], params["n"], _section(entry, "params"))
    if "circular" in entry:
        if kind != "kepler":
            raise UsageError("circular samples apply to the kepler model")
        c = _section(entry, "circular")
        where = "initial_state.circular."
        return kepler_model.circular_sample(
            _number(c, "a", params["a"], where=where), _number(c, "theta", 0.0, where=where)
        )
    if "random" in entry:
        r = _section(entry, "random")
        rng = np.random.default_rng(_number(r, "seed", 0, int, "initial_state.random."))
        return _number(r, "scale", 1.0, where="initial_state.random.") * rng.standard_normal(dim)
    raise UsageError('"initial_state" object needs one of: set_id, circular, random')


def _drift_evidence(drift) -> dict[str, Any]:
    if drift is None:
        return {}
    return {
        "drift_labels": list(drift.labels),
        "max_drift": [float(v) for v in drift.max_drift],
        "drift_time_of_max": [float(t) for t in drift.time_of_max],
    }


def _tol(config, key: str, default: float) -> float:
    return _number(_section(config, "tolerances"), key, default, where="tolerances.")


def _common_kwargs(config) -> dict[str, float | int]:
    integ = _section(config, "integ")
    return {
        "abs_tol": _number(integ, "abs_tol", DEFAULT_ABS_TOL, where="integ."),
        "rel_tol": _number(integ, "rel_tol", DEFAULT_REL_TOL, where="integ."),
        "sample_count": _number(integ, "sample_count", DEFAULT_SAMPLE_COUNT, int, "integ."),
    }


def _flow_inputs(config, kind, system, params, t_end_default: float = DEFAULT_T_END):
    """The quantity, start, end time and integrator settings of a scenario
    that integrates a flow."""
    quantity = _quantity_of(config, kind, params)
    x0 = _initial_state(config, kind, params, system.dim)
    return quantity, x0, _number(config, "t_end", t_end_default), _common_kwargs(config)


def _run_invariance_check(config, kind, system, params) -> _Outcome:
    check = config["check"]
    quantity, x0, t_end, kw = _flow_inputs(config, kind, system, params)
    if check == "rank-invariance":
        rep = verify_rank_invariance(
            system, quantity, x0, t_end,
            rank_tol=_number(config, "rank_tol", DEFAULT_RANK_TOL),
            conservation_tol=_tol(config, "conservation", DEFAULT_CONSERVATION_TOL),
            **kw,
        )
        ranks = [] if rep.sample_values is None else sorted({int(v) for v in rep.sample_values})
        evidence = {
            "initial_rank": rep.initial_rank,
            "ranks_seen": ranks,
            "min_margin": float(rep.min_margin),
            "message": rep.message,
            "equilibrium": rep.equilibrium,
        }
    elif check == "n-invariance":
        rep = verify_vanishing_invariance(
            system, quantity, x0,
            order=_number(config, "order", 1, int),
            t_end=t_end,
            abs_tol=_tol(config, "vanishing", DEFAULT_VANISH_TOL),
            conservation_tol=_tol(config, "conservation", DEFAULT_CONSERVATION_TOL),
            integ_abs_tol=kw["abs_tol"],
            integ_rel_tol=kw["rel_tol"],
            sample_count=kw["sample_count"],
        )
        evidence = {
            "worst_residual": float(rep.worst_value),
            "worst_time": float(rep.worst_time),
            "threshold": rep.threshold,
            "message": rep.message,
        }
    else:  # set-persistence
        set_id = config.get("set_id")
        if set_id is None:
            state_entry = config.get("initial_state")
            set_id = state_entry.get("set_id") if isinstance(state_entry, dict) else None
        if set_id is None:
            raise UsageError('set-persistence needs a "set_id" (top level or in initial_state)')
        n = params["n"]
        desc_quantity = toda.explicit_set_quantity(set_id, n)
        rep = verify_set_persistence(
            system,
            lambda s: toda.explicit_set_residual(set_id, n, s),
            x0,
            t_end,
            tol=_tol(config, "residual", 1e-7),
            quantity=desc_quantity,
            **kw,
        )
        evidence = {
            "set_id": set_id,
            "max_residual": float(rep.worst_value),
            "worst_time": float(rep.worst_time),
            "tol": rep.threshold,
            "message": rep.message,
            "equilibrium": rep.equilibrium,
        }
    evidence.update(_drift_evidence(rep.drift))
    return rep.verdict, evidence, rep.trajectory, quantity


def _run_coincidence(config, kind, system, params) -> _Outcome:
    if kind != "kepler":
        raise UsageError("the coincidence check is wired for the kepler model")
    token = config.get("quantity")
    if token != "H":  # F is the Kepler energy, whose driven field is the model's
        raise UsageError(f'the coincidence check needs "quantity": "H", got {token!r}')
    a = params["a"]
    quantity, x0, t_end, kw = _flow_inputs(config, kind, system, params, 2.0 * np.pi * a**3)
    block = canonical_symplectic_matrix(2)
    rep = verify_coincidence(
        lambda x, g, _b=block: _b @ g,
        kepler_model.hamiltonian(),
        kepler_model.linear_pair_hamiltonian(a),
        x0,
        t_end,
        deviation_tol=_tol(config, "deviation", DEFAULT_DEVIATION_TOL),
        hypothesis_tol=_tol(config, "hypothesis", DEFAULT_HYPOTHESIS_TOL),
        **kw,
    )
    evidence = {
        "agreement_residual": float(rep.e_residual),
        "difference_drift": float(rep.difference_drift),
        "max_deviation": float(rep.max_deviation),
        "max_deviation_time": float(rep.max_deviation_time),
        "message": rep.message,
    }
    # the F-driven field J grad H is the Kepler field, so its flow is the model's
    return rep.verdict, evidence, rep.trajectory_f, quantity


def _run_oracle_equality(config, kind, system, params) -> _Outcome:
    n = params.get("n")
    if n is None:
        raise UsageError("oracle-equality applies to the lattice models")
    seed = _number(config, "seed", 0, int)
    samples = _number(config, "samples", 100, int)
    value_tol = _tol(config, "value", 1e-12)
    gradient_tol = _tol(config, "gradient", 1e-6)
    rng = np.random.default_rng(seed)

    # per invariant: the closed form, an independent value and a quantity
    # whose finite-difference Jacobian checks the closed-form gradient
    references = []
    if kind == "toda-periodic":
        dim, lax = 2 * n, None
        for m in (1, 2, 3):
            enum = toda.henon_invariant_oracle(n, m)
            value = lambda z, _e=enum: _e.values_at(z)[0]
            references.append((toda.henon_closed_form(n, m), value, enum))
    else:
        dim, lax = 2 * n - 1, toda.lax_commutator_residual
        for k in (1, 2, 3):
            q = toda.flaschka_invariant(n, k)
            value = lambda z, _k=k: toda.trace_invariant_value(n, _k, z)
            references.append((q, value, ConservedQuantitySet(dim, 1, q.value, q.labels)))

    worst_value = worst_gradient = worst_lax = 0.0
    for _ in range(samples):
        z = rng.standard_normal(dim)
        for closed, value, fd_quantity in references:
            a = float(closed.values_at(z)[0])
            worst_value = max(worst_value, abs(a - float(value(z))) / max(1.0, abs(a)))
            g = jacobian(closed, z)
            fd = jacobian(fd_quantity, z)
            scale = max(1.0, float(np.max(np.abs(g))))
            worst_gradient = max(worst_gradient, float(np.max(np.abs(g - fd))) / scale)
        if lax is not None:
            worst_lax = max(worst_lax, lax(n, z))
    ok = worst_value <= value_tol and worst_gradient <= gradient_tol and worst_lax <= value_tol
    evidence = {
        "samples": samples,
        "seed": seed,
        "max_value_mismatch": worst_value,
        "max_gradient_mismatch": worst_gradient,
        "max_lax_residual": worst_lax,
        "value_tol": value_tol,
        "gradient_tol": gradient_tol,
    }
    return (PASS if ok else FAIL), evidence, None, None


def _run_drift(config, kind, system, params) -> _Outcome:
    quantity, x0, t_end, kw = _flow_inputs(config, kind, system, params)
    traj = flow_adaptive(system, x0, t_end, **kw)
    drift = monitor_drift(traj, quantity)
    tol = _tol(config, "drift", 1e-8)
    evidence = {"worst_drift": drift.worst, "tol": tol}
    evidence.update(_drift_evidence(drift))
    return (PASS if drift.worst <= tol else FAIL), evidence, traj, quantity


def run_scenario(config: dict[str, Any]) -> RunReport:
    """Execute one scenario and return its report.

    Configuration problems raise :class:`UsageError`; numerical verdicts
    (including hypothesis errors) are reported, not raised.
    """
    started = time.perf_counter()
    check = config.get("check")
    if check not in VALID_CHECKS:
        raise UsageError(f"unknown check '{check}'; valid checks: {', '.join(VALID_CHECKS)}")
    _check_keys(config, None, COMMON_KEYS + TOP_LEVEL_KEYS[check], f"the {check} check")
    _check_keys(config, "tolerances", TOLERANCE_KEYS[check], f"the {check} check")
    integ_keys = () if check == "oracle-equality" else INTEG_KEYS  # it integrates nothing
    _check_keys(config, "integ", integ_keys, f"the {check} check")
    kind, system, params = _model_of(config)

    if check in ("rank-invariance", "n-invariance", "set-persistence"):
        run = _run_invariance_check
    elif check == "coincidence":
        run = _run_coincidence
    elif check == "oracle-equality":
        run = _run_oracle_equality
    else:
        run = _run_drift
    verdict, evidence, traj, quantity = run(config, kind, system, params)

    return RunReport(
        label=str(config.get("label", "unnamed")),
        check=check,
        verdict=verdict,
        evidence=evidence,
        config=config,
        elapsed_seconds=time.perf_counter() - started,
        flow=None if traj is None else (traj, quantity, system),
    )


def scenario_trajectory(config: dict[str, Any]) -> tuple[Trajectory, ConservedQuantitySet, SystemDefinition]:
    """Integrate the scenario's model from its initial state (for exports)."""
    top_level = COMMON_KEYS + TOP_LEVEL_KEYS.get(config.get("check"), _FLOW_KEYS)
    _check_keys(config, None, top_level, "the trajectory export")
    _check_keys(config, "integ", INTEG_KEYS, "the trajectory export")
    kind, system, params = _model_of(config)
    quantity, x0, t_end, kw = _flow_inputs(config, kind, system, params)
    return flow_adaptive(system, x0, t_end, **kw), quantity, system


def export_trajectory(
    traj: Trajectory,
    quantity: ConservedQuantitySet,
    path,
    component_names: tuple[str, ...] | None = None,
) -> None:
    """Write a trajectory as CSV: time, state components, quantity values,
    and the singular values of the quantity's Jacobian at each sample
    (one value call, one Jacobian call and one SVD on the whole stack).

    Numbers carry 17 significant digits, so reimporting reproduces the
    doubles bit-exactly.
    """
    names = component_names or tuple(f"x{i + 1}" for i in range(traj.dim))
    if len(names) != traj.dim:
        raise UsageError(f"{len(names)} component names for dimension {traj.dim}")
    n_sigma = min(quantity.k, traj.dim)
    header = (
        ["t"]
        + list(names)
        + list(quantity.labels)
        + [f"sigma{i + 1}" for i in range(n_sigma)]
    )
    lines = [",".join(header)]
    values = quantity.values_many(traj.states)
    sigmas = singular_values(jacobians(quantity, traj.states))
    for t, s, v, sv in zip(traj.times, traj.states, values, sigmas):
        row = (
            [format_float(t)]
            + [format_float(v) for v in s]
            + [format_float(x) for x in v]
            + [format_float(x) for x in sv]
        )
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def run_directory(directory) -> list[tuple[Path, RunReport]]:
    """Run every *.json scenario in a directory (sorted by name), as
    (path, report) pairs."""
    d = Path(directory)
    if not d.is_dir():
        raise UsageError(f"not a directory: {d}")
    paths = sorted(d.glob("*.json"))
    if not paths:
        raise UsageError(f"no scenario files (*.json) in {d}")
    return [(p, run_scenario(load_scenario(p))) for p in paths]
