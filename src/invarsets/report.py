"""Scenario execution: configuration parsing, check dispatch, report
assembly, and CSV trajectory export.

A scenario is one JSON object describing a model, a check, a quantity
selection, an initial state, and tolerances.  Every key a scenario may
hold, with its default, is declared once: per model in ``_MODELS`` and per
check in ``_CHECKS``.  ``_read`` checks a scenario against them before any
numerics run.  Reports echo the configuration and carry the numerical
evidence behind the verdict, so a directory of scenario files doubles as
executable documentation of the claims being certified.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .core import (
    PREMISE_TOL,
    TOLERANCES,
    ConservedQuantitySet,
    SystemDefinition,
    _tolerance,
    as_state,
    format_float,
    stack_quantities,
)
from .differentiate import jacobians
from .errors import IntegrationError, NumericError, UsageError
from .integrate import IntegratorSettings, Trajectory, _flow, monitor_drift
from .invariance import (
    BORDERLINE,
    FAIL,
    HYPOTHESIS_ERROR,
    PASS,
    verify_critical_invariance,
    verify_rank_invariance,
    verify_set_persistence,
    verify_vanishing_invariance,
)
from .coincidence import canonical_symplectic_matrix, verify_coincidence
from .rank_sets import singular_values
from . import kepler as kepler_model
from . import toda

# What a check returns: verdict, evidence, and the trajectory it integrated
# (None when it integrated none)
_Outcome = tuple[str, dict[str, Any], Trajectory | None]


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
        """The report as JSON data; a non-finite float (a margin no sample
        set, a drift never measured) is ``None``, so the JSON is strict."""
        return {
            "label": self.label,
            "check": self.check,
            "verdict": self.verdict,
            "evidence": _finite_or_null(self.evidence),
            "config": _finite_or_null(self.config),
            "elapsed_seconds": self.elapsed_seconds,
            "tool_version": self.tool_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def _finite_or_null(value):
    """``value`` with every non-finite float, however deeply nested, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


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


def _fields(section, defaults: dict[str, Any], where: str, check: str, other=()) -> dict[str, Any]:
    """The values of ``section`` (found at prefix ``where``, "" for the top
    level) for the keys of ``defaults``, each converted by ``_value``.  A key
    in neither ``other`` nor ``defaults`` is a configuration error."""
    valid = (*other, *defaults)
    unknown = [key for key in section if key not in valid]
    if unknown:
        raise UsageError(
            f'unknown key "{where}{unknown[0]}" for the {check} check; '
            f"valid {where[:-1] or 'top-level'} keys: {', '.join(valid) or 'none'}"
        )
    return {key: _value(section, key, default, where) for key, default in defaults.items()}


_KINDS = {int: "an integer", float: "a number", str: "a string"}
_AT_LEAST = {"seed": 0, "samples": 1}  # integer settings no library call range-checks
_AT_MOST = {"n": 256, "samples": 10_000, "sample_count": 10_001}  # sizes that keep arrays small
_MAX_LAX_ENTRIES = 2**22  # samples * n**2 on the free-end lattice: one n-by-n Lax matrix per sample
_VERDICTS = (PASS, FAIL, BORDERLINE, HYPOTHESIS_ERROR)
# settings with a domain of their own: the test and what it asks for
_DOMAINS = {
    "a": (kepler_model.valid_radius, "be positive, with a^3 and 1/a^3 finite and non-zero"),
    "expected_verdict": (_VERDICTS.__contains__, f"be one of {', '.join(_VERDICTS)}"),
}


def _value(section, key: str, default, where: str = ""):
    """``section[key]`` (or ``default``) as the type of ``default``.  A value
    that does not convert, an integer setting with a fractional part, or a
    setting outside its bounds in ``_AT_LEAST``, ``_AT_MOST`` or ``_DOMAINS``
    is a configuration error naming the key."""
    raw = section.get(key, default)
    kind = type(default)
    try:
        if isinstance(raw, bool) or (kind is str) != isinstance(raw, str):
            raise TypeError  # str() would accept anything, float() a JSON true as 1 and "1e1" as 10
        if kind is int and isinstance(raw, float) and not raw.is_integer():
            raise ValueError  # int() would truncate 4.7 to 4
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f'"{where}{key}" must be {_KINDS[kind]}, got {raw!r}') from None
    if key in _AT_LEAST and value < _AT_LEAST[key]:
        raise UsageError(f'"{where}{key}" must be at least {_AT_LEAST[key]}, got {value}')
    if key in _AT_MOST and value > _AT_MOST[key]:
        raise UsageError(f'"{where}{key}" must be at most {_AT_MOST[key]}, got {value}')
    if key in _DOMAINS and not _DOMAINS[key][0](value):
        raise UsageError(f'"{where}{key}" must {_DOMAINS[key][1]}, got {value!r}')
    return value


_KEPLER_PARTS = {
    "H": lambda a: kepler_model.hamiltonian(),
    "A": lambda a: kepler_model.angular_momentum(),
    "K": lambda a: kepler_model.combined_invariant(a),
}


@dataclass(frozen=True)
class _Model:
    keys: dict[str, Any]  # the "model" keys besides "kind", with their defaults
    field: Callable[..., SystemDefinition]  # the vector field, from the keys
    # a quantity token is the prefix and one or more of the parts, which
    # ``quantity(parts, **keys)`` turns into one stacked quantity
    prefix: str
    parts: str
    quantity: Callable[..., ConservedQuantitySet]


# The lambdas look each library function up when called, so a wrapper set on
# its module (bench/tracing.py wraps the field factories) sees every call.
_MODELS = {
    "kepler": _Model(
        {"a": 1.0}, lambda a: kepler_model.kepler_field(), "", "HAK",
        lambda parts, a: stack_quantities([_KEPLER_PARTS[c](a) for c in parts]),
    ),
    "toda-periodic": _Model(
        {"n": 4}, lambda n: toda.periodic_field(n), "I", "123",
        lambda parts, n: toda.periodic_invariants(n, tuple(map(int, parts))),
    ),
    "toda-nonperiodic": _Model(
        {"n": 4}, lambda n: toda.nonperiodic_field(n), "F", "123",
        lambda parts, n: toda.nonperiodic_invariants(n, tuple(map(int, parts))),
    ),
}
_LATTICES = ("toda-periodic", "toda-nonperiodic")


def _drift_evidence(drift) -> dict[str, Any]:
    if drift is None:
        return {}
    return {
        "drift_labels": list(drift.labels),
        "max_drift": [float(v) for v in drift.max_drift],
        "drift_time_of_max": [float(t) for t in drift.time_of_max],
    }


def _invariance_outcome(rep, **evidence) -> _Outcome:
    return rep.verdict, {**evidence, **_drift_evidence(rep.drift)}, rep.trajectory


def _run_rank(s: _Scenario) -> _Outcome:
    """The rank-invariance and critical-invariance checks."""
    verify = verify_critical_invariance if s.check == "critical-invariance" else verify_rank_invariance
    rep = verify(s.system, s.quantity, s.x0, s.t_end, integ=s.integ, tolerances=s.tol)
    ranks = [] if rep.sample_values is None else np.unique(rep.sample_values).tolist()
    return _invariance_outcome(
        rep, initial_rank=rep.initial_rank, ranks_seen=ranks, min_margin=float(rep.min_margin),
        message=rep.message, equilibrium=rep.equilibrium,
    )


def _run_vanishing(s: _Scenario) -> _Outcome:
    rep = verify_vanishing_invariance(
        s.system, s.quantity, s.x0, s.t_end, order=s.keys["order"], integ=s.integ, tolerances=s.tol,
    )
    return _invariance_outcome(
        rep, worst_residual=float(rep.worst_value), worst_time=float(rep.worst_time),
        threshold=rep.threshold, message=rep.message,
    )


def _run_set_persistence(s: _Scenario) -> _Outcome:
    start = s.config["initial_state"]
    set_id = s.keys["set_id"] or (start.get("set_id") if isinstance(start, dict) else None)
    if not set_id:
        raise UsageError('set-persistence needs a "set_id" (top level or in initial_state)')
    n = s.params["n"]
    own = toda.explicit_set_quantity(set_id, n).labels
    if s.quantity.labels != own:
        raise UsageError(
            f"set {set_id} is a level set of {', '.join(own)}, "
            f"but \"quantity\" selects {', '.join(s.quantity.labels)}"
        )
    rep = verify_set_persistence(
        s.system, lambda zs: toda.explicit_set_residual(set_id, n, zs), s.x0, s.t_end,
        quantity=s.quantity, integ=s.integ, tolerances=s.tol,
    )
    return _invariance_outcome(
        rep, set_id=set_id, max_residual=float(rep.worst_value), worst_time=float(rep.worst_time),
        tol=rep.threshold, message=rep.message, equilibrium=rep.equilibrium,
    )


def _run_coincidence(s: _Scenario) -> _Outcome:
    J = canonical_symplectic_matrix(2)
    rep = verify_coincidence(
        lambda x, g: g @ J.T,
        kepler_model.hamiltonian(), kepler_model.linear_pair_hamiltonian(s.params["a"]),
        s.x0, s.t_end, batched=True, flows=(kepler_model.kepler_flow, kepler_model.linear_pair_flow(s.params["a"])),
        integ=s.integ, tolerances=s.tol,
    )
    # the F flow is Kepler's equation and the G flow the pair's rotation where
    # they cover the start, each checked against its driven field
    return _invariance_outcome(
        rep, agreement_residual=rep.agreement_residual, difference_drift=rep.difference_drift,
        max_deviation=rep.worst_value, max_deviation_time=rep.worst_time, message=rep.message,
    )


def _run_oracle_equality(s: _Scenario) -> _Outcome:
    n, seed, samples = s.params["n"], s.keys["seed"], s.keys["samples"]
    if s.kind == "toda-nonperiodic" and samples * n * n > _MAX_LAX_ENTRIES:
        raise UsageError(
            f'"samples" * "model.n"^2 must be at most {_MAX_LAX_ENTRIES} on the free-end lattice, '
            f"whose oracle stacks one n-by-n Lax matrix per sample; got {samples} * {n}^2"
        )
    value_tol, gradient_tol = s.tol["value"], s.tol["gradient"]
    rng = np.random.default_rng(seed)

    # per invariant: the closed form, independent values on a stack of
    # states and a batched quantity whose finite-difference Jacobian checks
    # the closed-form gradient; every reference takes the whole stack
    references = []
    if s.kind == "toda-periodic":
        dim, lax = 2 * n, None
        for m in (1, 2, 3):
            enum = toda.henon_invariant_oracle(n, m)
            values = lambda zs, _e=enum: _e.values_many(zs)[:, 0]
            references.append((toda.periodic_invariants(n, (m,)), values, enum))
    else:
        dim, lax = 2 * n - 1, toda.lax_commutator_residual
        for k in (1, 2, 3):
            q = toda.nonperiodic_invariants(n, (k,))
            values = lambda zs, _k=k: toda.trace_invariant_value(n, _k, zs)
            references.append((q, values, ConservedQuantitySet(dim, 1, q.value, q.labels, batched=True)))

    # one draw of the (samples, dim) block is the same stream as one draw per sample
    zs = rng.standard_normal((samples, dim))
    worst_value = worst_gradient = 0.0
    for closed, values, fd_quantity in references:
        a = closed.values_many(zs)[:, 0]
        worst_value = max(worst_value, float(np.max(np.abs(a - values(zs)) / np.maximum(1.0, np.abs(a)))))
        g, fd = jacobians(closed, zs), jacobians(fd_quantity, zs)
        scales = np.maximum(1.0, np.abs(g).max(axis=(1, 2)))
        worst_gradient = max(worst_gradient, float(np.max(np.abs(g - fd).max(axis=(1, 2)) / scales)))
    worst_lax = max(0.0, float(np.max(lax(n, zs)))) if lax is not None else 0.0
    ok = worst_value <= value_tol and worst_gradient <= gradient_tol and worst_lax <= value_tol
    evidence = {
        "samples": samples, "seed": seed, "max_value_mismatch": worst_value,
        "max_gradient_mismatch": worst_gradient, "max_lax_residual": worst_lax,
        "value_tol": value_tol, "gradient_tol": gradient_tol,
    }
    return (PASS if ok else FAIL), evidence, None


def _run_drift(s: _Scenario) -> _Outcome:
    traj, broken = _flow(s.system, s.x0, s.t_end, s.integ, PREMISE_TOL)
    drift = monitor_drift(traj, s.quantity)
    tol = s.tol["drift"]
    evidence = {"worst_drift": drift.worst, "tol": tol, **_drift_evidence(drift)}
    if broken:
        return HYPOTHESIS_ERROR, {"message": broken, **evidence}, traj
    return (PASS if drift.worst <= tol else FAIL), evidence, traj


@dataclass(frozen=True)
class _Check:
    run: Callable[[_Scenario], _Outcome]
    keys: dict[str, Any]  # its own top-level keys with their defaults
    tolerances: tuple[str, ...]  # its "tolerances" keys, whose defaults are TOLERANCES
    integrates: bool = True  # reads quantity, initial_state, t_end and the "integ" keys
    horizon: Callable[[dict[str, Any]], float] = lambda params: 10.0  # default t_end
    models: tuple[str, ...] = ()  # the models it applies to; () for all
    quantity: str = ""  # the one quantity token it reads; "" for any


_RANK = _Check(_run_rank, {}, ("rank",))
_CHECKS = {
    "rank-invariance": _RANK,
    "critical-invariance": _RANK,
    "n-invariance": _Check(_run_vanishing, {"order": 1}, ("vanishing",)),
    "set-persistence": _Check(_run_set_persistence, {"set_id": ""}, ("residual",), models=_LATTICES),
    "coincidence": _Check(
        _run_coincidence, {}, ("deviation",),
        # one period of the circular orbit of radius a^2; F is the Kepler
        # energy, whose driven field is the model's
        horizon=lambda params: 2.0 * np.pi * params["a"] ** 3, models=("kepler",), quantity="H",
    ),
    "oracle-equality": _Check(
        _run_oracle_equality, {"seed": 0, "samples": 100}, ("value", "gradient"),
        integrates=False, models=_LATTICES,
    ),
    "drift": _Check(_run_drift, {}, ("drift",)),
}
_INTEG = asdict(IntegratorSettings())  # the "integ" keys with their defaults


@dataclass
class _Scenario:
    """A scenario checked against its table entries, every value converted."""

    config: dict[str, Any]
    check: str
    kind: str
    system: SystemDefinition
    params: dict[str, Any]  # the model keys
    keys: dict[str, Any]  # the check's own top-level keys
    tol: dict[str, float]  # the check's tolerances, by their names in TOLERANCES
    integ: IntegratorSettings | None
    quantity: ConservedQuantitySet | None = None
    x0: np.ndarray | None = None
    t_end: float | None = None


def _read(config) -> _Scenario:
    """Check every section of a scenario against the table entries of its
    check and model (unknown keys, types, ranges) and convert its values,
    before any numerics run."""
    name = config.get("check")
    check = _CHECKS.get(name) if isinstance(name, str) else None
    if check is None:
        raise UsageError(f"unknown check '{name}'; valid checks: {', '.join(_CHECKS)}")
    flow = ("quantity", "initial_state", "t_end") if check.integrates else ()
    common = ("label", "check", "model", "claim", "expected_verdict", "tolerances", "integ")
    keys = _fields(config, check.keys, "", name, common + flow)
    for key, default in (("label", ""), ("claim", ""), ("expected_verdict", PASS)):
        _value(config, key, default)  # the kind, and for expected_verdict the domain
    defaults = {key: TOLERANCES[key] for key in check.tolerances}
    section = _fields(_section(config, "tolerances"), defaults, "tolerances.", name)
    tol = {key: _tolerance(key, value) for key, value in section.items()}
    integ = _fields(_section(config, "integ"), _INTEG if check.integrates else {}, "integ.", name)
    try:
        integ = IntegratorSettings(**integ) if check.integrates else None
    except UsageError as exc:  # "<key> must ...": name the key in its section
        key, rest = str(exc).split(" ", 1)
        raise UsageError(f'"integ.{key}" {rest}') from None
    model = config.get("model")
    if not isinstance(model, dict) or "kind" not in model:
        raise UsageError('scenario needs a "model" object with a "kind" field')
    kind = model["kind"]
    spec = _MODELS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise UsageError(f"unknown model '{kind}'; valid models: {', '.join(_MODELS)}")
    if check.models and kind not in check.models:
        raise UsageError(f"the {name} check applies to the models {', '.join(check.models)}, not {kind}")
    params = _fields(model, spec.keys, "model.", name, ("kind",))
    s = _Scenario(config, name, kind, spec.field(**params), params, keys, tol, integ)
    if check.integrates:
        s.quantity = _quantity_of(config, check, name, kind, params)
        s.x0 = _initial_state(config.get("initial_state"), params, s.system.dim, name)
        s.t_end = _value(config, "t_end", check.horizon(params))
    return s


def _quantity_of(config, check: _Check, name: str, kind: str, params) -> ConservedQuantitySet:
    token = config.get("quantity")
    if check.quantity and token != check.quantity:
        raise UsageError(f'the {name} check needs "quantity": "{check.quantity}", got {token!r}')
    if token is None:
        raise UsageError('scenario needs a "quantity" field')
    spec, quantities = _MODELS[kind], []
    for t in map(str, token if isinstance(token, list) else [token]):
        parts = t[len(spec.prefix) :]
        if not (t.startswith(spec.prefix) and parts and set(parts) <= set(spec.parts)):
            raise UsageError(
                f"quantity '{t}' is not available for model '{kind}' "
                f"(its tokens match {spec.prefix}[{spec.parts}]+, such as {spec.prefix}{spec.parts})"
            )
        quantities.append(spec.quantity(parts, **params))
    return stack_quantities(quantities) if isinstance(token, list) else quantities[0]


# The object forms of "initial_state" besides {"set_id": ..., "params": ...},
# with their keys and defaults; a key the model also has defaults to the model's.
_STARTS = {"circular": {"a": 1.0, "theta": 0.0}, "random": {"seed": 0, "scale": 1.0}}


def _finite_fields(section, defaults: dict[str, Any], where: str, check: str) -> dict[str, Any]:
    """:func:`_fields` whose values must also be finite, as JSON's
    ``Infinity`` and ``NaN`` are not: one that is not is a configuration
    error naming its key."""
    values = _fields(section, defaults, where, check)
    for key, value in values.items():
        if not math.isfinite(value):
            raise UsageError(f'"{where}{key}" must be finite, got {value!r}')
    return values


def _initial_state(entry, params, dim: int, check: str) -> np.ndarray:
    if entry is None:
        raise UsageError('scenario needs an "initial_state" field')
    if isinstance(entry, list):
        for i, v in enumerate(entry):
            if isinstance(v, bool) or not isinstance(v, (int, float)):  # as_state would read true as 1, "1" as 1
                raise UsageError(f'"initial_state" component {i} must be a number, got {v!r}')
            if not abs(v) <= sys.float_info.max:  # NaN, an infinity, or an integer that no float holds
                raise UsageError(f'"initial_state" component {i} must be finite, got {v!r}')
        return as_state(entry, dim)
    if not isinstance(entry, dict):
        raise UsageError('"initial_state" must be a vector or an object')
    form = next((key for key in ("set_id", *_STARTS) if key in entry), None)
    if form is None:
        raise UsageError(f'"initial_state" object needs one of: set_id, {", ".join(_STARTS)}')
    _fields(entry, {}, "initial_state.", check, ("set_id", "params") if form == "set_id" else (form,))
    if form == "set_id":
        if "n" not in params:
            raise UsageError("explicit set samples apply to the lattice models")
        p = _section(entry, "params")
        family = _finite_fields(p, dict.fromkeys(p, 0.0), "initial_state.params.", check)
        return toda.explicit_set_sample(_value(entry, "set_id", "", "initial_state."), params["n"], family)
    if form == "circular" and "a" not in params:
        raise UsageError("circular samples apply to the kepler model")
    defaults = {key: params.get(key, default) for key, default in _STARTS[form].items()}
    v = _finite_fields(_section(entry, form), defaults, f"initial_state.{form}.", check)
    if form == "circular":
        return kepler_model.circular_sample(v["a"], v["theta"])
    with np.errstate(over="ignore"):
        state = v["scale"] * np.random.default_rng(v["seed"]).standard_normal(dim)
    if not np.isfinite(state).all():
        raise UsageError(f'"initial_state.random.scale" overflows the state, got {v["scale"]!r}')
    return state


def run_scenario(config: dict[str, Any]) -> RunReport:
    """Execute one scenario and return its report.

    Configuration problems raise :class:`UsageError`; numerical verdicts
    (including hypothesis errors) are reported, not raised.  An integration
    stopped before ``t_end`` (a flow that ceases to exist, or a spent step
    budget) is a hypothesis error naming the last sample time and the cause.
    So is any other numeric failure, such as a singular gradient at the
    start, where the check's premises cannot be evaluated.
    """
    started = time.perf_counter()
    s = _read(config)
    try:
        verdict, evidence, traj = _CHECKS[s.check].run(s)
    except IntegrationError as exc:
        t = exc.last_good_time
        message = f"integration stopped before t_end={s.t_end:.6g}: last sample time reached {t:.6g}; {exc}"
        verdict, evidence, traj = HYPOTHESIS_ERROR, {"message": message, "last_sample_time": t}, None
    except NumericError as exc:
        message = f"a numeric failure stopped the check: {exc}"
        verdict, evidence, traj = HYPOTHESIS_ERROR, {"message": message}, None
    return RunReport(
        label=config.get("label", "unnamed"),
        check=s.check,
        verdict=verdict,
        evidence=evidence,
        config=config,
        elapsed_seconds=time.perf_counter() - started,
        flow=None if traj is None else (traj, s.quantity, s.system),
    )


def require_trajectory(check: str) -> None:
    """Raise :class:`UsageError` unless the check integrates a trajectory."""
    if not _CHECKS[check].integrates:
        raise UsageError(f"the {check} check integrates no trajectory to export as CSV")


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
