"""The README's library quickstart runs as shown and prints what it says,
every library call that the README and the demos name exists, and each
check's settings table and the "integ" keys are the scenario schema's."""

import importlib
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from invarsets import IntegratorSettings
from invarsets.core import TOLERANCES
from invarsets.report import _CHECKS

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quickstart_prints_three_passes():
    quickstart = re.search(r"## Library quickstart\s+```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert quickstart is not None
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", quickstart.group(1)],
        env=env, capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    rank, *verdicts = done.stdout.splitlines()
    assert rank == "2"
    assert [line.split()[0] for line in verdicts] == ["pass", "pass", "pass"]


MODULES = ("toda", "kepler", "oscillator", "core", "integrate", "invariance", "coincidence", "rank_sets",
           "differentiate", "report")
CALL = re.compile(rf"(?<![\w.])({'|'.join(MODULES)}|invarsets)\.(\w+)\(")


def test_every_library_call_in_the_docs_resolves():
    # a function removed from the library cannot stay named in the docs
    docs = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    calls = {(path.name, *match.groups()) for path in docs for match in CALL.finditer(path.read_text())}
    assert len({call[1:] for call in calls}) >= 20
    modules = {name: importlib.import_module("invarsets" if name == "invarsets" else f"invarsets.{name}")
               for name in (*MODULES, "invarsets")}
    assert [call for call in sorted(calls) if not hasattr(modules[call[1]], call[2])] == []


def test_readme_settings_tables_match_the_scenario_schema():
    # each check's table lists its own keys, t_end when it integrates, and one
    # row per tolerance with the default of core.TOLERANCES, and nothing else
    readme = (ROOT / "README.md").read_text()
    for name, check in _CHECKS.items():
        # the paragraph that opens with the check's name, then its table
        heading = rf"\n\n`{re.escape(name)}`[^|\n]*\n(?:[^|\n]+\n)*\n"
        table = re.search(heading + r"\| key \| default \|\n\|---\|---\|\n((?:\|.*\n)+)", readme)
        assert table is not None, name
        rows = dict(re.findall(r"^\| `([\w.]+)` \| (.*) \|$", table.group(1), re.M))
        assert len(rows) == len(table.group(1).splitlines()), name
        tolerances = {f"tolerances.{tol}": TOLERANCES[tol] for tol in check.tolerances}
        assert sorted(rows) == sorted([*check.keys, *(["t_end"] if check.integrates else []), *tolerances]), name
        assert {key: float(rows[key].split(",")[0]) for key in tolerances} == tolerances, name


def test_readme_integ_keys_are_the_integrator_settings():
    # the sentence that lists the "integ" keys names each field of IntegratorSettings with its default
    sentence = re.search(r"the\s+`integ`\s+keys\s+(.*?\))\.\s", (ROOT / "README.md").read_text(), re.S)
    assert sentence is not None
    keys = re.findall(r"`(\w+)`\s+\(([^,)]+)", sentence.group(1))
    assert {key: float(default) for key, default in keys} == asdict(IntegratorSettings())
    assert len(keys) == len(asdict(IntegratorSettings()))
