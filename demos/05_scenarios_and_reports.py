"""Batch certification through scenario files.

Every claim the library certifies is also expressible as a JSON scenario;
the shipped scenarios/ directory doubles as executable documentation.
This script runs the whole directory in-process and prints the summary
table, then exports one trajectory as CSV.  The same thing from a shell:

    invarsets run-all scenarios
    invarsets run scenarios/toda-periodic-rank-pattern.json --csv pattern.csv
"""

import tempfile
from pathlib import Path

from invarsets.report import export_trajectory, load_scenario, run_directory, run_scenario

scenario_dir = Path(__file__).resolve().parents[1] / "scenarios"

reports = [report for _, report in run_directory(scenario_dir)]
width = max(len(r.label) for r in reports)
for report in reports:
    expected = report.config.get("expected_verdict", "pass")
    marker = "ok" if report.verdict == expected else "UNEXPECTED"
    print(f"{report.label:<{width}}  {report.check:<16} {report.verdict:<16} {marker}")

print()
config = load_scenario(scenario_dir / "toda-periodic-rank-pattern.json")
config.setdefault("integ", {})["sample_count"] = 21
traj, quantity, system = run_scenario(config).flow  # the trajectory the check integrated
out = Path(tempfile.gettempdir()) / "toda_pattern_trajectory.csv"
export_trajectory(traj, quantity, out, system.component_names)
print(f"exported {len(traj)} samples to {out}")
print("first two lines:")
for line in out.read_text().splitlines()[:2]:
    print(" ", line if len(line) < 120 else line[:117] + "...")
