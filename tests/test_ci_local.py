"""tools/ci_local.py: the CI workflow's steps, run on this checkout."""

import importlib.util
import re
from pathlib import Path

import yaml

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ci_local.py"
_spec = importlib.util.spec_from_file_location("ci_local", TOOL)
ci_local = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_local)


def test_every_workflow_step_is_named():
    document = yaml.safe_load(ci_local.WORKFLOW.read_text(encoding="utf-8"))
    declared = [step for job in document["jobs"].values() for step in job["steps"]]
    found = ci_local.steps()
    assert len(found) == len(declared)
    assert all("name" in step for step in declared if "run" in step)
    names = [name for name, _, _ in found]
    assert len(set(names)) == len(names)
    skipped = [name for name, _, why in found if why]
    assert skipped == ["actions/checkout@v4", "actions/setup-python@v5", "Install"]
    assert "Tier-1 tests" in names and "Benchmark self-checks" in names


def test_runs_each_step_under_pipefail_in_its_own_runner_temp(tmp_path, capsys):
    workflow = tmp_path / "flow.yml"
    workflow.write_text("""
jobs:
  one:
    steps:
      - uses: actions/checkout@v4
      - name: Install
        run: python -m pip install -e .
      - name: Writes to RUNNER_TEMP
        run: |
          echo kept > "$RUNNER_TEMP/note"
          test "$(cat "$RUNNER_TEMP/note")" = kept
      - name: Starts with an empty RUNNER_TEMP
        run: test -z "$(ls -A "$RUNNER_TEMP")"
      - name: A failing pipe
        run: |
          echo before
          false | true
          echo after
""", encoding="utf-8")
    assert ci_local.main([str(workflow)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "skipped  actions/checkout@v4: uses: actions/checkout@v4",
        "skipped  Install: installs the package, which runs from src",
        "exit 0   Writes to RUNNER_TEMP",
        "exit 0   Starts with an empty RUNNER_TEMP",
        "exit 1   A failing pipe"]
    assert err == "before\n"


def test_workflow_runs_only_what_tier1_cannot():
    # tier-1 holds every CLI contract: each step installs the package or
    # runs pytest, and none runs volswap itself
    commands = [step["run"] for job in yaml.safe_load(
        ci_local.WORKFLOW.read_text(encoding="utf-8"))["jobs"].values()
        for step in job["steps"] if "run" in step]
    assert all(re.search(r"-m (pip install|pytest) ", command)
               and "volswap" not in command for command in commands), commands
