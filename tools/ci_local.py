"""Run the steps of the CI workflow on this checkout, in order.

    python3 tools/ci_local.py [WORKFLOW]

WORKFLOW defaults to ``.github/workflows/tests.yml``.  Each ``run:`` block
runs under ``bash -e -o pipefail`` from the repository root, as a GitHub
runner runs it, with ``RUNNER_TEMP`` a fresh temporary directory that is
removed afterwards and ``src`` first on ``PYTHONPATH``.  ``uses:`` steps
(checkout, setup-python) and the step that pip-installs the package are
skipped: the checkout is this one, and the package runs from ``src``.

It prints one line per step, its name and its exit code or why it was
skipped, and writes a failed step's output to stderr.  It exits 1 if any
step failed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def steps(workflow: Path = WORKFLOW) -> list:
    """(name, script or None, why it is skipped or None) of every step of
    every job, in file order."""
    document = yaml.safe_load(workflow.read_text(encoding="utf-8"))
    found = []
    for job in document["jobs"].values():
        for step in job["steps"]:
            script = step.get("run")
            name = step.get("name") or step.get("uses") or script.splitlines()[0]
            if script is None:
                found.append((name, None, f"uses: {step['uses']}"))
            elif "pip install" in script:
                found.append((name, None, "installs the package, which runs from src"))
            else:
                found.append((name, script, None))
    return found


def main(argv: list) -> int:
    workflow = Path(argv[0]) if argv else WORKFLOW
    python_path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                os.environ.get("PYTHONPATH")]))
    status = 0
    for name, script, skipped in steps(workflow):
        if skipped:
            print(f"skipped  {name}: {skipped}", flush=True)
            continue
        with tempfile.TemporaryDirectory(prefix="runner-temp-") as temp:
            env = dict(os.environ, RUNNER_TEMP=temp, PYTHONPATH=python_path)
            proc = subprocess.run(["bash", "-e", "-o", "pipefail", "-c", script],
                                  cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
        print(f"exit {proc.returncode:<3} {name}", flush=True)
        if proc.returncode:
            status = 1
            sys.stderr.write(proc.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
