"""The scripts under scripts/ run to completion against the package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = [
    ["scripts/worked_example.py"],
    ["scripts/survey_random_instances.py", "--count", "8", "--max-vars", "2", "--seed", "1"],
]


@pytest.mark.parametrize("argv", SCRIPTS, ids=lambda argv: Path(argv[0]).stem)
def test_script_exits_zero(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
