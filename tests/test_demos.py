"""Each demo, and the README's Python quick start, runs to completion against
the installed public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_all_demos_found():
    assert [d.name for d in DEMOS] == ["fit_turbulence.py", "outage_curves.py",
                                       "scheduling_tradeoff.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run_clean():
    # the README's two Python blocks, in order, as one script in which any
    # warning is an error
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 2
    proc = _run(["-W", "error", "-c", "".join(blocks)])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3 + 9  # three values, then nine curve rows
