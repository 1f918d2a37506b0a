"""Every demo script, the README quickstart and the README's command lines
run to completion against the package in src/."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from newton_strata import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _runs_and_prints(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    _runs_and_prints(str(demo))


def test_readme_quickstart_runs():
    # the README's python blocks, in order, as one script: every name they
    # use stays importable and every call stays valid
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    assert len(blocks) >= 2
    _runs_and_prints("-c", "\n".join(blocks))


def test_readme_command_lines_exit_as_documented(capsys, monkeypatch):
    # every `newton-strata` line of the README's command-line block, run
    # in-process: the adlv example is empty (exit 1), the rest succeed (0)
    monkeypatch.delenv("NEWTON_STRATA_SEED", raising=False)
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, flags=re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("newton-strata ")]
    assert lines
    for argv in lines:
        want = 1 if argv[1] == "adlv" else 0
        assert cli.main(argv[1:]) == want, argv
        assert capsys.readouterr().out.strip(), argv
