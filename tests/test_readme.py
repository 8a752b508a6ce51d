"""The README's examples run as written against the library and the CLI."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced block in the given language after the heading."""
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S)[1]


def test_quickstart_prints_what_its_comments_say():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library quickstart", "python"), {})
    assert out.getvalue().split() == ["4", "28"]


def test_command_lines_exit_zero():
    cli = f"{shlex.quote(sys.executable)} -m latindist.cli"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # as the demos run: development mode, warnings raised as errors
    env = dict(os.environ, PYTHONPATH=path, PYTHONDEVMODE="1", PYTHONWARNINGS="error")
    lines = [line for line in _block("Command line", "sh").splitlines() if line.strip()]
    assert lines and all(line.startswith("latindist ") for line in lines)
    for line in lines:
        command = re.sub(r"\blatindist\b", lambda _: cli, line)
        proc = subprocess.run(["sh", "-c", command], env=env, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), line
        assert proc.stdout, line
