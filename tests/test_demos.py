"""Every demo and the README's library example run to the end against the
package in src/, so a change to the public API that breaks one fails the
tests; and CI runs every line of the README's command-line section."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    # a fresh interpreter, as `PYTHONPATH=src python demos/<name>.py`
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def readme_block(heading):
    """The first fenced code block under the README's `## heading`."""
    text = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return text.split("```", 2)[1].split("\n", 1)[1]


def test_readme_library_block_prints_its_comments():
    # each print's comment, up to a two-space gloss, is the line it prints
    code = readme_block("Library")
    expected = [line.split("# ", 1)[1].split("  ")[0]
                for line in code.splitlines() if line.startswith("print(")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected and proc.stdout.splitlines() == expected


def test_ci_runs_every_readme_command_line():
    # the CI step that installs the package says it runs every line of the
    # README's command-line section
    commands = [line.split("#", 1)[0].rstrip()
                for line in readme_block("Command line").splitlines()
                if line.startswith("cks-kit ")]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    lines = {line.strip() for line in workflow.splitlines()}
    assert commands and [c for c in commands if c not in lines] == []
