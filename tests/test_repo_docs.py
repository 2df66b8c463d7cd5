"""Repository hygiene: the README names only paths that exist, the
dependencies pyproject.toml declares, the CLI's own subcommands and the
config's own screening methods, and every committed scenario parses as a
power-study config."""

import json
import pathlib
import re

import pytest

from tehscreen import cli
from tehscreen.config import SCREENS, load_study

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOP_DIRS = ("src", "scenarios", "tests", "perfbench", "scripts")


def test_readme_names_only_existing_paths():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paths = set(re.findall(rf"\b(?:{'|'.join(TOP_DIRS)})/(?:[\w./-]*[\w/])?", text))
    modules = set(re.findall(r"`(\w+\.py)`", text))
    missing = [p for p in sorted(paths) if not (ROOT / p).exists()]
    missing += [
        m for m in sorted(modules)
        if not any((ROOT / d / m).exists() for d in ("src/tehscreen", "tests"))
    ]
    assert paths and modules
    assert missing == []


def _readme_packages(label):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    line = re.search(rf"^{label}: (.*)$", text, re.MULTILINE)
    return sorted(re.findall(r"`([\w-]+)`", line.group(1))) if line else None


def _declared_packages(requirements):
    return sorted(re.match(r"[\w-]+", req).group(0) for req in requirements)


def test_readme_dependencies_match_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert _readme_packages("Dependencies") == _declared_packages(project["dependencies"])
    assert _readme_packages("Test dependencies") == _declared_packages(
        project["optional-dependencies"]["test"]
    )


@pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.json")), ids=lambda p: p.name)
def test_committed_scenario_parses(path):
    spec, methods = load_study(json.loads(path.read_text(encoding="utf-8")))
    assert spec.p >= 1 and methods


def test_readme_names_every_cli_command_and_no_other():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?:^|`)tehscreen ([a-z]+(?:-[a-z]+)*)", text, re.MULTILINE))
    subparsers = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert named == set(subparsers.choices)


def test_readme_names_every_screening_method_and_no_other():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    row = re.search(r"^\| `screening\.method` \|.*\|(.*)\|$", text, re.MULTILINE)
    assert sorted(re.findall(r"`(\w+)`", row.group(1))) == sorted(SCREENS)
