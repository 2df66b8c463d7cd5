"""Repository hygiene: the README names only paths that exist, and every
committed scenario parses as a power-study config."""

import json
import pathlib
import re

import pytest

from tehscreen.config import load_study

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


@pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.json")), ids=lambda p: p.name)
def test_committed_scenario_parses(path):
    spec, methods = load_study(json.loads(path.read_text(encoding="utf-8")))
    assert spec.p >= 1 and methods
