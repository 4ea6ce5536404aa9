"""Byte-identical CLI reports: each run must reproduce its recorded golden
output and exit code.  The goldens under ``tests/data/golden/`` were
written by the commit before root-step memoisation and lift membership by
construction; a change that alters a report or a verdict shows up here."""

import json
import os

import pytest

from relrew.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")
TRS_DIR = os.path.join(ROOT, "perfbench", "data")

with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as f:
    EXIT_CODES = json.load(f)


def _argv(name):
    if name == "check-laws-seed3-samples5.json":
        return ["check-laws", "--seed", "3", "--samples", "5"]
    _, trs, check, _ = name[:-len(".json")].split("-")
    return ["analyze", os.path.join(TRS_DIR, f"{trs}.trs"), check,
            "--depth", "2", "--format", "json"]


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_golden_report(name, capsys):
    code = main(_argv(name))
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
        assert out == f.read()
    assert code == EXIT_CODES[name]
