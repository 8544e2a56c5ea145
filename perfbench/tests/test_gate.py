"""The answer gate must catch every kind of wrong answer, including a
pinned expectation that no longer matches what the program prints."""

import copy
import json
import os
import tempfile

import pytest

from gate import load_expected, problems
from inputs import WORK_DIR
from run import Runner

GOOD = {"mode": "SH", "dims": [1, 1, 0], "routes": {"homogeneous": [1, 1, 0]},
        "checks": [{"name": "routes_agree", "pass": True}]}
PINNED = {"dims": [1, 1, 0], "routes": {"homogeneous": [1, 1, 0]}}


def test_matching_answer_passes():
    assert problems(0, json.dumps(GOOD), PINNED) == []


@pytest.mark.parametrize("change, reason", [
    (lambda r: r.update(dims=[1, 2, 0]), "dims"),
    (lambda r: r["routes"].update(homogeneous=[1, 1, 1]), "routes"),
    (lambda r: r.update(dims=[1, -3, 0]), "negative dimension"),
    (lambda r: r["checks"][0].update({"pass": False}), "failing checks"),
])
def test_wrong_answers_are_caught(change, reason):
    report = copy.deepcopy(GOOD)
    change(report)
    found = problems(0, json.dumps(report), PINNED)
    assert any(reason in p for p in found), found


def test_nonzero_exit_and_garbage_are_caught():
    assert problems(4, json.dumps(GOOD), PINNED) == ["exit code 4"]
    assert problems(0, "Traceback (most recent call last):", PINNED) == \
        ["output is not a JSON report"]


def test_validate_job_needs_passing_checks():
    assert problems(0, json.dumps({"checks": []}), None) == ["no checks reported"]


def test_corrupted_expectation_is_caught_on_a_real_job():
    """A real CLI job passes against its pinned answer and fails, counted,
    once that answer is corrupted."""
    expected = load_expected()
    corrupted = copy.deepcopy(expected)
    corrupted["SH-C5-res"]["dims"][1] += 1
    args = ["--algebra", "Cp:5", "--field", "gf:5", "--mode", "SH",
            "--max-degree", "7", "--route", "resolution"]
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        good = Runner(tmp, expected)
        good.job("SH-C5-res", args, "SH-C5-res", traced=False)
        bad = Runner(tmp, corrupted)
        bad.job("SH-C5-res", args, "SH-C5-res", traced=False)
    assert (good.attempted, good.failed) == (1, 0)
    assert (bad.attempted, bad.failed) == (1, 1)
