"""The answer gate: every job's output is checked against the answer pinned
in expected.json (written by pin.py, with the provenance of each answer).

A job fails on a nonzero exit, output that is not a JSON report, a failing
check, a negative dimension, or `dims`/`routes`/`table` that differ from
the pinned ones.
"""

from __future__ import annotations

import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")
PINNED_KEYS = ("dims", "routes", "table")


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def _negative(report: dict) -> bool:
    values = list(report.get("dims", []))
    for route in report.get("routes", {}).values():
        values.extend(route)
    for row in report.get("table", []):
        values.extend((row["dim"], row["rank"]))
    return any(v < 0 for v in values)


def problems(exit_code: int, output: str, expected: dict | None) -> list:
    """Why a job's result is wrong; empty when it is right.

    `expected` is None for validate jobs, which are only required to exit 0
    with every axiom check passing.
    """
    found = []
    if exit_code != 0:
        found.append(f"exit code {exit_code}")
    try:
        report = json.loads(output)
    except ValueError:
        return found + ["output is not a JSON report"]
    if not isinstance(report, dict):
        return found + ["output is not a JSON report"]
    if "error" in report:
        found.append(f"error {report['error']}")
    failing = [c["name"] for c in report.get("checks", []) if not c["pass"]]
    if failing:
        found.append(f"failing checks {failing}")
    if _negative(report):
        found.append("negative dimension")
    if expected is None:
        if not report.get("checks"):
            found.append("no checks reported")
        return found
    for key in PINNED_KEYS:
        if key in expected and report.get(key) != expected[key]:
            found.append(f"{key} {report.get(key)!r} != pinned {expected[key]!r}")
    return found
