"""Bit-identity contract for the ``repro.core.engine`` refactor.

``tests/data/engine_equivalence.json`` froze the canonicalized results
of the full workload (``tests/engine_equivalence_data.py``) as produced
by the pre-refactor pipelines.  This suite re-runs the identical
workload against the current code and asserts exact equality — answers,
counters, ``completed_steps``/``interrupted_step`` bookkeeping and the
degraded salvage paths all included.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

import pytest

from tests.engine_equivalence_data import (
    SEEDS,
    build_engine,
    run_ablation_workload,
    run_workload,
)

DATA = os.path.join(os.path.dirname(__file__), "data",
                    "engine_equivalence.json")

@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    with open(DATA, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["format"] == 1
    return payload


def _diff_runs(expected: List[Dict[str, Any]],
               actual: List[Dict[str, Any]], label: str) -> None:
    assert len(actual) == len(expected), label
    for exp, act in zip(expected, actual):
        assert act["query"] == exp["query"], label
        assert act["result"] == exp["result"], (
            f"{label}: result drifted for query {exp['query']!r}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_workload_bit_identical(golden: Dict[str, Any], seed: int) -> None:
    expected = golden["seeds"][str(seed)]
    actual = run_workload(build_engine(seed))
    for semantics in ("blinks", "rclique", "banks", "knk", "knk_multi"):
        _diff_runs(expected[semantics], actual[semantics],
                   f"seed {seed} {semantics}")


@pytest.mark.parametrize("seed", SEEDS)
def test_ablated_workload_bit_identical(golden: Dict[str, Any],
                                        seed: int) -> None:
    expected = golden["seeds"][str(seed)]["ablation"]
    actual = run_ablation_workload(build_engine(seed, ablate=True))
    for semantics in ("blinks", "rclique", "knk"):
        _diff_runs(expected[semantics], actual[semantics],
                   f"seed {seed} ablation/{semantics}")
