"""The committed BENCH_<label>.json records, which back every performance claim.

Each record must parse and hold the keys the records share: what changed,
against which parent, on which harness and machine, by which method, the
per-workload numbers, and the claim with its pair count and verdict. A
claim counts as met only when the change won at least nine in ten of its
pairs of runs.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
RECORD_KEYS = {
    "label", "change", "parent_commit", "harness", "machine", "method", "workloads", "claim",
}
CLAIM_KEYS = {"workload", "metric", "pairs", "pairs_won", "met"}


def test_bench_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_holds_the_shared_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert RECORD_KEYS <= record.keys()
    assert record["label"] == path.stem.removeprefix("BENCH_")
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"])
    assert isinstance(record["workloads"], dict) and record["workloads"]
    claim = record["claim"]
    assert CLAIM_KEYS <= claim.keys()
    assert claim["workload"] in record["workloads"]
    assert isinstance(claim["met"], bool)
    assert 0 <= claim["pairs_won"] <= claim["pairs"]
    if claim["met"]:
        assert claim["pairs_won"] >= 0.9 * claim["pairs"]
    for workload in record["workloads"].values():
        assert isinstance(workload["quality_identical_per_seed"], bool)
        assert isinstance(workload["every_check_passed"], bool)
