"""The paired benchmark records ``BENCH_<pr>.json`` at the repository root.

Each record holds, for each series of paired ``perfbench/run.py`` runs and
each workload in it, the pair count, the seeds and the parent's and the
change's medians of the four end-to-end metrics of BENCHMARK.json, with both
commits, the host, numpy's SIMD level and the versions.  A record copied
from CHANGES.md says ``"transcribed": true`` and holds null wherever
CHANGES.md gave no value; a measured record leaves no metric, seed or
environment field null.  Standard library only.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = ("pr", "transcribed", "command", "parent_commit", "change_commit", "host",
          "numpy_simd", "versions", "series")
METRICS = ("call1_s", "serial_cycle_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("mc_halves", "mc_single", "closed_form", "waveform_timing")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_fields(path):
    record = json.loads(path.read_text())
    assert all(name in record for name in FIELDS)
    assert path.name == f"BENCH_{record['pr']}.json"
    assert type(record["transcribed"]) is bool
    measured = not record["transcribed"]
    for name in ("parent_commit", "change_commit", "host", "numpy_simd"):
        assert record[name] is None or isinstance(record[name], str) and record[name]
    for name in ("parent_commit", "host", "numpy_simd", "versions"):
        assert record[name] is not None or not measured, name
    versions = record["versions"] or {}
    assert all(isinstance(value, str) for value in versions.values())
    assert record["series"]
    for series in record["series"]:
        assert series["workloads"]
        for workload, entry in series["workloads"].items():
            assert workload in WORKLOADS
            assert type(entry["pairs"]) is int and entry["pairs"] >= 1
            seeds = entry["seeds"]
            assert seeds is None or seeds and all(type(seed) is int for seed in seeds)
            assert seeds is not None and len(seeds) == entry["pairs"] or not measured
            for side in ("parent", "change"):
                assert sorted(entry[side]) == sorted(METRICS)
                for value in entry[side].values():
                    assert value is None and not measured or type(value) is float and value > 0
