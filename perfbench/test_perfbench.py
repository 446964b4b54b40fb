"""The benchmark's own checks (not part of the package's test suite):

    python3 -m pytest -q perfbench

Each traced pass takes 10-20 s on a 2-CPU machine.
"""

import json
import shutil
import subprocess

import pytest

import run
import spans


def test_self_time_subtracts_direct_children_only():
    recs = [
        ["a.outer", 0.0, 10.0, -1, 0],
        ["b.child", 1.0, 4.0, 0, 0],
        ["c.grandchild", 2.0, 3.0, 1, 0],
        ["b.child", 5.0, 6.0, 0, 0],
    ]
    agg = spans.summarize(recs)
    assert agg["a.outer"]["self_s"] == pytest.approx(6.0)
    assert agg["b.child"] == {"count": 2, "incl_s": 4.0, "self_s": 3.0, "outer_s": 4.0}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_spans_fire_and_counts_repeat(workload):
    """Every span mapped to the workload fires, on every binding site
    found, and the deterministic counts repeat across two traced passes."""
    counts = []
    for _ in range(2):
        runner = run.Runner(workload, seed=3, seconds=0)
        traced = runner.serial_pass(trace=True)
        assert traced is not None and not runner.tally.failures, runner.tally.failures
        export = traced["child"].result["trace"]
        metrics, fired = spans.layer_metrics(export)
        expected = {n for n, wls in spans.SPAN_WORKLOADS.items() if workload in wls}
        assert expected <= set(fired), sorted(expected - set(fired))
        assert set(export["sites"]) == set(spans.FUNCTIONS)
        counts.append({k: metrics[k] for k in spans.DETERMINISTIC})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    out = subprocess.run(
        spec["command"]
        + ["--workload", "quad-table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
