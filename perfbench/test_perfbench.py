"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The call-count test traces one pass of every workload and takes about a
minute; the others take seconds.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import INTERVAL_S, HostSpeed  # noqa: E402
from tracing import SPAN_METRICS, Tracer  # noqa: E402

# Layer metrics the table in NOTES.md predicts to be zero (False) or
# nonzero (True) per workload, set-up included.
PREDICTED_CALLS = {
    "run-m3": {
        "pipeline.random_instance": True,
        "pipeline.check_hypotheses": True,
        "pipeline.gcd_iterations": True,
        "ideals.height_in_hypersurface": True,
        "matrices.det": True,
        "matrices.minors": True,
        "ring.Polynomial.exact_div": True,
        "groebner.groebner_basis.grevlex": True,
        "pipeline.verify_main_theorem": False,
        "ideals.saturate": False,
        "ideals.colon_power_chain": False,
        "groebner.groebner_basis.elim_aux": False,
        "ideals.Ideal.contains": False,
        "groebner.normal_form": False,
    },
    "verify-m1": {
        "pipeline.random_instance": True,
        "pipeline.check_hypotheses": True,
        "pipeline.gcd_iterations": True,
        "pipeline.verify_main_theorem": True,
        "pipeline.verify_well_definedness": True,
        "pipeline.minimality_and_invariants": True,
        "pipeline.optional_structural_checks": True,
        "ideals.saturate": True,
        "ideals.colon_power_chain": True,
        "groebner.groebner_basis.elim_aux": True,
        "groebner.groebner_basis.grevlex": True,
        "ideals.Ideal.contains": True,
        "groebner.normal_form": True,
        "matrices.det": True,
        "ring.Polynomial.exact_div": True,
    },
    "recheck-m3": {
        "pipeline.random_instance": True,
        "pipeline.check_hypotheses": True,
        "pipeline.gcd_iterations": True,
        "pipeline.verify_well_definedness": True,
        "pipeline.minimality_and_invariants": True,
        "groebner.groebner_basis.grevlex": True,
        "ideals.Ideal.contains": True,
        "groebner.normal_form": True,
        "matrices.det": True,
        "ring.Polynomial.exact_div": True,
        "pipeline.verify_main_theorem": False,
        "pipeline.optional_structural_checks": False,
        "ideals.saturate": False,
        "ideals.colon_power_chain": False,
        "groebner.groebner_basis.elim_aux": False,
    },
}


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _golden_ops(workdir):
    return [workloads.make_op(kind, "golden", workloads.FIRST_PRIME,
                              workdir)
            for kind in ("run", "verify", "recheck")]


def test_traced_and_untraced_outputs_identical(workdir):
    ops = _golden_ops(workdir)
    ops.append(workloads.make_op("run", (1, 0), workloads.FIRST_PRIME,
                                 workdir))
    untraced = run.measure(ops, 0)
    tracer = Tracer()
    with tracer:
        traced = run.measure(ops, 0, tracer, untraced.answers)
    assert untraced.failed == traced.failed == 0
    assert traced.answers == untraced.answers
    assert tracer.spans
    assert not hasattr(workloads.pipeline.gcd_iterations, "__wrapped__")


@pytest.mark.parametrize("workload", sorted(PREDICTED_CALLS))
def test_layer_calls_match_predictions(workload, workdir):
    tracer = Tracer()
    with tracer:
        ops = workloads.build_ops(workload, 0, workdir)
        result = run.measure(ops, 0, tracer)
    assert result.failed == 0
    metrics = tracer.layer_metrics(result.passes)
    wrong = {name: metrics[name + ".calls"][0]
             for name, nonzero in PREDICTED_CALLS[workload].items()
             if (metrics[name + ".calls"][0] > 0) != nonzero}
    assert not wrong


def test_corrupted_expected_answer_is_a_failure(workdir):
    op = workloads.make_op("run", "golden", workloads.FIRST_PRIME, workdir)
    code, doc = workloads.execute(op)
    ans = workloads.answer(op, code, doc)
    assert op.expected.failures(ans) == []

    g1, g2, g3 = op.expected.gcds
    bad_gcds = [g2, g1, g3]
    corrupted = [workloads.Expected(4, 3, bad_gcds),
                 workloads.Expected(4, 2, op.expected.gcds),
                 workloads.Expected(6, 3)]
    for expected in corrupted:
        assert expected.failures(ans)
        op.expected = expected
        result = run.measure([op], 0)
        assert (result.attempted, result.failed) == (1, 1)

    skipped = dict(ans, statuses=dict(ans["statuses"]))
    skipped["statuses"]["hypotheses/pfaffian-height"] = "skip"
    assert workloads.Expected(4, 3).failures(skipped)
    assert workloads.Expected(4, 3).failures({"error": "boom"})


def test_seed_changes_random_instances_not_golden(workdir):
    first = workloads.build_ops("verify-m1", 0, workdir)
    again = workloads.build_ops("verify-m1", 0, workdir)
    other = workloads.build_ops("verify-m1", 1, workdir)
    assert [op.instance for op in first] == [op.instance for op in again]
    assert first[0].label == other[0].label == "verify:golden"
    assert first[0].instance == other[0].instance
    for a, b in zip(first[1:], other[1:]):
        assert a.instance != b.instance


def test_host_speed_samples_during_the_block_and_cleans_up():
    handler = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        deadline = perf_counter() + 5 * INTERVAL_S
        while perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 3
    assert 0 < speed.spent < speed.raw_s
    assert speed.scaled_s > 0

    with HostSpeed() as empty:
        pass
    assert len(empty.samples) == 1
    assert 0 <= empty.scaled_s < 0.01


def test_benchmark_json_names_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(
        ["wall_s", "setup_s", "peak_rss_mb"])
    layer = Tracer().layer_metrics(1)
    names = list(layer) + ["trace.wall_s", "trace.untraced_wall_s",
                           "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == names
    units = {name: unit for name, (_, unit) in layer.items()}
    for metric in spec["per_layer"]:
        assert metric["unit"] == units.get(metric["name"], "s")
    assert len(SPAN_METRICS) * 3 + 4 == len(layer)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-m3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
