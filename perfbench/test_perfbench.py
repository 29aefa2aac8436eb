"""Self-tests of the benchmark: metric names, failure buckets, the tracer.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ncsym  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def scratch(tmp_path):
    return str(tmp_path)


def small_spectral(rng, k=3):
    return workloads.clustered(rng, workloads.circle_centers(k, rng),
                               [1 + i % 2 for i in range(k)], 0.05)


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json(scratch):
    bench = bench_json()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.NAMES)

    workload = workloads.build("identities", 1, ROOT, scratch)
    workload.tasks = workload.tasks[:8]
    untraced = run.run_pass(workload, 0, 1)
    e2e = run.end_to_end(untraced, [0.5, 0.4, 0.6], 50.0)
    assert list(e2e) == [m["name"] for m in bench["end_to_end"]]

    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run.run_pass(workload, 0, 1, tracer=tr, count=len(untraced))
    finally:
        tr.uninstall()
    layer = run.per_layer(tr, traced, untraced, 1.0, 0.3)
    assert sorted(layer) == sorted(m["name"] for m in bench["per_layer"])
    assert layer["parsing.parse.calls"] > 0


def test_failures_land_in_their_buckets():
    rng = np.random.default_rng(7)
    s = small_spectral(rng)
    good = workloads.roots_task("roots", s, gap=0.3)
    assert run.run_one(good, 10.0).fail is None

    def wrong_root():
        rs = ncsym.sqrtlib.all_square_roots(s.x, gap=0.3)
        return dataclasses.replace(rs, roots=(-rs.roots[1],) + rs.roots[1:])

    cases = [
        (workloads.Task("wrong root", wrong_root, good.check), "wrong_result"),
        (workloads.refusal_task("coarse gap as unsupported", s.x, 50.0,
                                "UnsupportedError"), "wrong_error"),
        (workloads.Task("result where an error is due", good.run,
                        expect="ClusteringError"), "wrong_error"),
        (workloads.Task("raw ValueError",
                        lambda: ncsym.linalg.matrix_from_lists([[1.0]])),
         "raw_exception"),
        (workloads.Task("refused good input",
                        lambda: ncsym.sqrtlib.all_square_roots(s.x, gap=50.0),
                        good.check), "false_refusal"),
        (workloads.Task("slow", lambda: time.sleep(1.0)), "over_limit"),
        (workloads.Task("cli traceback", lambda: workloads.Proc(
            1, "", "Traceback (most recent call last):\n", True)),
         "raw_exception"),
        (workloads.Task("cli wrong exit", lambda: workloads.Proc(
            1, "", "numerical failure", False), expect="exit2"),
         "wrong_error"),
    ]
    for task, bucket in cases:
        record = run.run_one(task, 0.2)
        assert record.fail == bucket, (task.kind, record)
        assert record.charged >= 0.2
    ok = run.run_one(workloads.Task("cli expected exit", lambda: workloads.Proc(
        2, "", "precondition violation", False), expect="exit2"), 1.0)
    assert ok.fail is None and ok.charged == ok.elapsed


def test_counts_are_per_input_and_times_scale_to_the_probe():
    fast = run.REF_PROBE_S / 2   # the machine ran twice as fast as reference
    records = [run.Record("a", 0.010, None, index=0, t0=0.0, probe=fast),
               run.Record("b", 0.020, "false_refusal", penalty=5.0, index=1,
                          t0=0.5, probe=fast),
               run.Record("a", 0.010, None, index=0, t0=1.0, probe=fast),
               run.Record("b", 0.020, "false_refusal", penalty=5.0, index=1,
                          t0=1.5, probe=fast)]
    run.scale_to_reference(records)
    assert [r.scale for r in records] == [2.0] * 4
    assert records[0].charged == pytest.approx(0.020)
    assert records[1].charged == pytest.approx(5.040)
    assert run.outcomes(records) == {0: None, 1: "false_refusal"}
    assert run.fail_counts(records) == {"false_refusal": 1}
    e2e = run.end_to_end(records, [0.3], 40.0)
    assert e2e["ok_ratio"] == 0.5
    assert e2e["ok_per_s"] == pytest.approx(2 / 0.12)

    # An input that fails in any of its runs counts as failed once.
    records[2].fail = "over_limit"
    assert run.fail_counts(records) == {"over_limit": 1, "false_refusal": 1}


def test_traced_self_times_add_up_per_task():
    rng = np.random.default_rng(3)
    tasks = [workloads.roots_task("roots", small_spectral(rng, 4), gap=0.3),
             workloads.fiber_task("fiber", workloads.masked_pair(4, rng, 2)),
             workloads.u_gamma_task("u_gamma", workloads.masked_pair(4, rng))]
    original = ncsym.linalg.op_norm
    tr = tracing.Tracer()
    tr.install()
    try:
        assert hasattr(ncsym.sqrtlib.op_norm, tracing.MARK)
        assert hasattr(ncsym.sqrtlib.matrix_function, tracing.MARK)
        assert hasattr(ncsym.words.FreePoly.__call__, tracing.MARK)
        records = [run.run_one(t, 10.0, tracer=tr) for t in tasks]
    finally:
        tr.uninstall()
    tracing.assert_unwrapped()
    assert ncsym.sqrtlib.op_norm is original is ncsym.linalg.op_norm
    assert all(r.fail is None for r in records)

    spans = tr.spans
    assert tracing.check_nesting(spans) is None
    selfs = tracing.self_times(spans)
    assert min(selfs.values()) >= -1e-12
    roots = [s for s in spans if s.name.startswith(tracing.TASK + ":")]
    assert len(roots) == len(tasks)
    for root in roots:
        total = sum(selfs[s.id] for s in spans if s.task == root.id)
        assert total == pytest.approx(root.t1 - root.t0, rel=1e-9, abs=1e-12)
    names = {s.name for s in spans}
    assert {"sqrtlib.all_square_roots", "linalg.op_norm",
            "funcalc.matrix_function", "domains.fiber",
            "domains.in_U_gamma"} <= names


def test_oracles_agree_with_the_paper_counts():
    for n in range(1, 9):
        words = oracles.girard_words(n)
        assert len(words) == 2 ** (n - 1)
        assert words == ncsym.girard.table_expression(n)
    text = ncsym.ratexpr.render_ncpoly(ncsym.girard.table_expression(6))
    assert oracles.parse_monomials(text) == oracles.girard_words(6)


def test_same_seed_same_inputs(scratch):
    a = workloads.build("spectral-wide", 4, ROOT, scratch)
    b = workloads.build("spectral-wide", 4, ROOT, scratch)
    c = workloads.build("spectral-wide", 5, ROOT, scratch)
    ra, rb, rc = (w.tasks[0].run() for w in (a, b, c))
    assert all(np.array_equal(x, y) for x, y in zip(ra.roots, rb.roots))
    assert not np.array_equal(ra.base, rc.base)
    assert [t.kind for t in a.tasks] == [t.kind for t in c.tasks]
    for name in workloads.NAMES:
        assert len(workloads.build(name, 1, ROOT, scratch).tasks) % 10 == 5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identities",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
