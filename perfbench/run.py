"""The ncsym benchmark: one seeded workload, closed loop, one task at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectral-wide --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1 runs
an untraced pass for half the time, then the same tasks again with the
outside-in tracer installed, and reports the per-layer metrics.  Either way
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric by
name and unit, the failure counts, the run's environment and the ROADMAP
reference rows.  Spans and a run record go to .perfbench-out/.

Timings are given at a reference machine speed.  On a shared host the CPU
speed drifts by up to 40% within half a minute, which no run length
averages out.  So a fixed probe of interpreter and small-matrix work runs
before every timed task, and each task's time is scaled by REF_PROBE_S
over the median probe time around it.  The unscaled figures are printed
and kept in the run record as well.  setup_s is not scaled.

attempted and failed count distinct generated inputs, not executions: a
run repeats its cycle of inputs as often as the time allows, and an input
fails if any execution of it fails.  The same seed therefore gives the
same counts however fast the machine is.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

# numpy (and with it BLAS) is imported only after cap_blas_threads() has
# set the thread variables, so modules that import numpy are imported
# inside functions here.

OUT_DIR = ".perfbench-out"
WORKLOADS = ("spectral-wide", "spectral-deep", "identities", "cli")
LAYERS = ("parsing", "words", "symbasis", "ratexpr", "girard", "linalg",
          "domains", "funcalc", "sqrtlib", "verify", "cli")
MIN_RUNS = 100       # whole cycles of at least this many runs: ten runs
                     # lie beyond p90
HARD_CAP_S = 100.0   # stop adding cycles past this, whatever MIN_RUNS says
SETUP_PROBES = (5, 4)     # fresh processes timed before and after the pass
REF_PROBE_S = 0.6e-3      # speed_probe() on the reference machine (a
                          # 2-vCPU x86 VM in a quiet spell)
PROBE_WINDOW_S = 0.05     # a task's speed: probes within this of its span
IMPORT_PROBES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("task_p50_ms", "ms", "lower"),
    ("task_p90_ms", "ms", "lower"),
    ("ok_per_s", "1/s", "higher"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer_spec() -> tuple:
    from tracer import TARGETS

    spec = []
    for target in TARGETS:
        spec.append((f"{target}.calls", "calls/task", "lower"))
        spec.append((f"{target}.self_s", "s/task", "lower"))
    spec += [
        ("linalg.op_norm.in_roots.calls", "calls/task", "lower"),
        ("linalg.op_norm.in_roots.self_s", "s/task", "lower"),
        ("funcalc.matrix_function.per_root", "ratio", "lower"),
        ("sqrtlib.roots_out", "roots/task", "higher"),
        ("domains.fiber.kept_ratio", "ratio", "higher"),
        ("ratexpr.as_ncpoly.words_out", "words/task", "lower"),
        ("ratexpr.evaluate.singular", "count/task", "lower"),
    ]
    spec += [(f"layer.{m}.self_s", "s/task", "lower") for m in LAYERS]
    spec += [
        ("task.unattributed_s", "s/task", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.stdout_bytes", "bytes/task", "lower"),
        ("process.cpu_per_wall", "ratio", "lower"),
    ]
    spec += [(f"fail.{kind}", "count", "lower") for kind in
             ("wrong_result", "false_refusal", "wrong_error", "raw_exception",
              "over_limit")]
    spec.append(("trace.overhead", "ratio", "lower"))
    return tuple(spec)


PER_LAYER = _per_layer_spec()


class TaskTimeout(BaseException):
    """Raised by SIGALRM when an in-process task passes the time limit.

    A BaseException, so that the program's own `except Exception` blocks
    cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise TaskTimeout()


@dataclass
class Record:
    kind: str
    elapsed: float          # wall seconds, unscaled
    fail: Optional[str]     # fail.* bucket, None when verified
    penalty: float = 0.0    # the task's time limit when it failed
    detail: str = ""
    maxrss_kb: int = 0
    stdout_bytes: int = 0
    index: int = -1         # position of the input in the workload's cycle
    t0: float = 0.0         # perf_counter() at the start of the task
    probe: float = 0.0      # speed_probe() just before the task
    scale: float = 1.0      # set by scale_to_reference()

    @property
    def ref_elapsed(self) -> float:
        return self.elapsed * self.scale

    @property
    def charged(self) -> float:
        """Latency counted for the task: a failure also pays the limit."""
        return self.ref_elapsed + self.penalty


_PROBE_MATRIX = []


def speed_probe() -> float:
    """Seconds taken by a fixed mix of work like the program's.

    Integer arithmetic and dict inserts of tuple keys in the interpreter,
    then eigendecompositions of one 8x8 complex matrix.  It takes about
    0.6 ms; no ncsym code runs in it.
    """
    import numpy as np

    if not _PROBE_MATRIX:
        rng = np.random.default_rng(0)
        _PROBE_MATRIX.append(rng.standard_normal((8, 8))
                             + 1j * rng.standard_normal((8, 8)))
    a = _PROBE_MATRIX[0]
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(3000):
        acc += i * i % 7
    for i in range(300):
        table[(i, i % 7)] = acc
    for _ in range(5):
        np.linalg.eig(a)
    return time.perf_counter() - t0


def run_one(task, limit: float, tracer=None, index: int = -1) -> Record:
    """Time one task, then check its outcome outside the timed region.

    speed_probe() runs just before the task (see scale_to_reference).
    """
    from ncsym.errors import NcsymError
    from oracles import classify
    from workloads import Proc

    out, error, raw, timed_out = None, None, False, False
    span = tracer.task(task.kind) if tracer is not None else nullcontext()
    speed = speed_probe()
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with span:
            out = task.run()
    except (TaskTimeout, TimeoutError):
        timed_out = True
    except NcsymError as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a raw exception is counted, not fatal
        error, raw = f"{type(exc).__name__}: {exc}", True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - t0
    maxrss = nbytes = 0
    if isinstance(out, Proc):
        raw, maxrss, nbytes = out.raw, out.maxrss_kb, len(out.out.encode())
        if out.code != 0:
            error = f"exit{out.code}: {out.err.strip()[-200:]}"
        out = out.out
    problem = None
    if not (timed_out or raw or error or task.expect):
        try:
            problem = task.check(out)
        except Exception as exc:  # unreadable output is a wrong result
            problem = f"check raised {type(exc).__name__}: {exc}"
    error_class = error.split(":")[0] if error else None
    fail = classify(task.expect, error_class, raw, timed_out, problem)
    detail = problem or error or ""
    if fail == "wrong_error":
        detail = f"expected {task.expect}, got {error_class or 'a result'}"
    return Record(task.kind, elapsed, fail, 0.0 if fail is None else limit,
                  detail, maxrss, nbytes, index, t0, speed)


def run_pass(workload, seconds: float, min_cycles: int, tracer=None,
             count: Optional[int] = None) -> list:
    """Whole cycles of the workload's tasks, closed loop.

    Starts another cycle only while it is expected to end within `seconds`
    (or fewer than min_cycles have run).  With `count`, runs exactly that
    many tasks instead.
    """
    records: list = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for index, task in enumerate(workload.tasks):
            records.append(run_one(task, workload.limit, tracer, index))
            if count is not None and len(records) == count:
                return records
        cycles += 1
        if count is not None:
            continue
        elapsed = time.perf_counter() - start
        if elapsed > HARD_CAP_S:
            break
        if cycles >= min_cycles and elapsed * (cycles + 1) / cycles > seconds:
            break
    return records


def scale_to_reference(records) -> None:
    """Scale each task's time to the reference machine speed.

    The machine's speed while a task ran is the median of the probes taken
    within PROBE_WINDOW_S of it, and always includes the probes just
    before and just after it.  Records must come from one pass.
    """
    starts = [r.t0 for r in records]
    probes = [r.probe for r in records]
    for i, r in enumerate(records):
        end = r.t0 + r.elapsed + PROBE_WINDOW_S
        lo = min(bisect.bisect_left(starts, r.t0 - PROBE_WINDOW_S), i)
        hi = max(bisect.bisect_right(starts, end), i + 2)
        r.scale = REF_PROBE_S / statistics.median(probes[lo:hi])


# -- environment -------------------------------------------------------------------

def cap_blas_threads() -> dict:
    """Cap each BLAS thread variable at nproc; unset means 1.

    At these matrix sizes a second BLAS thread gains little, and while
    anything else runs on the machine every BLAS call can stall waiting
    for it (runs became up to 8x slower on a 2-core VM).
    """
    nproc = len(os.sched_getaffinity(0))
    out = {}
    for var in BLAS_VARS:
        try:
            value = min(int(os.environ.get(var, 1)), nproc)
        except ValueError:
            value = 1
        os.environ[var] = str(max(value, 1))
        out[var] = os.environ[var]
    return out


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU; returns nproc.

    The CPUs of a shared host run at different speeds as neighbours load
    them, so the speed probes must run where the tasks run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    return len(cpus)


def environment(seed: int, threads: dict, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "nproc": nproc, "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": commit,
            "blas_threads": threads}


def _probe_cmd(args) -> list:
    return [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "1",
            "--trace", "0", "--probe-setup"]


def measure_setup(args, root: str, count: int) -> list:
    """Wall time from spawning a fresh process to its first timed task.

    Each probe imports ncsym, generates the inputs from the seed and runs
    the warm-up task, then prints "ready" and exits.  These times are not
    scaled: process start and imports do not follow the speed probe.
    Probes are taken before and after the timed pass, so that setup_s
    samples two moments of the machine's drifting speed.
    """
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_probe_cmd(args), stdout=subprocess.PIPE,
                                cwd=root)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(t1 - t0)
    return times


def measure_import(root: str) -> float:
    """Median wall time of `import ncsym` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ncsym"], env=env,
                       cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- metrics -------------------------------------------------------------------------

def outcomes(records) -> dict:
    """Per distinct input: its fail.* bucket, None if every run passed."""
    out: dict = {}
    for r in records:
        if out.get(r.index) is None:
            out[r.index] = r.fail
    return out


def fail_counts(records) -> Counter:
    """Failed distinct inputs per fail.* bucket."""
    return Counter(f for f in outcomes(records).values() if f)


def end_to_end(records, setup_times: list, peak_rss_mb: float) -> dict:
    charged = sorted(r.charged for r in records)
    ok = sum(r.fail is None for r in records)
    busy = sum(r.ref_elapsed for r in records)
    inputs = outcomes(records)
    return {
        "setup_s": statistics.median(setup_times),
        "task_p50_ms": 1e3 * statistics.median(charged),
        "task_p90_ms": 1e3 * statistics.quantiles(
            charged, n=10, method="inclusive")[8],
        "ok_per_s": ok / busy,
        "ok_ratio": sum(f is None for f in inputs.values()) / len(inputs),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, traced: list, untraced: list, cpu_per_wall: float,
              import_s: float) -> dict:
    from tracer import TARGETS, TASK, ancestors_named, self_times

    spans = tracer.spans
    n = len(traced)
    selfs = self_times(spans)
    calls: Counter = Counter()
    own: dict = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        own[s.name] += selfs[s.id]
    m = {}
    for target in TARGETS:
        m[f"{target}.calls"] = calls[target] / n
        m[f"{target}.self_s"] = own[target] / n
    in_roots = ancestors_named(spans, "sqrtlib.all_square_roots")
    in_fiber = ancestors_named(spans, "domains.fiber")
    op = [s for s in spans if s.name == "linalg.op_norm" and s.id in in_roots]
    m["linalg.op_norm.in_roots.calls"] = len(op) / n
    m["linalg.op_norm.in_roots.self_s"] = sum(selfs[s.id] for s in op) / n
    roots = [s for s in spans if s.name == "sqrtlib.all_square_roots"
             and s.size >= 0]
    roots_out = sum(s.size for s in roots)
    interpolations = sum(1 for s in spans if s.name == "funcalc.matrix_function"
                         and s.id in in_roots)
    m["funcalc.matrix_function.per_root"] = \
        interpolations / roots_out if roots_out else 0.0
    m["sqrtlib.roots_out"] = roots_out / n
    kept = sum(s.size for s in spans if s.name == "domains.fiber"
               and s.size >= 0)
    enumerated = sum(s.size for s in roots if s.id in in_fiber)
    m["domains.fiber.kept_ratio"] = kept / enumerated if enumerated else 0.0
    m["ratexpr.as_ncpoly.words_out"] = sum(
        s.size for s in spans if s.name == "ratexpr.as_ncpoly"
        and s.size >= 0) / n
    m["ratexpr.evaluate.singular"] = sum(
        1 for s in spans if s.name == "ratexpr.evaluate"
        and s.error == "SingularityError") / n
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            v for name, v in own.items() if name.startswith(layer + ".")) / n
    m["task.unattributed_s"] = sum(
        v for name, v in own.items() if name.startswith(TASK + ":")) / n
    m["cli.import_s"] = import_s
    m["cli.stdout_bytes"] = sum(r.stdout_bytes for r in traced) / n
    m["process.cpu_per_wall"] = cpu_per_wall
    fails = fail_counts(untraced)
    for name, _, _ in PER_LAYER:
        if name.startswith("fail."):
            m[name] = fails[name[5:]]
    m["trace.overhead"] = sum(r.elapsed for r in traced) / sum(
        r.elapsed for r in untraced)
    return m


def task_breakdown(tracer, top: int = 3) -> list:
    """Per task kind: mean traced latency and the largest self times."""
    from tracer import TASK, self_times

    selfs = self_times(tracer.spans)
    kind_of, total, count = {}, defaultdict(float), Counter()
    for s in tracer.spans:
        if s.name.startswith(TASK + ":"):
            kind = s.name[len(TASK) + 1:]
            kind_of[s.id] = kind
            total[kind] += s.t1 - s.t0
            count[kind] += 1
    own: dict = defaultdict(lambda: defaultdict(float))
    for s in tracer.spans:
        if s.task in kind_of and not s.name.startswith(TASK + ":"):
            own[kind_of[s.task]][s.name] += selfs[s.id]
    lines = []
    for kind in sorted(total, key=total.get, reverse=True)[:6]:
        mean = total[kind] / count[kind]
        parts = [f"{name} {1e3 * v / count[kind]:.2f} ms "
                 f"({100 * v / total[kind]:.0f}%)" for name, v in
                 sorted(own[kind].items(), key=lambda kv: -kv[1])[:top]]
        lines.append(f"{kind}: {1e3 * mean:.2f} ms per task; self: "
                     + ", ".join(parts))
    return lines


# -- entry points ----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(args, root: str, scratch: str) -> int:
    import workloads

    workload = workloads.build(args.workload, args.seed, root, scratch)
    try:
        run_one(workload.warmup, workload.limit)
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ncsym", "__init__.py")):
        print("perfbench: src/ncsym not found; run from the repository root",
              file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    nproc = pin_to_one_cpu()
    sys.path.insert(0, os.path.join(root, "src"))
    scratch = os.path.join(root, OUT_DIR)
    os.makedirs(scratch, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.probe_setup:
        return probe_setup(args, root, scratch)

    setup_times = measure_setup(args, root, SETUP_PROBES[0])
    import ncsym
    import tracer as tracing
    import workloads

    if not os.path.abspath(ncsym.__file__).startswith(
            os.path.join(root, "src") + os.sep):
        print(f"perfbench: imported ncsym from {ncsym.__file__}, not from "
              "this checkout", file=sys.stderr)
        return 2
    env = environment(args.seed, threads, nproc)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))

    workload = workloads.build(args.workload, args.seed, root, scratch,
                               inprocess=bool(args.trace))
    try:
        run_one(workload.warmup, workload.limit)
        tracing.assert_unwrapped()
        if args.trace:
            import_s = measure_import(root)
            run_pass(workload, 0, 1)   # first calls out of both passes
            c0, w0 = os.times(), time.perf_counter()
            untraced = run_pass(workload, args.seconds / 2, 1)
            c1, w1 = os.times(), time.perf_counter()
            cpu = (sum(c1[:4]) - sum(c0[:4])) / (w1 - w0)
            tr = tracing.Tracer()
            tr.install()
            try:
                records = run_pass(workload, 0, 1, tracer=tr,
                                   count=len(untraced))
            finally:
                tr.uninstall()
            tracing.assert_unwrapped()
            values = per_layer(tr, records, untraced, cpu, import_s)
            spec = PER_LAYER
            tr.write(os.path.join(scratch, f"spans-{args.workload}.csv"))
            for line in task_breakdown(tr):
                print("trace: " + line)
        else:
            min_cycles = -(-MIN_RUNS // len(workload.tasks))
            records = run_pass(workload, args.seconds, min_cycles)
            tracing.assert_unwrapped()
            scale_to_reference(records)
            setup_times += measure_setup(args, root, SETUP_PROBES[1])
            if args.workload == "cli":
                rss_kb = max(r.maxrss_kb for r in records)
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = end_to_end(records, setup_times, rss_kb / 1024)
            spec = END_TO_END
        references = workloads.reference_rows(root, scratch)
    finally:
        workload.close()

    inputs = outcomes(records)
    fails = fail_counts(records)
    failed = sum(fails.values())
    p90 = statistics.quantiles([r.charged for r in records], n=10,
                               method="inclusive")[8]
    beyond = sum(1 for r in records if r.charged > p90)
    print(f"tasks: {len(records)} runs of {len(inputs)} distinct inputs, "
          f"{failed} inputs failed (fail_ratio {failed / len(inputs):.4f}); "
          f"{beyond} runs beyond p90")
    if not args.trace:
        raw = sorted(r.elapsed + r.penalty for r in records)
        raw_p90 = statistics.quantiles(raw, n=10, method="inclusive")[8]
        probe = statistics.median(r.probe for r in records)
        print(f"unscaled: task_p50_ms {1e3 * statistics.median(raw):.6g} ms, "
              f"task_p90_ms {1e3 * raw_p90:.6g} ms; median speed probe "
              f"{1e3 * probe:.4g} ms (reference {1e3 * REF_PROBE_S:g} ms)")
    print("failures: " + json.dumps({k: fails.get(k, 0) for k in
                                     ("wrong_result", "false_refusal",
                                      "wrong_error", "raw_exception",
                                      "over_limit")}))
    first = [r for r in records[:len(workload.tasks)] if r.fail]
    for r in first[:12]:
        print(f"  {r.fail}: {r.kind}: {r.detail[:160]}")
    if len(first) > 12:
        print(f"  ... {len(first) - 12} more failing tasks in the first cycle")
    metrics = {}
    for name, unit, _ in spec:
        metrics[name] = {"value": float(values[name]), "unit": unit}
        print(f"metric {name} = {values[name]:.6g} {unit}")
    for label, ms, note in references:
        print(f"reference {label}: {ms:.1f} ms ({note})")
    result = {"correct": fails.get("wrong_result", 0) == 0,
              "attempted": len(inputs), "failed": failed,
              "metrics": metrics}
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r.kind].append(r)
    record = {"env": env, "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "setup_probes_s": setup_times,
              "failures": dict(fails), "references": references,
              "tasks": {kind: {"median_ms": 1e3 * statistics.median(
                  r.elapsed for r in rs), "runs": len(rs),
                  "failed": sum(r.fail is not None for r in rs)}
                  for kind, rs in by_kind.items()},
              "executions": [[r.kind, r.elapsed, r.scale, r.fail,
                              r.t0 - records[0].t0, r.probe]
                             for r in records],
              "result": result}
    with open(os.path.join(scratch, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
