"""reesgcd benchmark: time to the equations and to a certified verdict.

Run from the repository root:

    python3 perfbench/run.py --workload run-m3 --seed 0 --seconds 15 --trace 0

One process, no threads, one closed-loop client: each operation starts
after the previous one has finished.  The workload's operations run in
turn until ``--seconds`` have passed, every operation at least once.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every time is taken at reference host speed (``hostspeed.HostSpeed``):
the wall time of the timed block, scaled by how fast the host ran a fixed
kernel while the block ran.  The raw wall times are printed and stored
beside them.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: the sum over the workload's operations of each one's median
  time, set-up excluded;
* ``setup_s``: median of three set-ups, each a fresh-interpreter
  ``import reesgcd.cli`` plus generating the workload's inputs;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` sets up once under the tracer, runs one untraced pass, then
traced passes for ``--seconds``, and reports the per-layer metrics of
``tracing.Tracer.layer_metrics`` plus the tracing overhead.  The spans are
written to ``.bench_work/`` at the end.

Operations that fail (see ``workloads.Expected``) count in ``failed``;
``fail_share`` = failed / attempted is printed on the line before the
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("run-m3", "verify-m1", "recheck-m3")


def _environment():
    try:
        with open("/proc/loadavg") as handle:
            loadavg = handle.read().strip()
    except OSError:
        loadavg = None
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": loadavg}


def _import_cli():
    """A fresh interpreter imports the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import reesgcd.cli"],
                   env=env, cwd=ROOT, check=True)


def set_up(workload, seed, workdir):
    """The workload's operations and the ``HostSpeed`` of one set-up."""
    from reesgcd.ring import PolyRing
    import workloads

    PolyRing._cache.clear()
    gc.collect()
    with HostSpeed() as speed:
        _import_cli()
        ops = workloads.build_ops(workload, seed, workdir)
    return ops, speed


def run_op(op):
    """(``HostSpeed``, answer) of one operation from fresh state."""
    import workloads

    gc.collect()
    with HostSpeed() as speed:
        try:
            code, doc = workloads.execute(op)
        except (Exception, SystemExit):
            ans = {"error": traceback.format_exc(limit=3)}
        else:
            ans = None
    if ans is None:
        ans = workloads.answer(op, code, doc)
    return speed, ans


class Measurement:
    """Per-operation times and outcomes of one measured loop."""

    def __init__(self, ops):
        self.times = {op.label: [] for op in ops}
        self.raw_times = {op.label: [] for op in ops}
        self.answers = {op.label: [] for op in ops}
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def wall_s(self):
        return sum(statistics.median(t) for t in self.times.values())

    def raw_wall_s(self):
        return sum(statistics.median(t) for t in self.raw_times.values())


def measure(ops, seconds, tracer=None, reference=None):
    """Run the operations in turn for ``seconds``, at least one pass.

    With a tracer, only whole passes run, so that per-pass span counts
    are exact.  With ``reference`` answers (from an untraced pass), an
    answer that differs from its reference is a failure.
    """
    result = Measurement(ops)
    start = perf_counter()
    i = 0
    while (i < len(ops) or perf_counter() - start < seconds
           or (tracer is not None and i % len(ops))):
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = "%s#%d" % (op.label, i)
        speed, ans = run_op(op)
        reasons = op.expected.failures(ans)
        if reference is not None and ans != reference[op.label][0]:
            reasons.append("traced output differs from untraced")
        for reason in reasons:
            print("FAIL %s: %s" % (op.label, reason), file=sys.stderr)
        result.attempted += 1
        result.failed += bool(reasons)
        result.times[op.label].append(speed.scaled_s)
        result.raw_times[op.label].append(speed.raw_s)
        result.answers[op.label].append(ans)
        i += 1
    result.passes = i // len(ops)
    return result


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed, seconds, workdir):
    setups = []
    raw_setups = []
    ops = None
    for _ in range(SETUP_REPEATS):
        built, speed = set_up(workload, seed, workdir)
        ops = ops or built
        setups.append(speed.scaled_s)
        raw_setups.append(speed.raw_s)
    result = measure(ops, seconds)
    metrics = {
        "wall_s": (result.wall_s(), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    print("# raw wall_s = %s s, raw setup_s = %s s"
          % (result.raw_wall_s(), statistics.median(raw_setups)))
    record = {"setup_s": setups, "raw_setup_s": raw_setups,
              "times": result.times, "raw_times": result.raw_times,
              "passes": result.passes}
    return result.attempted, result.failed, metrics, record


def run_traced(workload, seed, seconds, workdir):
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        ops, _ = set_up(workload, seed, workdir)
    untraced = measure(ops, 0)
    with tracer:
        traced = measure(ops, seconds, tracer, untraced.answers)
    failed = untraced.failed + traced.failed
    metrics = tracer.layer_metrics(traced.passes)
    metrics["trace.wall_s"] = (traced.wall_s(), "s")
    metrics["trace.untraced_wall_s"] = (untraced.wall_s(), "s")
    metrics["trace.overhead_s"] = (traced.wall_s() - untraced.wall_s(), "s")
    record = {"untraced_times": untraced.times, "times": traced.times,
              "raw_times": traced.raw_times,
              "passes": traced.passes,
              "spans": tracer.dump()}
    attempted = untraced.attempted + traced.attempted
    return attempted, failed, metrics, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "reesgcd" / "__init__.py").is_file():
        print("perfbench: no reesgcd sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    env = _environment()
    print("# env %s" % json.dumps(env, sort_keys=True))
    runner = run_traced if args.trace else run_untraced
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        attempted, failed, metrics, record = runner(
            args.workload, args.seed, args.seconds, workdir)
    record.update(env=env, workload=args.workload, seed=args.seed,
                  trace=args.trace)
    out = WORK / ("last-%s-trace%d.json" % (args.workload, args.trace))
    with open(out, "w") as handle:
        json.dump(record, handle)
    print("# fail_share %d/%d = %.4f (ratio)"
          % (failed, attempted, failed / attempted))
    for name, (value, unit) in metrics.items():
        print("# %s = %s %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
