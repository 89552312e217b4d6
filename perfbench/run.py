"""pftrim benchmark: seeded workloads through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 0 --seconds 35 --trace 0

Workloads (inputs.py makes their matrices from --seed; workloads.py runs
and checks one op):

- verify: ``pftrim verify`` on dense linear F3 matrices of size 9, trim
  t = 1..9 rotating across ops.
- scan: ``pftrim scan --char 2 --size 13 --trials 1``, one random matrix
  classified at all 13 trims per op.
- corpus: one sparse matrix over F2, F3, F5 or QQ of size 5, 7 or 9 through
  the acceptance-corpus pipeline per op.

With ``--trace 0`` the run measures as many whole rounds of ops (see
workloads.ROUND) as come closest to ``--seconds``, and reports the
end-to-end metrics.  Each op's latency and each set-up probe is scaled to
a fixed reference speed of the host (hostspeed.py); the details line also
holds the unscaled figures.  With ``--trace 1`` it runs each op of a fixed
list (workloads.TRACED_OPS) twice, untraced and then with the wrappers of
tracing.py installed, and reports the per-layer metrics; counts repeat
exactly for a given seed, and ``--seconds`` does not apply.  Every op's
output is checked either way.

The last stdout line is the result JSON (correct, attempted, failed,
metrics).  The line before it holds the details: environment, generator
parameters, how op_tail_s was taken and from how many ops, failures.  The
same details, and in traced runs the spans, are written under
``.perfbench/``.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import inputs
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 15
#: Host-speed window before and after each set-up probe (hostspeed.py).
WINDOW_S = 0.1
SETUP_PROBE = ("import time\n"
               "start = time.process_time()\n"
               "import pftrim, pftrim.cli\n"
               "print(repr(time.process_time() - start))\n")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_probe():
    """CPU time a fresh interpreter takes to import pftrim and its CLI.  CPU
    time rather than wall time, so that time the probe spends descheduled
    while other processes run does not count."""
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def git_rev():
    # a checkout without .git must not pick up a repository above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment():
    import pftrim.polyring
    backend = getattr(pftrim.polyring, "kernel_backend", None)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "kernel_backend": backend() if backend else "python",
        "PFTRIM_PURE": bool(os.environ.get("PFTRIM_PURE")),
    }


def run_op(workload, seed, index, workdir, host=None):
    """(latency in seconds, list of problems, host-speed samples) for one
    op.  With ``host`` (a hostspeed.HostSpeed) the kernel samples the host's
    speed during the op, and the time it took is not in the latency."""
    make_spec, run, check = workloads.WORKLOADS[workload]
    spec = make_spec(seed, index)
    sampling = host.sampling() if host else contextlib.nullcontext(hostspeed.Sampling())
    with sampling as taken:
        start = time.perf_counter()
        try:
            out = run(spec, workdir)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            return time.perf_counter() - start - taken.paused, [f"raised {exc!r}"], taken
        latency = time.perf_counter() - start - taken.paused
    try:
        problems = check(spec, out)
    except Exception as exc:  # malformed output the check could not read
        problems = [f"check raised {exc!r}"]
    return latency, problems, taken


def op_tail(workload, latencies):
    """(op_tail_s, how it was taken): see workloads.TAIL_PERCENTILE."""
    n = len(latencies)
    pct = workloads.TAIL_PERCENTILE[workload]
    return (statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1],
            f"p{pct} of {n} ops, {n - 1 - math.floor((n - 1) * pct / 100)} beyond it")


def measure(workload, seed, seconds, workdir):
    """As many whole rounds of ops as come closest to ``seconds``.  Between
    ops, a set-up probe is due every ``seconds / SETUP_PROBES``, so that the
    probes see the host's speed over the whole run, as the ops do; any
    still missing are taken at the end.  Each op samples the host's speed while
    it runs, and each probe sits between two windows of the host-speed
    kernel (hostspeed.py).  Returns (latency, kernel means) per op and per
    probe, the failures, and the HostSpeed."""
    host = hostspeed.HostSpeed()
    ops, failures, probes = [], [], []
    size = workloads.ROUND[workload]
    start = time.perf_counter()
    index = 0

    def probe():
        before = host.window(WINDOW_S)
        taken = setup_probe()
        probes.append((taken, [before, host.window(WINDOW_S)]))

    while True:
        round_start = time.perf_counter()
        for _ in range(size):
            if time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
                probe()
            latency, problems, taken = run_op(workload, seed, index, workdir, host)
            ops.append((latency, taken.means or [host.window(WINDOW_S)]))
            if problems:
                failures.append({"op": index, "problems": problems})
            index += 1
        # stop at the number of whole rounds that comes closest to ``seconds``
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probe()
    return ops, failures, probes, host


def untraced(args, workdir):
    ops, failures, probes, host = measure(args.workload, args.seed, args.seconds, workdir)
    raw = [latency for latency, _means in ops]
    factors = [host.factor(means) for _latency, means in ops]
    latencies = [latency * f for latency, f in zip(raw, factors)]
    setup_raw = [taken for taken, _means in probes]
    setup = [taken * host.factor(means) for taken, means in probes]
    tail, tail_how = op_tail(args.workload, latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {"ops": len(latencies), "op_tail": tail_how,
               "unscaled": {"setup_s": statistics.median(setup_raw),
                            "ops_per_s": len(raw) / sum(raw),
                            "op_p50_s": statistics.median(raw),
                            "op_tail_s": op_tail(args.workload, raw)[0]},
               "kernel_fastest_s": min(host.samples),
               "kernel_samples": len(host.samples),
               "latencies_s": raw, "factors": factors,
               "setup_samples_s": setup_raw,
               "failed_frac": len(failures) / len(latencies)}
    return len(latencies), failures, metrics, details, None


def traced(args, workdir):
    """Each op of the fixed list runs untraced and then traced, back to
    back, so that drifts in machine speed hit both sides of the overhead
    alike.  The wrappers are installed only around the traced op."""
    ops = workloads.TRACED_OPS[args.workload]
    tracer = tracing.Tracer()
    failures = []
    plain_s = traced_s = 0.0
    for index in range(ops):
        latency, problems, _taken = run_op(args.workload, args.seed, index, workdir)
        plain_s += latency
        if problems:
            failures.append({"op": index, "traced": False, "problems": problems})
        with tracing.traced(tracer):
            tracer.op = index
            span = tracer.open("op")
            latency, problems, _taken = run_op(args.workload, args.seed, index, workdir)
            tracer.close(span)
        traced_s += latency
        if problems:
            failures.append({"op": index, "traced": True, "problems": problems})
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in tracing.layer_metrics(tracer).items()}
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1, "frac")
    details = {"ops": ops, "untraced_s": plain_s, "traced_s": traced_s,
               "spans": len(tracer.spans)}
    return 2 * ops, failures, metrics, details, tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pftrim" / "__init__.py").is_file():
        print(f"error: no pftrim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pftrim
    if Path(pftrim.__file__).resolve().parent != SRC / "pftrim":
        print(f"error: imported pftrim from {pftrim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        # the first op of a process pays one-off costs (code paths run for
        # the first time, allocator arenas); setup_s covers start-up instead
        run_op(args.workload, args.seed, 0, workdir)
        run = traced if args.trace else untraced
        attempted, failures, metrics, details, spans = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "inputs": inputs.PARAMS[args.workload], **details,
              "failures": failures[:20]}
    record["metrics"] = {name: value for name, (value, _unit) in metrics.items()}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": spans}) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len({(f["op"], f.get("traced")) for f in failures}),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
