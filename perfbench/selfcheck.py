"""Quick self-check of the benchmark's output checks (about 15 s).

Run from the repository root:

    python3 perfbench/selfcheck.py
    python3 perfbench/selfcheck.py --write-golden   # rewrite scan_golden.json

For the default seed and one other seed it runs the cheapest ops of each
workload (verify at t = 1, the first scan op, corpus ops of size 5 over F2
and QQ and of size 7 over F2) and requires every check to pass.  It then
feeds each workload deliberately corrupted outputs and requires each to
count as a failed op.  Exits 0 when all of that holds.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys

import run
import workloads

OTHER_SEED = 7
CHEAP_OPS = {"verify": (0,), "scan": (0,), "corpus": (0, 1, 9)}
GOLDEN_OPS = 128


def _corrupt_verify(out):
    text = out["text"].replace(" pairs, ok", "0 pairs, ok")
    return dict(out, text=text)


def _corrupt_scan_rank(out):
    header, first, *rest = out["csv"].split(b"\r\n")
    cells = first.split(b",")
    cells[5] = str(int(cells[5]) + 1).encode()
    return dict(out, csv=b"\r\n".join([header, b",".join(cells), *rest]))


def _corrupt_scan_bytes(out):
    # same rows, other line endings: only the stored digest can tell
    return dict(out, csv=out["csv"].replace(b"\r\n", b"\n"))


def _corrupt_corpus(out):
    trims = dict(out["trims"])
    first = dict(trims[1])
    first["minimal"] = [1, first["minimal"][1] + 1, first["minimal"][2] + 1, 2]
    trims[1] = first
    return dict(out, trims=trims)


CORRUPTIONS = (
    ("verify", 0, _corrupt_verify),
    ("scan", 0, _corrupt_scan_rank),
    ("scan", 0, _corrupt_scan_bytes),
    ("corpus", 0, _corrupt_corpus),
)


def check_honest(workdir):
    bad = []
    for seed in (workloads.DEFAULT_SEED, OTHER_SEED):
        for workload, indices in CHEAP_OPS.items():
            for index in indices:
                latency, problems, _taken = run.run_op(workload, seed, index, workdir)
                status = "ok" if not problems else f"FAIL {problems}"
                print(f"{workload} seed {seed} op {index}: {latency:.2f}s {status}")
                if problems:
                    bad.append((workload, seed, index))
    return bad


def check_corrupted(workdir):
    missed = []
    for workload, index, corrupt in CORRUPTIONS:
        make_spec, honest_run, check = workloads.WORKLOADS[workload]
        workloads.WORKLOADS[workload] = (
            make_spec, lambda spec, wd: corrupt(honest_run(spec, wd)), check)
        try:
            _latency, problems, _taken = run.run_op(
                workload, workloads.DEFAULT_SEED, index, workdir)
        finally:
            workloads.WORKLOADS[workload] = (make_spec, honest_run, check)
        verdict = f"counted as failed ({problems[0][:100]})" if problems else "MISSED"
        print(f"{workload} {corrupt.__name__}: {verdict}")
        if not problems:
            missed.append(corrupt.__name__)
    return missed


def write_golden(workdir):
    """Digest the scan CSV of the first GOLDEN_OPS ops of the default seed."""
    digests = []
    _spec, scan_run, _check = workloads.WORKLOADS["scan"]
    for index in range(GOLDEN_OPS):
        spec = workloads.scan_spec(workloads.DEFAULT_SEED, index)
        out = scan_run(spec, workdir)
        digest = hashlib.sha256(out["csv"]).hexdigest()
        problems = workloads.scan_check(spec, out, golden=(spec["seed"], [digest] * GOLDEN_OPS))
        if problems:
            raise SystemExit(f"scan op {index} fails its checks: {problems}")
        digests.append(digest)
    workloads.GOLDEN_PATH.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "workload": "scan",
         "csv_sha256": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.GOLDEN_PATH}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite the stored scan digests from this commit")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / f"selfcheck-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.write_golden:
            write_golden(workdir)
            return 0
        bad = check_honest(workdir)
        missed = check_corrupted(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad or missed:
        print(f"selfcheck: FAIL (honest ops failing: {bad}, corruptions missed: {missed})")
        return 1
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
