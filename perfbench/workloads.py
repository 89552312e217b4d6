"""The three workloads: how one op runs, and how its output is checked.

Each workload has ``spec(seed, index)`` (the op's input, from inputs.py),
``run(spec, workdir)`` (the timed call into pftrim's public entry points)
and ``check(spec, out)`` (a list of problems, empty when the output is
right).  Checks compare against closed forms computed here, never against
pftrim's own arithmetic, so a wrong answer counts as a failed op.

Public pftrim functions are looked up on their module at call time, so
the tracer's patches (tracing.py) see every call.
"""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
from pathlib import Path

import inputs

#: Seed whose scan CSVs must match the stored digests byte for byte.
DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("scan_golden.json")

IDENTITY_NAMES = ("expansion", "drop1_expansion", "sum3_vanishing",
                  "drop3_expansion", "sum5_vanishing")


def identity_cases(m):
    """Cases check_identities evaluates on a size-m matrix, per identity:
    every (even subset, element) pair; ordered pairs; ordered triples;
    (3-subset, fourth index); ordered 4-tuples with a fifth index."""
    return {
        "expansion": m * 2 ** (m - 2),
        "drop1_expansion": m * (m - 1),
        "sum3_vanishing": m * (m - 1) * (m - 2),
        "drop3_expansion": math.comb(m, 3) * (m - 3),
        "sum5_vanishing": m * (m - 1) * (m - 2) * (m - 3) * (m - 4),
    }


def trimmed_ranks(m, t):
    """(r1, r2): ranks of degrees 1 and 2 of the trimmed resolution."""
    return m + 2 * t, m + 3 * t


def leibniz_pairs(m, t):
    r1, r2 = trimmed_ranks(m, t)
    return r1 * (r1 + r2)


def table_cells(m, t):
    r1, r2 = trimmed_ranks(m, t)
    return r1 * r1 + 2 * r1 * r2


def _write(workdir, name, text):
    path = Path(workdir) / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- verify

def verify_spec(seed, index):
    doc, t = inputs.verify_op(seed, index)
    return {"doc": doc, "t": t, "m": inputs.PARAMS["verify"]["size"]}


def verify_run(spec, workdir):
    import pftrim.cli
    doc = _write(workdir, "verify.json", spec["doc"])
    out = Path(workdir) / "verify.txt"
    out.unlink(missing_ok=True)
    rc = pftrim.cli.main(["verify", doc, "--trim", str(spec["t"]),
                          "--out", str(out)])
    return {"rc": rc, "text": out.read_text() if out.exists() else ""}


def verify_check(spec, out):
    m, t = spec["m"], spec["t"]
    cases = identity_cases(m)
    expected = [f"{name}: {cases[name]} cases, ok" for name in IDENTITY_NAMES]
    expected += ["boundary composition: ok",
                 f"diagrams: {2 * t} checks, ok",
                 f"leibniz: {leibniz_pairs(m, t)} pairs, ok",
                 "verify: ok"]
    problems = []
    if out["rc"] != 0:
        problems.append(f"exit code {out['rc']}")
    lines = out["text"].splitlines()
    if lines != expected:
        problems.append(f"report {lines!r}, expected {expected!r}")
    return problems


# ------------------------------------------------------------------ scan

def scan_spec(seed, index):
    return {"seed": seed, "index": index, "scan_seed": inputs.scan_op(seed, index),
            "m": inputs.PARAMS["scan"]["size"], "p": inputs.PARAMS["scan"]["char"]}


def scan_run(spec, workdir):
    import pftrim.cli
    out = Path(workdir) / "scan.csv"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = pftrim.cli.main(["scan", "--char", str(spec["p"]),
                              "--size", str(spec["m"]), "--trials", "1",
                              "--seed", str(spec["scan_seed"]), "--out", str(out)])
    return {"rc": rc, "csv": out.read_bytes() if out.exists() else b"",
            "stderr": err.getvalue()}


@functools.cache
def load_golden():
    data = json.loads(GOLDEN_PATH.read_text())
    return data["seed"], data["csv_sha256"]


def scan_check(spec, out, golden=None):
    """Every record must satisfy format (1, mu, mu + t, 1 + t) with
    mu = m + 2t - rank_q1 and class G(m - t - pivots_tail); for the default
    seed the CSV must also match the stored digest."""
    m, p, s = spec["m"], spec["p"], spec["scan_seed"]
    problems = []
    if out["rc"] != 0:
        problems.append(f"exit code {out['rc']}")
    if out["stderr"] != f"scan: {m} records, 0 of 1 trials skipped\n":
        problems.append(f"summary {out['stderr']!r}")
    rows = list(csv.reader(io.StringIO(out["csv"].decode())))
    if not rows or rows[0] != ["seed", "trial", "p", "m", "t", "rank_q1",
                               "pivots_tail", "l", "n", "r", "class"]:
        problems.append(f"header {rows[:1]!r}")
    body = rows[1:]
    if len(body) != m:
        problems.append(f"{len(body)} records, expected {m}")
    for t, row in enumerate(body, start=1):
        try:
            seed, trial, pp, mm, tt, rank, piv, l, n, r, cls = row
            rank, piv = int(rank), int(piv)
            mu = m + 2 * t - rank
            ok = ((int(seed), int(trial), int(pp), int(mm), int(tt)) == (s, 0, p, m, t)
                  and 0 <= piv <= rank <= min(3 * t, m)
                  and (int(l), int(n)) == (mu, 1 + t)
                  and r == str(m - t - piv) and cls == f"G({m - t - piv})")
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"record {row!r} breaks the format/class rule at t={t}")
    golden = golden if golden is not None else load_golden()
    golden_seed, digests = golden
    if spec["seed"] == golden_seed and spec["index"] < len(digests):
        digest = hashlib.sha256(out["csv"]).hexdigest()
        if digest != digests[spec["index"]]:
            problems.append(f"CSV digest {digest} differs from the stored one")
    return problems


# ---------------------------------------------------------------- corpus

def corpus_spec(seed, index):
    doc, m, t_rot = inputs.corpus_op(seed, index)
    return {"doc": doc, "m": m, "t_rot": t_rot}


def corpus_run(spec, workdir):
    """One matrix through the acceptance-corpus pipeline.  Returns plain
    verdict values read from pftrim's report objects."""
    import pftrim
    import pftrim.cli
    T = pftrim.cli.parse_matrix_document(spec["doc"]).to_matrix()
    ident = pftrim.check_identities(T)
    out = {"identities": {c.name: [c.cases, c.failures] for c in ident.checks},
           "trims": {}, "leibniz": {}}
    held = {}
    for t in range(1, T.m + 1):
        td = pftrim.trimmed_resolution(T, t)
        diagrams = pftrim.verify_diagrams(td)
        rep = pftrim.classify(T, t)
        minimal = pftrim.minimize(td.complex)
        out["trims"][t] = {
            "composes": td.complex.composes_to_zero(),
            "diagrams": [len(diagrams.checks), diagrams.all_passed],
            "format": list(rep.format), "rank": rep.rank_q1,
            "pivots_tail": rep.p, "class": rep.class_, "r": rep.r,
            "minimal": list(minimal.ranks),
        }
        held[t] = td
    for t in sorted({1, T.m, spec["t_rot"]}):
        table = pftrim.full_table(held[t])
        leib = pftrim.verify_leibniz(held[t], table)
        cell = {"cells": len(table.entries), "pairs": leib.pairs_checked,
                "violations": len(leib.violations)}
        if T.m >= 7:
            tor = pftrim.tor_products(held[t], table)
            cell["diagonal"] = tor.is_diagonal_pairing()
            cell["g_pairings"] = len(tor.g_pairing_indices())
        out["leibniz"][t] = cell
    return out


def corpus_check(spec, out):
    m = spec["m"]
    problems = []
    cases = identity_cases(m)
    want = {name: [cases[name], 0] for name in IDENTITY_NAMES}
    if out["identities"] != want:
        problems.append(f"identities {out['identities']}, expected {want}")
    if sorted(out["trims"]) != list(range(1, m + 1)):
        problems.append(f"trims {sorted(out['trims'])}")
    for t, rec in sorted(out["trims"].items()):
        rank = rec["rank"]
        fmt = [1, m + 2 * t - rank, m + 3 * t - rank, 1 + t]
        if not rec["composes"]:
            problems.append(f"t={t}: boundaries do not compose to zero")
        if rec["diagrams"] != [2 * t, True]:
            problems.append(f"t={t}: diagrams {rec['diagrams']}")
        if rec["format"] != fmt or rec["minimal"] != fmt:
            problems.append(f"t={t}: format {rec['format']}, minimized "
                            f"{rec['minimal']}, expected {fmt}")
        if m >= 7 and (rec["r"] != m - t - rec["pivots_tail"]
                       or rec["class"] != f"G({rec['r']})"):
            problems.append(f"t={t}: class {rec['class']} with r={rec['r']}, "
                            f"{rec['pivots_tail']} tail pivots at size {m}")
    trims = sorted({1, m, spec["t_rot"]})
    if sorted(out["leibniz"]) != trims:
        problems.append(f"leibniz trims {sorted(out['leibniz'])}, expected {trims}")
    for t, cell in sorted(out["leibniz"].items()):
        want = {"cells": table_cells(m, t), "pairs": leibniz_pairs(m, t),
                "violations": 0}
        if m >= 7:
            want.update(diagonal=True, g_pairings=out["trims"][t]["r"])
        if cell != want:
            problems.append(f"t={t}: leibniz/tor {cell}, expected {want}")
    return problems


WORKLOADS = {
    "verify": (verify_spec, verify_run, verify_check),
    "scan": (scan_spec, scan_run, scan_check),
    "corpus": (corpus_spec, corpus_run, corpus_check),
}

#: Ops per round.  A run measures whole rounds, so every run sees the same
#: mix of trims (verify) and of fields, sizes and profiles (corpus).
ROUND = {"verify": inputs.PARAMS["verify"]["size"],
         "scan": 1,
         "corpus": len(inputs.CORPUS_ROUND)}

#: Percentile reported as op_tail_s.  On scan it is the highest that
#: leaves ten ops beyond it in the 40 or more ops of a 35-second run on a
#: 2-core reference box.  Verify and corpus runs hold only 9 to 36 ops,
#: where no percentile above the median leaves ten beyond it, so they
#: report p85, interpolated between the slowest few ops of the run.  On
#: corpus, p85 falls among the size-9 prime-field and size-7 QQ matrices;
#: p90 falls at the top of that group, where the slowest single matrix of
#: the run decides it (its spread over ten seeds was 0.19 against 0.06).
TAIL_PERCENTILE = {"verify": 85, "scan": 75, "corpus": 85}

#: Ops of the traced run: one round, or ten scan ops.
TRACED_OPS = {"verify": ROUND["verify"], "scan": 10, "corpus": ROUND["corpus"]}
