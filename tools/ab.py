#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark (perfbench) on two revisions.

    python3 tools/ab.py [--base REV] [--head REV] [--workloads W[,W...]]
                        [--pairs N] [--seconds S] [--seed-base K] [--trace]
                        [--scratch DIR] [--json FILE]

Run from the repository root. `--base` (default HEAD) and `--head` (default:
the working tree, i.e. the tracked and untracked files git does not ignore)
are each exported into their own directory under --scratch (default
.ab_build/) with `git archive`, so neither touches the checkout or the
repository's metadata, and each side builds perfbench with that side's
perfbench/run.py. Re-running reuses a side's build: only files whose bytes
changed are rewritten. Giving the same revision twice is an A/A run.

For each workload, pair i runs both sides on seed K + i, base first on even
pairs and head first on odd ones, one process at a time. Seeds 9001-9999
are reserved for these runs: do not develop or tune on them. Each run is the
perfbench binary started from a small interpreter, as run.py starts it
(ECOCAP_THREADS=1); its CPU time comes from os.wait4 on the perfbench
process, and `cpu_s_per_op` is user plus system seconds over the run's
attempted ops (set-up and output checks included, so it compares the two
sides rather than giving an op's own cost).

Per metric it prints both medians, both interquartile ranges, the head's
change of median, the pairs the head won (by the metric's `better` in
BENCHMARK.json; ties count for neither side) and the two-sided exact sign
test p over the pairs that were not ties. `--trace` runs traced and reports
the per-layer metrics as well. Standard library only.
"""

import argparse
import importlib.util
import io
import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tarfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
SEEDS = range(9001, 10000)
KEEP = {".bench_build"}  # build trees kept across exports


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def tree_files(rev: str) -> dict:
    """Path -> bytes of every file of `rev`, or of the working tree."""
    if rev == WORKTREE:
        names = git("ls-files", "-z", "-co", "--exclude-standard").split(b"\0")
        out = {}
        for name in filter(None, names):
            path = ROOT / name.decode()
            if path.is_file():
                out[name.decode()] = path.read_bytes()
        return out
    out = {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        for m in tar.getmembers():
            if m.isfile():
                out[m.name] = tar.extractfile(m).read()
    return out


def export(rev: str, dest: pathlib.Path) -> None:
    """Makes `dest` hold exactly `rev`'s files (plus KEEP), rewriting only
    files whose bytes differ so that incremental builds stay incremental."""
    files = tree_files(rev)
    dest.mkdir(parents=True, exist_ok=True)
    for path in sorted(dest.rglob("*"), reverse=True):
        rel = path.relative_to(dest)
        if rel.parts[0] in KEEP:
            continue
        if path.is_file() and str(rel) not in files:
            path.unlink()
        elif path.is_dir() and not any(path.iterdir()):
            path.rmdir()
    for name, data in files.items():
        path = dest / name
        if path.is_file() and path.read_bytes() == data:
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def build(side: pathlib.Path, label: str) -> pathlib.Path:
    """Builds perfbench in `side` with that side's own run.py."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_run_{label}", side / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build()


# Starts perfbench from a fresh interpreter, as run.py does, and reports
# the child's rusage from os.wait4. A process inherits its parent's peak
# RSS through fork and exec, and perfbench's peak_rss_mb reads its own, so
# it must not start from this script, whose peak includes whole source
# trees; the launcher's peak is about run.py's.
LAUNCH = """import os, subprocess, sys
p = subprocess.Popen(sys.argv[1:])
_, status, ru = os.wait4(p.pid, 0)
print("ab-rusage", ru.ru_utime + ru.ru_stime, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_once(binary: pathlib.Path, workload: str, seed: int, seconds: float,
             trace_out) -> dict:
    """One perfbench process: its JSON result plus its CPU seconds."""
    cmd = [sys.executable, "-c", LAUNCH, str(binary), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace_out else "0"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, ECOCAP_THREADS="1")
    started = time.time()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=4 * seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the launcher and perfbench
        proc.communicate()
        return {"workload": workload, "seed": seed, "started": started,
                "exit": None, "error": "timed out"}
    err = err.decode(errors="replace")
    rec = {"workload": workload, "seed": seed, "started": started,
           "exit": proc.returncode}
    for line in err.splitlines():
        if line.startswith("ab-rusage "):
            rec["cpu_s"] = float(line.split()[1])
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec["error"] = err[-2000:]
        return rec
    rec["correct"] = result["correct"]
    rec["attempted"] = result["attempted"]
    rec["failed"] = result["failed"]
    rec["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    if result["attempted"] and "cpu_s" in rec:
        rec["metrics"]["cpu_s_per_op"] = rec["cpu_s"] / result["attempted"]
    if proc.returncode != 0:
        rec["error"] = err[-2000:]
    return rec


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact binomial test of wins against losses at p = 1/2."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, j) for j in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def iqr(xs: list) -> float:
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def directions(side: pathlib.Path) -> dict:
    bench = json.loads((side / "BENCHMARK.json").read_text())
    out = {m["name"]: m["better"]
           for m in bench["end_to_end"] + bench["per_layer"]}
    out["cpu_s_per_op"] = "lower"
    return out


def report(workload: str, pairs: list, better: dict, end_to_end: list,
           trace: bool) -> list:
    """Prints one workload's table; returns its rows."""
    ok = [(a, b) for a, b in pairs if "metrics" in a and "metrics" in b]
    names = list(end_to_end) + ["cpu_s_per_op"]
    if trace:
        extra = set()
        for a, b in ok:
            extra |= set(a["metrics"]) & set(b["metrics"])
        names += sorted(extra - set(names))
    print(f"{'metric':34} {'better':6} {'base med':>11} {'base iqr':>10} "
          f"{'head med':>11} {'head iqr':>10} {'change':>8} {'wins':>6} "
          f"{'p':>6}")
    rows = []
    for name in names:
        got = [(a["metrics"][name], b["metrics"][name]) for a, b in ok
               if name in a["metrics"] and name in b["metrics"]]
        if not got:
            continue
        base = [x for x, _ in got]
        head = [y for _, y in got]
        way = better.get(name)
        wins = losses = 0
        if way in ("higher", "lower"):
            sign = 1 if way == "higher" else -1
            wins = sum(1 for x, y in got if sign * (y - x) > 0)
            losses = sum(1 for x, y in got if sign * (y - x) < 0)
        mb, mh = statistics.median(base), statistics.median(head)
        change = (mh - mb) / abs(mb) if mb else 0.0
        p = sign_test_p(wins, losses)
        row = {"workload": workload, "metric": name, "better": way,
               "base_median": mb, "base_iqr": iqr(base), "head_median": mh,
               "head_iqr": iqr(head), "change": change, "wins": wins,
               "losses": losses, "pairs": len(got), "p": p}
        rows.append(row)
        win_text = f"{wins}/{len(got)}" if way else "-"
        print(f"{name:34} {way or '?':6} {mb:11.5g} {row['base_iqr']:10.4g} "
              f"{mh:11.5g} {row['head_iqr']:10.4g} {100 * change:+7.1f}% "
              f"{win_text:>6} {p:6.3f}")
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--head", default=WORKTREE,
                    help=f"a revision, or {WORKTREE} (default)")
    ap.add_argument("--workloads",
                    default="stream_daemon,batch_interrogate,supervised_chaos")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed-base", type=int, default=SEEDS.start)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scratch", type=pathlib.Path,
                    default=ROOT / ".ab_build")
    ap.add_argument("--json", type=pathlib.Path)
    args = ap.parse_args()
    if not (args.seed_base in SEEDS and
            args.seed_base + args.pairs - 1 in SEEDS):
        ap.error(f"seeds must lie in the reserved range "
                 f"{SEEDS.start}-{SEEDS.stop - 1}")

    sides = {}
    for label, rev in (("base", args.base), ("head", args.head)):
        side = (args.scratch / label).resolve()
        resolved = rev if rev == WORKTREE else git(
            "rev-parse", "--short", rev).decode().strip()
        print(f"# {label}: {resolved} -> {side}", file=sys.stderr)
        export(rev, side)
        sides[label] = (resolved, side, build(side, label))
    better = directions(sides["head"][1])
    end_to_end = [m["name"] for m in json.loads(
        (sides["head"][1] / "BENCHMARK.json").read_text())["end_to_end"]]
    traces = args.scratch / "traces"
    if args.trace:
        traces.mkdir(parents=True, exist_ok=True)

    records, rows = [], []
    for workload in args.workloads.split(","):
        pairs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            got = {}
            for label in order:
                _, _, binary = sides[label]
                trace_out = (traces / f"{label}-{workload}-{seed}.tsv"
                             if args.trace else None)
                rec = run_once(binary, workload, seed, args.seconds,
                               trace_out)
                rec["side"] = label
                records.append(rec)
                got[label] = rec
                state = ("correct" if rec.get("correct") else
                         f"NOT CORRECT (exit {rec['exit']})")
                print(f"# {workload} pair {i} seed {seed} {label}: {state}",
                      file=sys.stderr)
                if "error" in rec:
                    print(rec["error"], file=sys.stderr)
            pairs.append((got["base"], got["head"]))
        print(f"\n== {workload}: base {sides['base'][0]} vs head "
              f"{sides['head'][0]}, {args.pairs} pairs, seeds "
              f"{args.seed_base}-{args.seed_base + args.pairs - 1}, "
              f"{args.seconds:g} s runs{', traced' if args.trace else ''}")
        rows += report(workload, pairs, better, end_to_end, args.trace)
        for label in ("base", "head"):
            runs = [p[0 if label == "base" else 1] for p in pairs]
            correct = sum(1 for r in runs if r.get("correct"))
            failed = sum(r.get("failed", 0) for r in runs)
            print(f"{label}: {correct}/{len(runs)} runs correct, "
                  f"{failed} failed ops")
    if args.json:
        args.json.write_text(json.dumps(
            {"base": sides["base"][0], "head": sides["head"][0],
             "rows": rows, "runs": records}, indent=1))
    return 0 if all(r.get("correct") for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
