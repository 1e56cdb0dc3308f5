"""Benchmark a change against a parent revision in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD --seeds 601-610 \\
        --what "..." --out BENCH_6.json

Each side runs from its own fresh copy in a temporary directory: the
parent from `git archive <rev>`, the change from the working tree as it is
on disk (every file git tracks or would track, so new files count and
ignored build output does not). For each workload listed in BENCHMARK.json
and each seed, both sides run `perfbench/run.py --workload W --seed S
--seconds T --trace 0` from their own copy, with T the benchmark's
run_seconds, one run at a time, the side that goes first alternating by
pair. Then each side makes one `--trace 1` run per workload at seed 1.

After each untraced run the SHA-256 of every file the run left under
<tree>/.perfbench_out/<workload>/ (but probe/ and trace.jsonl) goes into
the pair as that side's "outputs". So does the SHA-256 of each op's
stdout, keyed "stdout/<index> <command>": a fresh process started in the
tree replays one round of its workload at that seed, with the relative
work directory .perfbench_out/replay/<workload>, so paths an op prints
read the same on both sides.

The output JSON has the layout of the committed BENCH_<n>.json files:
what, parent, machine, how, summary, pairs and trace_seed_1. In the
summary each end-to-end metric of BENCHMARK.json gets, per side, the
median and the quartiles (statistics.quantiles, n=4) over the pairs;
change_wins counts the pairs where the change reads better (lower or
higher, as BENCHMARK.json says); median_gap_exceeds_parent_iqr compares
|median change - median parent| with the parent's q3 - q1; pair_ratios
holds each pair's change/parent value, in pair order, with their median
and quartiles; sign_test_p is the two-sided exact sign test over the
pairs, ties dropped: with w pairs won and l lost, the chance that
n = w + l fair coin flips split at least as unevenly,
2 sum_{i <= min(w, l)} C(n, i) / 2^n capped at 1 (2/1024 at 10 wins of
10); failed_of_attempted sums perfbench's failed and attempted counts; and
outputs_identical says whether both sides left the same files, byte for
byte, at every seed. It only records: a change to the numerics may move
last digits on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TRACE_SEED = 1
UNSCALED = re.compile(r"^\S+ unscaled (\S+) (\S+) s$")


def _git(*args: str) -> bytes:
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True).stdout


def copy_revision(rev: str, dest: str):
    archive = _git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def copy_working_tree(dest: str):
    names = _git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        src = os.path.join(ROOT, name)
        if not os.path.isfile(src):         # tracked but deleted on disk
            continue
        dst = os.path.join(dest, name)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench/run.py process; its JSON line plus the unscaled times."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited"
                         f" {proc.returncode}")
    out = json.loads(lines[-1])
    out["unscaled"] = {m.group(1): float(m.group(2))
                       for m in map(UNSCALED.match, lines[:-1]) if m}
    return out


def output_hashes(tree: str, workload: str) -> dict:
    """SHA-256 of each file a run left in its work directory, by relative
    path; the setup probes and the trace are skipped."""
    top = os.path.join(tree, ".perfbench_out", workload)
    out = {}
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames
                             if dirpath != top or d != "probe")
        for name in sorted(filenames):
            if name == "trace.jsonl":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def stdout_hashes(tree: str, workload: str, seed: int) -> dict:
    """SHA-256 of each op's stdout in one round replayed from the tree."""
    cmd = [sys.executable, os.path.abspath(__file__), "--replay", workload,
           str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited"
                         f" {proc.returncode}")
    return json.loads(proc.stdout)


def replay(workload: str, seed: int) -> dict:
    """Run from a tree's root: its perfbench builds the workload at seed and
    runs each op once on that tree's src/, as a timed round does."""
    sys.path.insert(0, os.getcwd())
    from perfbench import run, workloads
    cli = run._import_modchar()
    wl = workloads.build(workload, seed,
                         os.path.join(".perfbench_out", "replay", workload))
    return {f"stdout/{i:02d} {op.argv[0]}": hashlib.sha256(
                run._run_op(cli, op)["stdout"].encode()).hexdigest()
            for i, op in enumerate(wl.ops)}


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign test: the chance that wins + losses fair coin
    flips split at least as unevenly, capped at 1; 1 with no flips."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                for side in SIDES}
        stats = {side: _stats(vals[side]) for side in SIDES}
        sign = 1 if metric["better"] == "lower" else -1
        gaps = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
        wins = sum(g < 0 for g in gaps)
        ratios = [c / p for p, c in zip(vals["parent"], vals["change"])]
        par, chg = stats["parent"], stats["change"]
        out[name] = {
            **stats, "change_wins": wins, "pairs": len(pairs),
            "median_ratio_change_over_parent": chg["median"] / par["median"],
            "median_gap_exceeds_parent_iqr":
                abs(chg["median"] - par["median"]) > par["q3"] - par["q1"],
            "pair_ratios": {**_stats(ratios), "values": ratios},
            "sign_test_p": sign_test_p(wins, sum(g > 0 for g in gaps))}
    out["failed_of_attempted"] = {
        side: [sum(p[side]["failed"] for p in pairs),
               sum(p[side]["attempted"] for p in pairs)] for side in SIDES}
    out["outputs_identical"] = all(
        p["parent"]["outputs"] == p["change"]["outputs"] for p in pairs)
    return out


def machine() -> dict:
    import mpmath
    import numpy as np
    cpu = platform.processor() or platform.machine()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    ld = np.finfo(np.longdouble)
    return {"cpu": cpu, "vcpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__,
            "longdouble": f"{ld.dtype}, {ld.nmant}-bit mantissa"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD",
                    help="git revision of the parent side (default HEAD)")
    ap.add_argument("--seeds", default="601-610",
                    help="one seed per pair, LO-HI inclusive")
    ap.add_argument("--what", default="",
                    help="one line saying what the change does")
    ap.add_argument("--out", help="JSON file to write (required)")
    ap.add_argument("--replay", nargs=2, metavar=("WORKLOAD", "SEED"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.replay:
        print(json.dumps(replay(args.replay[0], int(args.replay[1]))))
        return 0
    if args.out is None:
        ap.error("the following arguments are required: --out")
    lo, hi = map(int, args.seeds.split("-"))
    seeds = range(lo, hi + 1)
    parent = _git("rev-parse", args.parent).decode().strip()

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for tree in trees.values():
            os.makedirs(tree)
        copy_revision(parent, trees["parent"])
        copy_working_tree(trees["change"])
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]

        pairs, summary, traces = {}, {}, {}
        for wl in (w["name"] for w in bench["workloads"]):
            pairs[wl] = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"bench_pairs: {wl} seed {seed} {side}",
                          file=sys.stderr, flush=True)
                    pair[side] = run_once(trees[side], wl, seed, seconds, 0)
                    pair[side]["outputs"] = {
                        **output_hashes(trees[side], wl),
                        **stdout_hashes(trees[side], wl, seed)}
                pairs[wl].append(pair)
            summary[wl] = summarise(pairs[wl], bench["end_to_end"])
            traces[wl] = {}
            for side in SIDES:
                print(f"bench_pairs: {wl} trace {side}", file=sys.stderr,
                      flush=True)
                traces[wl][side] = run_once(trees[side], wl, TRACE_SEED,
                                            seconds, 1)

    how = (f"every number comes from perfbench/run.py --workload W --seed S"
           f" --seconds {seconds:g} --trace T, run by"
           f" scripts/bench_pairs.py from a fresh copy of each tree (git"
           f" archive of the parent; the working tree's tracked and"
           f" unignored files for the change); {len(seeds)} pairs per"
           f" workload with seeds {args.seeds}, the side that runs first"
           f" alternating by pair, one run at a time; one --trace 1 run per"
           f" side and workload at seed {TRACE_SEED}. Times are in"
           f" reference seconds as run.py scales them; quartiles from"
           f" statistics.quantiles(n=4); change_wins counts pairs where the"
           f" change reads better; pair_ratios are the per-pair values"
           f" change/parent, in pair order, with their median and quartiles;"
           f" sign_test_p is the two-sided exact sign test on the pairs won"
           f" and lost, ties dropped (the chance that as many fair coin"
           f" flips split at least as unevenly; 2/1024 at 10 wins of 10).")
    result = {"what": args.what, "parent": parent, "machine": machine(),
              "how": how, "summary": summary, "pairs": pairs,
              f"trace_seed_{TRACE_SEED}": traces}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for wl, rows in summary.items():
        for name, row in rows.items():
            if name == "failed_of_attempted":
                print(f"{wl} {name} {row['parent']} -> {row['change']}")
                continue
            if name == "outputs_identical":
                print(f"{wl} {name} {row}")
                continue
            print(f"{wl} {name} {row['parent']['median']:.4g} ->"
                  f" {row['change']['median']:.4g}"
                  f" wins {row['change_wins']}/{row['pairs']}"
                  f" gap>iqr {row['median_gap_exceeds_parent_iqr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
