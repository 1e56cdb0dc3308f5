"""Run one benchmark workload of modchar and print its metrics.

    python3 perfbench/run.py --workload sums --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. Each workload runs in this one
process as a closed loop: one client, one operation at a time, every
operation an in-process `modchar.cli.main(argv)` call at the CLI defaults
(one sieve worker thread). The op list drawn from the seed repeats in
rounds until the next round would end past --seconds; a round is the
batch of commands a user would wait for. Thread scaling is not measured:
the reference machine has 2 shared cores.

--trace 0 prints the end-to-end metrics, medians over the rounds:
  setup_s       import of modchar plus building the inputs (configs,
                character groups), median of the run itself and
                SETUP_PROBES fresh processes doing only that
  wall_s        wall time of one round
  cpu_s         user + system CPU of this process over one round
  peak_rss_mib  peak resident set of this process
The three times are in reference seconds: each measured time is scaled by
CAL_REF_S over the time of a fixed calibration kernel (Calibrator) run
right before and after it. On the reference machine, a 2-vCPU VM on a
shared host, the speed of identical work drifts by up to 1.8x within
minutes; the kernel drifts with it, so the scaled times hold still while
the program's own cost shows. Unscaled medians are printed on the text
lines.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of tracer.py, unscaled, plus trace_overhead (traced / untraced
scaled wall time - 1).

Every op's output is checked against an independent route (checks.py)
after the timed rounds, and every round's output must equal the first
round's byte for byte. The last stdout line is one JSON object with
correct, attempted, failed and metrics; failed counts ops that raised,
exited 2, or failed a check. --workload all runs each workload in a fresh
process and prints their metrics under <workload>.<metric>.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 8
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mib", "MiB"))
CAL_REF_S = 0.016      # calibration kernel time on the reference machine


class Calibrator:
    """A fixed kernel timed next to every measurement. It mixes strided
    numpy integer work and a chunked complex reduction on buffers allocated
    once with interpreter-heavy work (Fractions, dicts, mpmath floats,
    JSON), so its time follows the machine's speed for both kinds of code
    the workloads run, and not the program's memory state. It never calls
    modchar."""

    def __init__(self):
        import mpmath
        import numpy as np
        self._np, self._mp = np, mpmath
        self._src = np.arange(1 << 19, dtype=np.int64)
        self._ints = np.empty_like(self._src)
        self._cplx = np.empty(1 << 19, dtype=np.complex128)
        self._cuts = np.arange(0, 1 << 19, 4096)
        self.seconds()                  # warm caches before any timed use

    def seconds(self) -> float:
        np, mp, a = self._np, self._mp, self._ints
        t0 = time.perf_counter()
        np.copyto(a, self._src)
        for p in (3, 5, 7, 11, 13):
            a[::p] //= p
        np.remainder(a, 1009, out=a)
        self._cplx[:] = a
        np.add.reduceat(self._cplx, self._cuts)
        acc, counts = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i % 7, i)
            counts[i % 97] = counts.get(i % 97, 0) + i
        with mp.workdps(40):
            x = mp.mpf(1)
            for i in range(1, 300):
                x = x * mp.mpf(i + 0.5) / (i + 1) + mp.mpf(1) / i
        json.loads(json.dumps([{"k": i, "v": str(i * i)} for i in range(300)]))
        return time.perf_counter() - t0


def _import_modchar():
    """Import modchar from this checkout's src/, or exit with status 3."""
    if not os.path.isfile(os.path.join(SRC, "modchar", "__init__.py")):
        print(f"run.py: no modchar sources under {SRC}; run from the root of"
              f" a source checkout", file=sys.stderr)
        sys.exit(3)
    sys.path[:0] = [SRC, ROOT]
    import modchar.cli
    if not os.path.abspath(modchar.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported modchar from {modchar.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(3)
    return modchar.cli


def _setup(workload: str, seed: int, workdir: str, trace=False, sizes=None):
    """Import modchar and build the workload, traced when asked.

    Returns (cli module, workload, seconds taken, tracer or None).
    """
    t0 = time.perf_counter()
    cli = _import_modchar()
    tracer = None
    if trace:
        from perfbench.tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from perfbench import workloads
    wl = workloads.build(workload, seed, workdir, sizes)
    return cli, wl, time.perf_counter() - t0, tracer


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, calibration seconds) measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    return doc["setup_s"], doc["cal_s"]


def _calibration_now() -> float:
    cal = Calibrator()
    return statistics.median(cal.seconds() for _ in range(3))


def _run_op(cli, op) -> dict:
    for path in op.files:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as e:          # argparse usage errors exit 2
        rc = e.code
    except Exception as e:           # counted as a failed op, run goes on
        exc = repr(e)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    texts = {}
    for path in op.files:
        with contextlib.suppress(FileNotFoundError):
            with open(path, encoding="utf-8") as fh:
                texts[path] = fh.read()
    return {"wall": wall, "cpu": cpu, "rc": rc, "exc": exc,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
            "texts": texts}


def _op_ok(op, res) -> bool:
    if res["exc"] is not None or res["rc"] == 2:
        return False
    return op.kind == "verify" or res["rc"] == 0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, probes: int = SETUP_PROBES,
                 workdir: str | None = None) -> dict:
    """Set up, run rounds for `seconds`, check outputs, compute metrics.

    sizes overrides workloads.DEFAULT_SIZES (tests run small inputs).
    """
    os.environ.pop("MODCHAR_THREADS", None)     # CLI default: one thread
    workdir = workdir or os.path.join(WORK, name)
    cli, wl, setup_main, tracer = _setup(name, seed, workdir, trace, sizes)
    setups = [(setup_main, _calibration_now())]
    cal = Calibrator()
    if not trace:
        setups += [_probe_setup(name, seed) for _ in range(probes)]

    first: list[dict | None] = [None] * len(wl.ops)
    failed_rounds = [0] * len(wl.ops)
    rounds: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        wall = cpu = scaled_wall = scaled_cpu = 0.0
        cal_before = cal.seconds()
        for i, op in enumerate(wl.ops):
            if traced:
                tracer.op = len(rounds) * len(wl.ops) + i + 1
            res = _run_op(cli, op)
            cal_after = cal.seconds()
            scale = 2 * CAL_REF_S / (cal_before + cal_after)
            cal_before = cal_after
            wall += res["wall"]
            cpu += res["cpu"]
            scaled_wall += res["wall"] * scale
            scaled_cpu += res["cpu"] * scale
            if first[i] is None:
                first[i] = res
            ok = _op_ok(op, res) and (
                res["stdout"] == first[i]["stdout"]
                and res["texts"] == first[i]["texts"])
            failed_rounds[i] += not ok
        rounds.append({"wall": wall, "cpu": cpu, "traced": traced,
                       "scaled_wall": scaled_wall, "scaled_cpu": scaled_cpu})
        n_traced = sum(r["traced"] for r in rounds)
        # stop when another round would end past the deadline
        if time.perf_counter() + wall >= deadline and (
                not trace or 0 < n_traced < len(rounds)):
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from perfbench import checks
    stats: dict = {}
    problems = []
    # Riesz rows are checked at x = 1, 10, 20, three seed-drawn
    # checkpoints further out and x_max.
    samples = [0, 9, 19] + sorted(
        random.Random(f"samples:{seed}").sample(range(20, 200), 3)) + [-1]
    for i, op in enumerate(wl.ops):
        res = first[i]
        found = checks.check_op(op, res["stdout"], res["texts"], wl.configs,
                                stats, samples) if _op_ok(op, res) else \
            [f"rc={res['rc']} exc={res['exc']} {res['stderr'][-200:]!r}"]
        if found:
            failed_rounds[i] = len(rounds)
            problems += [f"{' '.join(op.argv[:2])}: {p}" for p in found]

    attempted = len(rounds) * len(wl.ops)
    failed = sum(failed_rounds)
    untraced = [r for r in rounds if not r["traced"]]
    if trace:
        from perfbench.tracer import layer_metrics
        n_traced = len(rounds) - len(untraced)
        overhead = (statistics.median(r["scaled_wall"] for r in rounds
                                      if r["traced"])
                    / statistics.median(r["scaled_wall"] for r in untraced) - 1)
        tracer.write(os.path.join(workdir, "trace.jsonl"))
        metrics = layer_metrics(tracer, n_traced,
                                sum(op.requested_x for op in wl.ops),
                                stats, overhead)
    else:
        values = {
            "setup_s": statistics.median(t * CAL_REF_S / c for t, c in setups),
            "wall_s": statistics.median(r["scaled_wall"] for r in untraced),
            "cpu_s": statistics.median(r["scaled_cpu"] for r in untraced),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    span_counts: dict[str, int] = {}
    for span in (tracer.spans if tracer is not None else ()):
        span_counts[span[1]] = span_counts.get(span[1], 0) + 1
    unscaled = {"setup_s": statistics.median(t for t, _ in setups),
                 "wall_s": statistics.median(r["wall"] for r in untraced),
                 "cpu_s": statistics.median(r["cpu"] for r in untraced),
                 "calibration_s": statistics.median(c for _, c in setups)}
    return {"workload": name, "seed": seed, "rounds": len(rounds),
            "span_counts": span_counts, "unscaled": unscaled,
            "ops_per_round": len(wl.ops), "correct": failed == 0,
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "problems": problems,
            "metrics": metrics}


def _report(res: dict):
    print(f"{res['workload']}: seed {res['seed']}, {res['rounds']} rounds of"
          f" {res['ops_per_round']} ops, error_rate {res['error_rate']:.6g}"
          f" ratio ({res['failed']}/{res['attempted']})")
    for p in res["problems"]:
        print(f"{res['workload']}: FAILED {p}")
    for key, m in res["metrics"].items():
        shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{res['workload']} {key} {shown} {m['unit']}")
    for key, val in res["unscaled"].items():
        print(f"{res['workload']} unscaled {key} {val:.6g} s")


def main(argv=None) -> int:
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        workdir = os.path.join(WORK, args.workload, "probe")
        secs = _setup(args.workload, args.seed, workdir)[2]
        print(json.dumps({"setup_s": secs, "cal_s": _calibration_now()}))
        return 0

    if args.workload == "all":
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            last = json.loads(lines[-1])
            merged["correct"] &= last["correct"]
            merged["attempted"] += last["attempted"]
            merged["failed"] += last["failed"]
            for key, m in last["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = m
        print(json.dumps(merged))
        return 0

    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    _report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
