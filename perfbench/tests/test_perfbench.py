"""Tests of the benchmark itself.

Each correctness route must reject a perturbed output, the tracer's
wrappers must be transparent, and every per-layer metric that the layer
map assigns to a workload must record spans on it. Inputs are the
benchmark's own families at small sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from perfbench import checks, run, workloads
from perfbench.tracer import Tracer, layer_metrics

SMALL = {"sums_x": 60_000, "sums_every": 50, "verify_x": 30_000,
         "lfun_moduli": (13, 11), "poleseries_nmax": 5_000}
WORK = os.path.join(run.WORK, "tests")
SAMPLES = [0, 9, 19, 40, -1]

# span names each workload must record (the layer table of README.md)
EXPECTED_SPANS = {
    "sums": {"characters.group_build", "characters.angle_table",
             "sieve.block_angles", "sieve.block_values", "sieve.partial_sums",
             "summation.piecewise_sums", "config.parse", "cli.format",
             "cli.write"},
    "verify": {"sieve.block_angles", "sieve.block_values",
               "sieve.partial_sums", "sieve.riesz_means",
               "summation.piecewise_sums", "analysis.fit",
               "analysis.growth_check", "diophantine.min_riesz_order",
               "cli.format", "cli.write"},
    "lfun": {"lfunctions.hurwitz", "lfunctions.em_float",
             "lfunctions.em_bigfloat", "lfunctions.L_value",
             "lfunctions.fe_check", "lfunctions.gauss_sum",
             "lfunctions.leading_coefficient",
             "diophantine.continued_fraction", "diophantine.pole_series",
             "diophantine.min_riesz_order"},
}


def _cli():
    return run._import_modchar()


@pytest.fixture(scope="module")
def small():
    """Every workload built small, each op run once: name -> (wl, results)."""
    cli = _cli()
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 3, os.path.join(WORK, name), SMALL)
        out[name] = (wl, [run._run_op(cli, op) for op in wl.ops])
    return out


def _problems(wl, op, res, **changes):
    texts = dict(res["texts"], **changes.get("texts", {}))
    stdout = changes.get("stdout", res["stdout"])
    return checks.check_op(op, stdout, texts, wl.configs, {}, SAMPLES)


def _op(small, name, kind, config_part=""):
    wl, results = small[name]
    for op, res in zip(wl.ops, results):
        if op.kind == kind and config_part in " ".join(op.argv):
            return wl, op, res
    raise LookupError(kind)


def _flip_digit(field: str, nth: int) -> str:
    """Change the nth significant digit of a printed number."""
    seen = 0
    for i, ch in enumerate(field):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == nth:
                return field[:i] + str((int(ch) + 1) % 10) + field[i + 1:]
    raise ValueError(f"{field!r} has fewer than {nth} digits")


def _edit_row(text: str, row: int, col: int, fn) -> str:
    lines = text.splitlines()
    parts = lines[row].split(",")
    parts[col] = fn(parts[col])
    lines[row] = ",".join(parts)
    return "\n".join(lines) + "\n"


KNOWN_DEFECT = ("the program's order-39 Riesz means at x below about 40 are"
                " off by up to 2e15 (true R_39(1) = 0); the check must fail")


def _riesz_small_x_only(problems) -> bool:
    """Every problem is a Riesz value at x < 64 off from the direct sum."""
    xs = [re.match(r".*R_\d+\((\d+)\) = .*direct sum", p) for p in problems]
    return bool(xs) and all(m and int(m[1]) < 64 for m in xs)


@pytest.mark.parametrize("name", [
    "sums", "lfun",
    pytest.param("verify", marks=pytest.mark.xfail(strict=True,
                                                   reason=KNOWN_DEFECT))])
def test_unperturbed_outputs_pass(small, name):
    wl, results = small[name]
    for op, res in zip(wl.ops, results):
        assert run._op_ok(op, res), (op.argv, res["stderr"])
        assert _problems(wl, op, res) == [], op.argv


def test_verify_fails_only_on_the_known_small_x_defect(small):
    wl, results = small["verify"]
    for op, res in zip(wl.ops, results):
        assert _riesz_small_x_only(_problems(wl, op, res)), op.argv


def test_sums_digit_flip_fails_exact_route(small):
    wl, op, res = _op(small, "sums", "simulate", "sums_fig1")
    path = op.files[0]
    last = len(res["texts"][path].splitlines()) - 1
    for digits in (1, 2):       # leading and, for two-digit sums, last digit
        text = _edit_row(res["texts"][path], last, 1,
                         lambda f: _flip_digit(f, min(digits, len(f.strip("-")))))
        assert _problems(wl, op, res, texts={path: text})


def test_sums_digit_flip_fails_complex_route(small):
    wl, op, res = _op(small, "sums", "simulate", "sums_cplx_small")
    path = op.files[0]
    last = len(res["texts"][path].splitlines()) - 1
    text = _edit_row(res["texts"][path], last, 2, lambda f: _flip_digit(f, 6))
    assert _problems(wl, op, res, texts={path: text})


def test_riesz_nudge_fails(small):
    wl, op, res = _op(small, "verify", "verify", "verify_cplx")
    riesz = op.files[1]
    lines = res["texts"][riesz].splitlines()
    row = len(lines) - 1                 # order k at x_max, a sampled point
    text = _edit_row(res["texts"][riesz], row, 2,
                     lambda f: f"{float(f) * (1 + 1e-6):.17g}")
    x_max, k = lines[row].split(",")[:2]
    assert not any(p.startswith(f"R_{k}({x_max}) = ")
                   for p in _problems(wl, op, res)), "unnudged row fails"
    found = _problems(wl, op, res, texts={riesz: text})
    assert any(p.startswith(f"R_{k}({x_max}) = ") for p in found), found


def test_riesz_small_x_nudge_fails(small):
    """At x = 10 a correct value passes and the same value nudged by 1e-6
    fails. The correct value is summed in mpmath at 40 digits."""
    import mpmath as mp
    wl, op, res = _op(small, "verify", "verify", "verify_fig1")
    riesz, k = op.files[1], op.meta["k"]
    lines = res["texts"][riesz].splitlines()
    row = next(i for i, ln in enumerate(lines)
               if ln.startswith(f"10,{k},"))
    model = checks.model_from_doc(wl.configs[op.meta["config"]])
    f = checks.f_values(model, 10)
    with mp.workdps(40):
        true = float(mp.fsum(int(f[n]) * (mp.log(10) - mp.log(n)) ** k
                             for n in range(1, 11)))
    mark = f"R_{k}(10) = "
    for scale, fails in ((1.0, False), (1 + 1e-6, True)):
        text = _edit_row(res["texts"][riesz], row, 2,
                         lambda f: f"{true * scale:.17g}")
        text = _edit_row(text, row, 3, lambda f: "0")
        found = _problems(wl, op, res, texts={riesz: text})
        assert any(p.startswith(mark) for p in found) == fails, found


def test_riesz_order_zero_row_must_equal_sums(small):
    wl, op, res = _op(small, "verify", "verify", "verify_fig1")
    riesz = op.files[1]
    text = _edit_row(res["texts"][riesz], 30, 2, lambda f: _flip_digit(f, 1))
    found = _problems(wl, op, res, texts={riesz: text})
    assert any("k = 0" in p for p in found), found


def test_dropped_hurwitz_term_fails(small, monkeypatch):
    from modchar import lfunctions
    wl, op, res = _op(small, "lfun", "lfun")
    q = int(op.meta["label"].split(".")[0])
    orig = lfunctions.hurwitz_zeta_with_bound

    def drop_first(s, a, *args, **kwargs):
        if a == 1 / q:
            return 0j, 0.0
        return orig(s, a, *args, **kwargs)

    monkeypatch.setattr(lfunctions, "hurwitz_zeta_with_bound", drop_first)
    dropped = run._run_op(_cli(), op)
    found = _problems(wl, op, res, stdout=dropped["stdout"])
    assert any("mpmath" in p for p in found), found


def test_other_lfun_outputs_perturbed_fail(small):
    wl, op, res = _op(small, "lfun", "coeff")
    doc = json.loads(res["stdout"])
    doc["value"][0] *= 1 + 1e-9
    assert _problems(wl, op, res, stdout=json.dumps(doc))

    wl, op, res = _op(small, "lfun", "kmin")
    k = int(res["stdout"].split()[2])
    assert _problems(wl, op, res,
                     stdout=res["stdout"].replace(f"= {k} ", f"= {k + 1} "))

    wl, op, res = _op(small, "lfun", "dioph")
    doc = json.loads(res["stdout"])
    doc["rows"][-1]["b"] += 1
    assert _problems(wl, op, res, stdout=json.dumps(doc))

    wl, op, res = _op(small, "lfun", "poleseries")
    path = op.files[0]
    text = _edit_row(res["texts"][path], 5, 1, lambda f: _flip_digit(f, 4))
    assert _problems(wl, op, res, texts={path: text})


def test_tracer_wrappers_return_values_unchanged():
    _cli()
    from modchar import diophantine, lfunctions, sieve, summation
    from modchar.presets import preset_config
    mc = preset_config("fig1").modified()
    chi = mc.base

    def results():
        ps = sieve.partial_sums(mc, 20_000)
        rm = sieve.riesz_means(mc, [0, 5], 20_000)
        return (ps.sums.tobytes(), ps.exact_sums.tobytes(),
                rm.values.tobytes(),
                lfunctions.L_value(lfunctions.LContext(chi), 0.5),
                diophantine.continued_fraction(2, 3).convergents,
                summation.piecewise_sums(np.arange(10.0), 0,
                                         np.array([3, 7])).tobytes())

    before = results()
    originals = {name: getattr(sieve, name) for name in dir(sieve)}
    tracer = Tracer()
    tracer.install()
    try:
        assert sieve.partial_sums is not originals["partial_sums"]
        traced = results()
        marker = object()
        assert tracer.wrap("t", lambda *a, **k: marker)(1, x=2) is marker
    finally:
        tracer.uninstall()
    assert traced == before
    assert {n: getattr(sieve, n) for n in dir(sieve)} == originals
    assert {s[1] for s in tracer.spans} >= {
        "sieve.partial_sums", "sieve.riesz_means", "sieve.block_angles",
        "summation.piecewise_sums", "lfunctions.hurwitz",
        "diophantine.continued_fraction"}


def test_missing_function_is_reported_missing():
    _cli()
    tracer = Tracer()
    tracer.install([("modchar.sieve", "no_such_function",
                     "sieve.partial_sums", None)])
    metrics = layer_metrics(tracer, 1, 0, {}, 0.0)
    assert metrics["sieve.partial_sums_self_s"] == {
        "value": None, "unit": "s", "missing": True}
    assert metrics["sieve.block_angles_s"]["value"] == 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_mapped_layer_records_spans(name):
    _cli()
    from modchar.characters import character_group
    character_group.cache_clear()        # as in the benchmark's fresh process
    res = run.run_workload(name, 5, 0.0, True, sizes=SMALL,
                           workdir=os.path.join(WORK, f"traced_{name}"))
    if name == "verify":            # KNOWN_DEFECT: failed, and only by it
        assert _riesz_small_x_only(
            [p.split(": ", 1)[1] for p in res["problems"]]), res["problems"]
    else:
        assert res["correct"], res["problems"]
    counts = res["span_counts"]
    assert EXPECTED_SPANS[name] <= set(counts), \
        EXPECTED_SPANS[name] - set(counts)
    metrics = res["metrics"]
    assert all(m["value"] is not None for m in metrics.values())
    if name == "lfun":
        assert not any(n.startswith(("sieve.", "summation.")) for n in counts)
        assert all(m["value"] == 0 for key, m in metrics.items()
                   if key.startswith(("sieve.", "summation.")))
    else:
        assert "lfunctions.hurwitz" not in counts
    if name == "verify":
        assert metrics["sieve.resieve_ratio"]["value"] == 2.0
    if name == "sums":
        assert metrics["sieve.resieve_ratio"]["value"] == 1.0


def test_end_to_end_metrics():
    res = run.run_workload("lfun", 7, 0.0, False, sizes=SMALL, probes=1,
                           workdir=os.path.join(WORK, "e2e"))
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {"setup_s", "wall_s", "cpu_s",
                                   "peak_rss_mib"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_same_seed_same_inputs():
    a = workloads.build("verify", 11, os.path.join(WORK, "seed_a"), SMALL)
    b = workloads.build("verify", 11, os.path.join(WORK, "seed_b"), SMALL)
    c = workloads.build("verify", 12, os.path.join(WORK, "seed_c"), SMALL)
    assert list(a.configs.values()) == list(b.configs.values())
    assert list(a.configs.values()) != list(c.configs.values())
