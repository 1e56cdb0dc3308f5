"""Outside-in tracing of modchar's layers, installed from the benchmark.

Nothing under src/ knows about it: `Tracer.install()` replaces the public
functions and methods of each module with timing wrappers, both in the
module that defines them and under every name another modchar module
imported them by (`cli.partial_sums`, `sieve.piecewise_sums`, ...), so
the CLI path is traced end to end. `uninstall()` puts the originals back.

A span records its name, start, end, parent span and op id. Spans stay in
memory until `write()` at the end of the run. Recursive calls fold into
the outermost span of the same name. A layer's self time is its duration
minus the time its child spans cover.

A target that no longer exists is recorded as missing, and every metric
built from it is reported as missing, never as 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

from modchar.summation import CHUNK

# (module, attribute path, span name, attrs(args, kwargs, result) or None)
TARGETS = [
    ("modchar.characters", "CharacterGroup.__init__", "characters.group_build", None),
    ("modchar.characters", "Character.angle_numerators", "characters.angle_table", None),
    ("modchar.sieve", "SieveContext.block_angles", "sieve.block_angles",
     lambda a, kw, r: {"integers": a[2] - a[1]}),
    ("modchar.sieve", "SieveContext.block_values", "sieve.block_values", None),
    ("modchar.sieve", "partial_sums", "sieve.partial_sums",
     lambda a, kw, r: {"float_drift": _float_drift(r)}),
    ("modchar.sieve", "riesz_means", "sieve.riesz_means",
     lambda a, kw, r: _riesz_counts(r)),
    ("modchar.summation", "piecewise_sums", "summation.piecewise_sums",
     lambda a, kw, r: {"elements": len(a[0])}),
    ("modchar.lfunctions", "hurwitz_zeta_with_bound", "lfunctions.hurwitz", None),
    ("modchar.lfunctions", "_em_sum", "lfunctions.em_float", None),
    ("modchar.lfunctions", "_em_sum_bigfloat", "lfunctions.em_bigfloat", None),
    ("modchar.lfunctions", "L_value", "lfunctions.L_value", None),
    ("modchar.lfunctions", "functional_equation_check", "lfunctions.fe_check", None),
    ("modchar.lfunctions", "gauss_sum", "lfunctions.gauss_sum", None),
    ("modchar.lfunctions", "leading_coefficient", "lfunctions.leading_coefficient", None),
    ("modchar.diophantine", "continued_fraction", "diophantine.continued_fraction",
     lambda a, kw, r: {"requested": kw.get("depth", a[2] if len(a) > 2 else 40),
                       "trusted": len(r.partial_quotients)}),
    ("modchar.diophantine", "pole_series_diagnostic", "diophantine.pole_series", None),
    ("modchar.diophantine", "min_riesz_order", "diophantine.min_riesz_order", None),
    ("modchar.analysis", "fit_riesz_polynomial", "analysis.fit", None),
    ("modchar.analysis", "growth_check", "analysis.growth_check", None),
    ("modchar.config", "parse_config", "config.parse", None),
    ("modchar.cli", "_sums_csv", "cli.format", None),
    ("modchar.cli", "_riesz_csv", "cli.format", None),
    ("modchar.cli", "_pole_csv", "cli.format", None),
    ("modchar.cli", "_gnuplot_script", "cli.format", None),
    ("modchar.cli", "_jsonable", "cli.format", None),
    ("modchar.cli", "_write_text", "cli.write",
     lambda a, kw, r: {"bytes": len(a[1])}),
]

def _float_drift(series) -> float:
    if series.exact_sums is None or series.float_sums is None:
        return 0.0
    return float(abs(series.float_sums - series.exact_sums).max(initial=0.0))


def _riesz_counts(record) -> dict:
    """Power-chain terms (integers x kmax) and recombination dot-product terms.

    The recombination at checkpoint x takes, for each order k, k + 1 dot
    products over the floor((x - 1)/CHUNK) chunks completed before x.
    """
    ks = record.orders
    done = sum((int(x) - 1) // CHUNK for x in record.checkpoints.tolist())
    return {"power_terms": record.x_max * max(ks),
            "recombination_terms": done * sum(k + 1 for k in ks)}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []     # [id, name, start, end, parent, op, attrs]
        self.op = 0
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self):
        st = self._local.__dict__
        if "stack" not in st:
            st["stack"] = []
            st["active"] = {}
        return st

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            active = st["active"]
            if active.get(name):
                return fn(*args, **kwargs)
            stack = st["stack"]
            span = [next(tracer._ids), name, 0.0, 0.0,
                    stack[-1][0] if stack else None, tracer.op, None]
            tracer.spans.append(span)
            stack.append(span)
            active[name] = True
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                active[name] = False
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Patch every target where it is defined and wherever it was imported."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "modchar" or n.startswith("modchar."))]
        for mod_name, path, span_name, attrs in targets:
            owner = sys.modules.get(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None)) if owner is not None else None
            if orig is None:
                self.missing.add(span_name)
                continue
            wrapper = self.wrap(span_name, orig, attrs)
            self._patch(owner, attr, orig, wrapper)
            if not isinstance(owner, type):
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path: str):
        """All spans, one JSON array per line, written once."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps([sid, name, round(start, 9), round(end, 9),
                                     parent, op, attrs]) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, as BENCHMARK.json declares them."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def layer_metrics(tracer: Tracer, rounds: int, requested_x: int,
                  check_stats: dict, overhead: float) -> dict:
    """Per-layer metrics for one op list.

    Spans of set-up (op 0) count once; spans of the traced rounds are
    divided by the number of traced rounds. requested_x is the sum of the
    x each op of one op list asked the sieve for.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    # per quantity and name: [sum over set-up spans, sum over traced rounds]
    sums = {"dur": {}, "self": {}, "calls": {}}
    attr_sums: dict[tuple[str, str], list[float]] = {}
    drift: dict[str, float] = {}
    for sid, name, start, end, _, op, attrs in spans:
        slot = 0 if op == 0 else 1
        for key, val in (("dur", end - start), ("self", selfs[sid]),
                         ("calls", 1)):
            sums[key].setdefault(name, [0.0, 0.0])[slot] += val
        for key, val in (attrs or {}).items():
            if key == "float_drift":
                drift[name] = max(drift.get(name, 0.0), val)
            else:
                attr_sums.setdefault((name, key), [0.0, 0.0])[slot] += val

    def per_round(pair):
        return pair[0] + pair[1] / rounds

    per = {key: {n: per_round(p) for n, p in d.items()}
           for key, d in sums.items()}
    per["attrs"] = {}
    for (name, key), pair in attr_sums.items():
        per["attrs"].setdefault(name, {})[key] = per_round(pair)
    for name, val in drift.items():
        per["attrs"].setdefault(name, {})["float_drift"] = val

    missing = tracer.missing

    def dur(n):
        return None if n in missing else per["dur"].get(n, 0.0)

    def self_s(n):
        return None if n in missing else per["self"].get(n, 0.0)

    def calls(n):
        return None if n in missing else per["calls"].get(n, 0.0)

    def attr(n, key):
        return None if n in missing else per["attrs"].get(n, {}).get(key, 0.0)

    def stat(n, key):
        return None if n in missing else check_stats.get(key, 0.0)

    def ratio(a, b, scale=1.0):
        if a is None or b is None:
            return None
        return scale * a / b if b else 0.0

    integers = attr("sieve.block_angles", "integers")
    em_f, em_b = calls("lfunctions.em_float"), calls("lfunctions.em_bigfloat")
    values = {
        "characters.group_build_s": dur("characters.group_build"),
        "characters.angle_table_s": dur("characters.angle_table"),
        "sieve.block_angles_s": dur("sieve.block_angles"),
        "sieve.block_angles_ns_per_int":
            ratio(dur("sieve.block_angles"), integers, 1e9),
        "sieve.block_values_self_s": self_s("sieve.block_values"),
        "sieve.integers": integers,
        "sieve.resieve_ratio": ratio(integers, requested_x),
        "sieve.partial_sums_self_s": self_s("sieve.partial_sums"),
        "sieve.riesz_means_self_s": self_s("sieve.riesz_means"),
        "sieve.riesz_power_terms": attr("sieve.riesz_means", "power_terms"),
        "sieve.recombination_terms":
            attr("sieve.riesz_means", "recombination_terms"),
        "sieve.float_drift": attr("sieve.partial_sums", "float_drift"),
        "sieve.riesz_max_rel_err":
            stat("sieve.riesz_means", "riesz_max_rel_err"),
        "summation.piecewise_sums_s": dur("summation.piecewise_sums"),
        "summation.piecewise_calls": calls("summation.piecewise_sums"),
        "summation.piecewise_elements":
            attr("summation.piecewise_sums", "elements"),
        "lfunctions.hurwitz_calls": calls("lfunctions.hurwitz"),
        "lfunctions.hurwitz_s": dur("lfunctions.hurwitz"),
        "lfunctions.hurwitz_bigfloat_share":
            ratio(em_b, None if None in (em_f, em_b) else em_f + em_b),
        "lfunctions.L_value_self_s": self_s("lfunctions.L_value"),
        "lfunctions.fe_check_self_s": self_s("lfunctions.fe_check"),
        "lfunctions.gauss_sum_s": dur("lfunctions.gauss_sum"),
        "lfunctions.leading_coefficient_s":
            dur("lfunctions.leading_coefficient"),
        "lfunctions.max_abs_err": stat("lfunctions.L_value", "lfun_max_abs_err"),
        "diophantine.continued_fraction_s":
            dur("diophantine.continued_fraction"),
        "diophantine.trusted_depth_ratio":
            ratio(attr("diophantine.continued_fraction", "trusted"),
                  attr("diophantine.continued_fraction", "requested")),
        "diophantine.pole_series_s": dur("diophantine.pole_series"),
        "diophantine.min_riesz_order_s": dur("diophantine.min_riesz_order"),
        "analysis.fit_s": dur("analysis.fit"),
        "analysis.growth_check_s": dur("analysis.growth_check"),
        "config.parse_s": dur("config.parse"),
        "cli.format_s": dur("cli.format"),
        "cli.write_s": dur("cli.write"),
        "cli.bytes_written": attr("cli.write", "bytes"),
        "trace_overhead": overhead,
    }
    units = per_layer_units()
    if set(units) != set(values):
        raise ValueError(f"per-layer metrics differ from BENCHMARK.json:"
                         f" {sorted(set(units) ^ set(values))}")
    return {name: {"value": val, "unit": units[name]} if val is not None
            else {"value": None, "unit": units[name], "missing": True}
            for name, val in values.items()}
