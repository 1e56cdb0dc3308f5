"""scripts/bench_pairs.py: the paired summary of a committed benchmark."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_pairs():
    path = os.path.join(ROOT, "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


def test_summarise_reproduces_a_stored_summary_and_adds_paired_statistics():
    bp = _bench_pairs()
    end_to_end = _load("BENCHMARK.json")["end_to_end"]
    stored = _load("BENCH_30.json")
    for workload, pairs in stored["pairs"].items():
        got = bp.summarise(pairs, end_to_end)
        for field, want in stored["summary"][workload].items():
            if isinstance(want, dict) and "change_wins" in want:
                assert {k: got[field][k] for k in want} == want, field
            else:
                assert got[field] == want, field
        for metric in end_to_end:
            row = got[metric["name"]]
            ratios = row["pair_ratios"]["values"]
            assert ratios == [p["change"]["metrics"][metric["name"]]["value"]
                              / p["parent"]["metrics"][metric["name"]]["value"]
                              for p in pairs]
            assert row["pair_ratios"]["q1"] <= row["pair_ratios"]["median"] \
                <= row["pair_ratios"]["q3"]
            assert 0 < row["sign_test_p"] <= 1
    # lfun wall_s: the change read faster in all 10 pairs
    wall = bp.summarise(stored["pairs"]["lfun"], end_to_end)["wall_s"]
    assert wall["change_wins"] == 10 and wall["sign_test_p"] == 2 / 1024


def test_sign_test_p_values():
    bp = _bench_pairs()
    assert bp.sign_test_p(0, 10) == bp.sign_test_p(10, 0) == 2 / 1024
    assert bp.sign_test_p(5, 5) == 1.0
    assert bp.sign_test_p(0, 0) == 1.0
    assert bp.sign_test_p(9, 1) == 2 * 11 / 1024
