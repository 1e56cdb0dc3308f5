"""Command line: exit codes, CSV formats, reports, reproducibility."""

import errno
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modchar import cli, csvrows, presets, sieve
from modchar.characters import (Character, character_from_label,
                                chi_angle_table)
from modchar.cli import _fmt, _sums_csv, main
from modchar import lfunctions
from modchar.lfunctions import (LContext, functional_equation_check,
                                leading_coefficient)
from modchar.modified import build_modified
from modchar.roots import UnitValue
from modchar.sieve import PartialSumSeries, partial_sums, riesz_means

BCC_DOC = {
    "character": {"label": "3.2"},
    "modifications": [{"p": 3, "angle": [0, 1]}],
    "x_max": 1000,
    "checkpoints": [1, 10, 100, 1000],
}


def write_config(tmp_path, name="run.json", **overrides):
    doc = {**BCC_DOC, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def bcc():
    return build_modified(character_from_label("3.2"),
                          {3: UnitValue.one()})


def test_characters_table(capsys):
    assert main(["characters", "--modulus", "5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "label" in lines[0] and "conductor" in lines[0]
    assert len(lines) == 5                        # header plus phi(5) rows
    assert any("5.2" in line for line in lines[1:])
    assert main(["characters", "--modulus", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 4
    assert sorted(d["label"] for d in doc) == ["5.1", "5.2", "5.3", "5.4"]


def test_describe_text_and_json(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["describe", cfg]) == 0
    out = capsys.readouterr().out
    assert "T           1" in out
    assert "N           1" in out
    assert "f(3) = 1" in out
    assert main(["describe", cfg, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["T"] == 1 and doc["N"] == 1
    assert doc["parity"] == "odd" and doc["theory_trusted"] is True
    assert doc["digest"] == bcc().digest()


def test_describe_imprimitive_note(tmp_path, capsys):
    cfg = write_config(tmp_path, character={"modulus": 9, "exponents": [3]},
                       modifications=[], allow_imprimitive=True)
    assert main(["describe", cfg]) == 0
    assert "imprimitive base" in capsys.readouterr().out
    assert main(["describe", cfg, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["theory_trusted"] is False


def test_simulate_stdout_matches_library(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,re_sum,im_sum"
    series = partial_sums(bcc(), 1000, checkpoint_rule=(1, 10, 100, 1000))
    assert len(lines) == 1 + len(series.checkpoints)
    for line, x, s in zip(lines[1:], series.checkpoints, series.sums):
        sx, sre, sim = line.split(",")
        assert int(sx) == x
        assert float(sre) == s.real and float(sim) == s.imag


def test_simulate_prints_an_exact_zero_where_the_sum_is_real(tmp_path,
                                                             capsys):
    # chi = 3.2 with f(7) = e(1/3): up to x = 6 every value is 0 or +-1 and
    # the sieve reads chi(2) = e(1/2) off its tables, exactly -1, so each
    # imaginary part is 0, not -5.0165576126683323e-20
    cfg = write_config(tmp_path, modifications=[{"p": 7, "angle": [1, 3]}])
    assert main(["simulate", cfg, "--xmax", "6", "--checkpoints",
                 "every:1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,re_sum,im_sum" and len(lines) == 7
    assert [line.split(",")[2] for line in lines[1:]] == ["0"] * 6


def test_simulate_byte_identity(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, x_max=100000, checkpoints="geometric:1.03")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    monkeypatch.setattr(sieve, "BLOCK", 4096)
    assert main(["simulate", cfg, "--out", a]) == 0
    monkeypatch.setattr(sieve, "BLOCK", 65536)
    assert main(["simulate", cfg, "--out", b]) == 0
    wrote = capsys.readouterr().out
    assert f"wrote {a}" in wrote and f"wrote {b}" in wrote
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_threads_flag_is_a_usage_error(tmp_path):
    cfg = write_config(tmp_path)
    for argv in (["simulate", cfg, "--threads", "3"],
                 ["simulate", cfg, "--block-size", "4096"],
                 ["riesz", cfg, "--block-size", "4096"],
                 ["verify", cfg, "--block-size", "4096"],
                 ["preset", "bcc", "--block-size", "4096"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def _special_values():
    """Checkpoints and complex values: special floats first, then random
    magnitudes from 1e-20 to 1e20."""
    special = [-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 1e-300,
               1e300, -1e300, 5e-324, 0.1, -2.5, 123456789.0, 1 / 3]
    rng = np.random.default_rng(7)
    re = np.array(special + list(rng.normal(size=40) * 10.0 ** rng.integers(
        -20, 20, 40)))
    z = np.empty(len(re), dtype=np.complex128)
    z.real, z.imag = re, np.roll(re, 5)
    return np.arange(1, len(re) + 1, dtype=np.int64) * 7919, z


def _special_series(exact):
    xs, z = _special_values()
    if not exact:
        return PartialSumSeries(xs, z, None, int(xs[-1]), "r", "d")
    ints = np.random.default_rng(8).integers(-10**9, 10**9, len(xs))
    return PartialSumSeries(xs, ints.astype(np.complex128), ints,
                            int(xs[-1]), "r", "d")


@pytest.mark.parametrize("mc", [
    bcc(),
    build_modified(character_from_label("5.2"),
                   {2: UnitValue.minus_one(), 7: UnitValue.root(1, 3)}),
    pytest.param(_special_series(exact=False), id="special_floats"),
    pytest.param(_special_series(exact=True), id="exact_ints")])
def test_sums_csv_bytes_match_per_value_format(mc):
    # mc is a config summed to 50000 here, or a ready series
    series = (mc if isinstance(mc, PartialSumSeries)
              else partial_sums(mc, 50000, checkpoint_rule="every:7"))
    lines = ["x,re_sum,im_sum"]
    for x, s in zip(series.checkpoints.tolist(), series.sums):
        lines.append(f"{x},{_fmt(s.real)},{_fmt(s.imag)}")
    assert _sums_csv(series) == ("\n".join(lines) + "\n").encode()


def test_value_scale_overflow_is_a_config_error(tmp_path, capsys):
    # lcm of the value orders is about 2^80: past int64 and past the 2^53
    # where exp(2 pi i t/D) stops being exact
    cfg = write_config(tmp_path, modifications=[
        {"p": 2, "angle": [1, 1099511627791]},
        {"p": 5, "angle": [1, 1099511627776]}])
    assert main(["simulate", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "2^53" in err


def test_riesz_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "r.csv")
    assert main(["riesz", cfg, "--k", "0,2", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "x,k,re_value,im_value"
    record = riesz_means(bcc(), (0, 2), 1000, checkpoints=(1, 10, 100, 1000))
    assert len(lines) == 1 + 2 * len(record.checkpoints)
    seen = {}
    for line in lines[1:]:
        sx, sk, sre, sim = line.split(",")
        seen[(int(sx), int(sk))] = complex(float(sre), float(sim))
    for k in (0, 2):
        for x, v in zip(record.checkpoints, record.row(k)):
            assert seen[(int(x), k)] == complex(v)


def test_xmax_override_and_exponent_form(tmp_path, capsys):
    cfg = write_config(tmp_path, x_max=10**6, checkpoints="dyadic")
    assert main(["simulate", cfg, "--xmax", "1e3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].split(",")[0] == "1000"
    with pytest.raises(SystemExit):
        main(["simulate", cfg, "--xmax", "2.5"])


def test_coeff_json_matches_library(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["coeff", cfg, "--k", "13", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    lc = leading_coefficient(bcc(), 13)
    assert doc["N"] == 1 and doc["k"] == 13
    assert doc["c_chi_exact"] == "1/3"
    assert doc["factorial_ratio"] == [1, 14]
    assert doc["value"] == [lc.value.real, lc.value.imag]
    assert main(["coeff", cfg, "--k", "13"]) == 0
    text = capsys.readouterr().out
    assert "a_(N+k)" in text and "group 1" in text
    assert "(= 1/3)" in text


def test_coeff_on_a_complex_odd_character_prints_no_exact_form(tmp_path,
                                                                 capsys):
    # chi mod 61 of order 60 and odd, the shape of the benchmark's coeff op:
    # c_chi has no exact form to print, so the text line ends at the value
    # and the JSON field is null
    cfg = write_config(tmp_path, character={"modulus": 61, "exponents": [1]},
                       modifications=[{"p": 2, "angle": [0, 1]},
                                      {"p": 3, "angle": [1, 3]}])
    assert main(["coeff", cfg, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c_chi_exact"] is None
    assert main(["coeff", cfg]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("c_chi"))
    re_part, im_part = line.split()[1], line.split()[3]
    assert line == f"c_chi        {re_part} + {im_part}", line
    assert [float(re_part), float(im_part[:-1])] == doc["c_chi"]


def test_lfun_text(capsys):
    assert main(["lfun", "--label", "3.2", "--s", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "L(0.29999999999999999, chi_[3.2])" in out
    resid = float(out.split("residual:")[1].splitlines()[0])
    assert resid < 1e-8
    # Gamma(1-s) poles at integer s: the value prints, the check is skipped
    assert main(["lfun", "--label", "3.2", "--s", "2"]) == 0
    out = capsys.readouterr().out
    assert "L(2, chi_[3.2]) = 0.78" in out
    assert "skipped (Gamma(1-s) pole" in out
    assert main(["lfun", "--label", "4.1", "--s", "2"]) == 0
    assert "skipped (needs a primitive" in capsys.readouterr().out
    assert main(["lfun", "--s", "2"]) == 2        # label is required
    assert "config error" in capsys.readouterr().err
    # not q.j with integers, or naming no character mod q
    for label in ("abc", "5", "5.x", "6.2", "0.1", "-3.2", "1000003.2"):
        assert main(["lfun", "--label", label, "--s", "0.5"]) == 2, label
        err = capsys.readouterr().err
        assert err.startswith("config error: label") and "Traceback" not in err
    assert main(["lfun", "--label", "3.2", "--modulus", "5", "--s", "2"]) == 2


def test_lfun_bad_input_exits_1_without_traceback(capsys):
    for extra in (["--s", "0.5", "--eps", "0"], ["--s", "nan"],
                  ["--s", "0.5", "--eps", "-1"],
                  ["--s", "1", "--eps", "0"], ["--s", "1", "--eps", "-1"]):
        assert main(["lfun", "--label", "5.2", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_lfun_prints_error_bound(capsys):
    assert main(["lfun", "--label", "5.2", "--s", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("L(0.5, chi_[5.2]) = 0.763747880117")
    assert lines[1].startswith("functional equation residual: ")
    assert lines[2].startswith("error bound: ")
    assert 0 < float(lines[2].split(": ")[1]) <= 1e-12
    # s = 1 takes the same pass, with its finite part, and its bound
    assert main(["lfun", "--label", "3.2", "--s", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("error bound: ")
    assert 0 < float(lines[2].split(": ")[1]) <= 1e-12


def test_lfun_names_the_partner_past_the_modulus_cap(capsys):
    # |s| = 99.5; the cap is hit by the partner at 1 - conj s
    assert main(["lfun", "--label", "3.2", "--s", "-99", "--im", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ("functional equation residual: skipped"
                        " (|1 - conj s| = 100.4987562112089; the partner"
                        " needs |1 - conj s| <= 100)")


def test_lfun_residual_within_the_bound_at_1009_5(capsys):
    # Gamma 5 ulp off at 1.5 puts the residual at 7.1e-14, over the bound
    assert main(["lfun", "--label", "1009.5", "--s", "-0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    resid, bound = (float(ln.split(": ")[1]) for ln in lines[1:])
    assert resid <= bound, (resid, bound)


def test_lfun_reuses_l_of_s_for_the_residual(monkeypatch, capsys):
    # L(s) once, then the partner L(1 - s, conj chi) as conj L(1 - conj s,
    # chi) on the same context: two Hurwitz passes, not three, and the
    # residual is the one the check computes on its own
    calls = []
    inner = lfunctions.hurwitz_zeta_with_bound

    def counted(s, *args, **kw):
        calls.append(complex(s))
        return inner(s, *args, **kw)

    monkeypatch.setattr(lfunctions, "hurwitz_zeta_with_bound", counted)
    assert main(["lfun", "--label", "7.3", "--s", "0.5", "--im", "3"]) == 0
    assert calls == [0.5 + 3j]       # on Re s = 1/2 the partner is conj L(s)
    capsys.readouterr()
    calls.clear()
    assert main(["lfun", "--label", "7.3", "--s", "0.25", "--im", "2"]) == 0
    assert calls == [0.25 + 2j, 0.75 + 2j]
    resid = capsys.readouterr().out.split("residual: ")[1].splitlines()[0]
    ctx = LContext(character_from_label("7.3"))
    assert resid == _fmt(functional_equation_check(ctx, 0.25 + 2j))


@pytest.mark.parametrize("command", ["lfun", "coeff-even", "verify-fig1",
                                     "verify-complex"])
def test_each_command_builds_the_chi_table_once(command, monkeypatch,
                                                tmp_path, capsys):
    # lfun reads chi's table for L(s), tau(chi) and the partner; coeff on
    # an even chi for both L'(0) routes and tau(chi); verify for the
    # sieve and then L(0, chi): on fig1 one cache key (real chi, real f),
    # on 61.2 with f(3) = e(1/3) the sieve's (60, int16), which L reads
    # since 60 is a multiple of chi's order. At x = 1e5 verify's fit gets
    # as far as L(0, chi).
    built = []
    table = Character.angle_numerators

    def counting(chi, scale, dtype=np.int64):
        built.append(chi.label)
        return table(chi, scale, dtype)

    monkeypatch.setattr(Character, "angle_numerators", counting)
    if command == "lfun":
        args, label = ["lfun", "--label", "61.10", "--s", "-0.5"], "61.10"
    elif command == "coeff-even":
        cfg = write_config(tmp_path, character={"label": "5.4"},
                           modifications=[{"p": 2, "angle": [0, 1]}])
        args, label = ["coeff", cfg], "5.4"
    elif command == "verify-fig1":
        fig1 = [{"p": p, "angle": [0, 1]} for p in (2, 3, 5, 11)]
        cfg = write_config(tmp_path, name="fig1.json", x_max=100_000,
                           checkpoints="dyadic", modifications=fig1)
        args = ["verify", cfg, "--outdir", str(tmp_path / "v")]
        label = "3.2"
    else:
        mods = [{"p": 2, "angle": [0, 1]}, {"p": 3, "angle": [1, 3]}]
        cfg = write_config(tmp_path, name="c61.json", x_max=100_000,
                           character={"label": "61.2"}, modifications=mods)
        args = ["verify", cfg, "--outdir", str(tmp_path / "v")]
        label = "61.2"
    chi_angle_table.cache_clear()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert built == [label], out
    if command.startswith("verify"):
        assert "vs theory" in out, out


@pytest.mark.parametrize("command", ["lfun", "coeff-even-complex"])
def test_each_command_derives_chi_residues_and_roots_once(command,
                                                          monkeypatch,
                                                          tmp_path, capsys):
    # one LContext holds chi's residues, angles and roots e(k/order): lfun
    # at s = -0.5 reads them for L(s), tau(chi) and the partner L(1.5),
    # coeff on an even complex chi for both L'(0) routes and tau(chi).
    # Each derivation of the residues reads chi_angle_table, and each of
    # the roots is one _unit_roots call on the order angles 0 .. order - 1.
    label = "61.10" if command == "lfun" else "61.4"
    order = character_from_label(label).order
    tables, roots = [], []
    table, unit_roots = lfunctions.chi_angle_table, lfunctions._unit_roots

    @functools.wraps(table)         # with the cache's last key
    def counted_table(chi, *args):
        tables.append(chi.label)
        return table(chi, *args)

    def counted_roots(num, den):
        if den == order:
            roots.append(len(num))
        return unit_roots(num, den)

    monkeypatch.setattr(lfunctions, "chi_angle_table", counted_table)
    monkeypatch.setattr(lfunctions, "_unit_roots", counted_roots)
    if command == "lfun":
        args = ["lfun", "--label", label, "--s", "-0.5"]
    else:
        cfg = write_config(tmp_path, character={"label": label},
                           modifications=[{"p": 2, "angle": [0, 1]}])
        args = ["coeff", cfg]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "residual" in out or "a_(N+k)" in out, out
    assert tables == [label] and roots == [order], (tables, roots)


def test_dioph_json_and_text(capsys):
    assert main(["dioph", "--p", "2", "--q", "3", "--depth", "10",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 2 and doc["q"] == 3
    assert [r["b"] for r in doc["rows"]] == [1, 1, 2, 3, 8, 19, 65, 84,
                                             485, 1054]
    assert doc["rows"][0]["h"] == 0               # log 2 / log 3 < 1
    # denominator 1 leaves the quality exponent undefined; strict JSON
    # cannot hold inf, so those rows carry the string form
    for row in doc["rows"][:2]:
        assert row["quality"] == "inf"
    assert all(r["quality"] > 2 for r in doc["rows"][2:])
    assert main(["dioph", "--p", "2", "--q", "3", "--depth", "5"]) == 0
    assert "alpha = log 2 / log 3" in capsys.readouterr().out


def test_kmin_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["kmin", cfg]) == 0
    assert "k_min = 13" in capsys.readouterr().out
    assert main(["kmin", cfg, "--gamma", "1e-12"]) == 0
    assert "k_min = 11" in capsys.readouterr().out
    plain = write_config(tmp_path, name="plain.json", modifications=[])
    assert main(["kmin", plain]) == 0
    out = capsys.readouterr().out
    assert "k_min = 0" in out and "no overrides" in out
    # a finite gamma whose threshold overflows: exit 1, no traceback
    huge = write_config(tmp_path, name="huge.json", gamma=1e308)
    for argv in (["kmin", cfg, "--gamma", "1e308"], ["riesz", huge]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: the order threshold overflows"), err


def test_poleseries_output_routing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "trace.csv")
    assert main(["poleseries", cfg, "--anchor", "3", "--k", "5",
                 "--nmax", "2000", "--out", out]) == 0
    captured = capsys.readouterr()
    assert "largest term" in captured.out and "verdict:" in captured.out
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "n,term,partial_sum"
    assert len(lines) == 2001
    # without --out the data goes to stdout and the summary to stderr
    assert main(["poleseries", cfg, "--anchor", "3", "--k", "5",
                 "--nmax", "100"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("n,term,partial_sum")
    assert "verdict:" in captured.err
    # anchor must belong to the override set
    assert main(["poleseries", cfg, "--anchor", "5", "--k", "5",
                 "--nmax", "100"]) == 1
    assert "error:" in capsys.readouterr().err


class _GoneReader(io.StringIO):
    """A stdout without a descriptor whose reader has exited."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["simulate", "{cfg}", "--out", "-"],
    ["poleseries", "{cfg}", "--anchor", "3", "--k", "5", "--out", "-"]])
def test_closed_stdout_exits_1_without_traceback(tmp_path, monkeypatch,
                                                 capsys, argv):
    argv = [a.format(cfg=write_config(tmp_path)) for a in argv]
    monkeypatch.setattr(sys, "stdout", _GoneReader())
    assert main(argv) == 1
    # a pipe whose read end is closed: the first row's write fails, and
    # stdout's descriptor is left on the null device for the last flush
    r, w = os.pipe()
    os.close(r)
    pipe = open(w, "w", encoding="utf-8", buffering=1)
    monkeypatch.setattr(sys, "stdout", pipe)
    try:
        assert main(argv) == 1
        assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
    finally:
        pipe.close()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "{cfg}", "--out", "{out}"],
    ["poleseries", "{cfg}", "--anchor", "3", "--k", "5", "--out", "{out}"]])
def test_an_unwritable_output_file_exits_1_naming_it(tmp_path, capsys,
                                                     argv):
    out = str(tmp_path / "missing" / "out.csv")
    argv = [a.format(cfg=write_config(tmp_path), out=out) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["verify", "{cfg}", "--outdir", "{outdir}"],
    ["preset", "bcc", "--xmax", "1000", "--outdir", "{outdir}"]])
def test_a_file_as_outdir_fails_before_the_sieve(tmp_path, capsys,
                                                 monkeypatch, argv):
    outdir = tmp_path / "taken"
    outdir.write_text("")

    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve ran")
    monkeypatch.setattr(cli, "partial_sums", no_sieve)
    monkeypatch.setattr(presets, "partial_sums", no_sieve)
    argv = [a.format(cfg=write_config(tmp_path), outdir=outdir)
            for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {outdir}: ")
    assert "Traceback" not in err


class _FullDevice(io.RawIOBase):
    """A device that refuses every write while full."""

    full = True

    def writable(self):
        return True

    def write(self, data):
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(data)


def test_an_unwritable_stdout_exits_1_naming_it(tmp_path, monkeypatch,
                                                capsys):
    device = _FullDevice()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
        io.BufferedWriter(device), encoding="utf-8"))
    try:
        assert main(["simulate", write_config(tmp_path)]) == 1
    finally:
        device.full = False
    err = capsys.readouterr().err
    assert err == "error: cannot write stdout: No space left on device\n"


def test_csv_to_stdout_follows_what_was_printed(tmp_path, monkeypatch):
    # the CSV's bytes go to stdout's buffer after the text before them;
    # a stdout without a buffer gets the same text
    cfg = write_config(tmp_path)
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    print("before")
    assert main(["simulate", cfg]) == 0
    print("after")
    stdout.flush()
    text = io.StringIO()
    monkeypatch.setattr(sys, "stdout", text)
    assert main(["simulate", cfg]) == 0
    assert raw.getvalue() == b"before\n" + text.getvalue().encode() + b"after\n"
    assert text.getvalue().startswith("x,re_sum,im_sum\n1,")


def test_preset_report_and_csv(tmp_path, capsys):
    outdir = str(tmp_path / "out")
    assert main(["preset", "bcc", "--xmax", "20000", "--outdir", outdir,
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 1 and doc["N_expected"] == 1
    assert doc["S"] == [3] and doc["exact_accumulator"] is True
    assert doc["ratio_sup"] > 0
    with open(doc["csv"], encoding="utf-8") as fh:
        assert fh.readline().strip() == "x,re_sum,im_sum"
    assert main(["preset", "fig3", "--xmax", "5000", "--outdir", outdir]) == 0
    text = capsys.readouterr().out
    assert "N           0 (expected 0)" in text
    assert "sup ratio" in text and "fig3_sums.csv" in text
    with pytest.raises(SystemExit):
        main(["preset", "fig9", "--outdir", outdir])


@pytest.mark.parametrize("xmax", ["0", "2e9"])
def test_preset_xmax_gets_the_flag_rule(tmp_path, capsys, xmax):
    # the message names the flag, not a position in the preset's own JSON
    assert main(["preset", "fig1", "--xmax", xmax,
                 "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --xmax: must be"), err
    assert "line" not in err and "column" not in err


def test_verify_pipeline(tmp_path, capsys):
    cfg = write_config(tmp_path, name="bccrun.json", x_max=50000,
                       checkpoints="dyadic")
    outdir = str(tmp_path / "v")
    assert main(["verify", cfg, "--outdir", outdir]) == 0
    out = capsys.readouterr().out
    assert "T = 1, N = 1, k_min = 13" in out
    assert "upper:" in out and "omega:" in out and "fit:" in out
    stem = os.path.join(outdir, "bccrun")
    for suffix in ("_sums.csv", "_riesz.csv", "_report.json", "_plots.gp"):
        assert os.path.exists(stem + suffix)
    with open(stem + "_report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["N"] == 1 and report["k_min"] == 13 and report["k"] == 13
    assert report["growth_upper"]["mode"] == "upper"
    assert report["growth_omega"]["verdict"] == "consistent-with-omega"
    fit = report["fit"]
    assert fit["degree"] == 14
    assert fit["below_order_threshold"] is False
    assert fit["lead_gap"] < 1e-4
    assert len(fit["coefficients"]) == 15
    with open(stem + "_plots.gp", encoding="utf-8") as fh:
        script = fh.read()
    assert "plot " in script and "p(u) =" in script
    assert 'set datafile separator ","' in script
    with open(stem + "_sums.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "x,re_sum,im_sum"
    with open(stem + "_riesz.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "x,k,re_value,im_value"


def test_verify_without_a_pole_says_why_omega_is_skipped(tmp_path, capsys):
    # fig3's shape, N = 0: there is no (log x)^N bound to test, but the
    # sums still grow, so the output must not say that N = 0 promises none
    cfg = write_config(tmp_path, name="fig3.json", x_max=5000,
                       checkpoints="dyadic", orders=[0],
                       modifications=[{"p": p, "angle": [1, 2]}
                                      for p in (3, 7, 13, 19)])
    assert main(["verify", cfg, "--outdir", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert "N = 0" in out and "omega: skipped, no pole at s = 0" in out
    assert "promises" not in out


def test_verify_reports_an_untrusted_theory_value(tmp_path, capsys):
    # even 5.4 with f(2) = i: F has a zero at s = 0, so the theory value is
    # not R_k's lead; the warning reaches stderr and marks the fit block
    cfg = write_config(tmp_path, name="even54.json", x_max=20000,
                       character={"label": "5.4"},
                       modifications=[{"p": 2, "angle": [1, 4]}])
    outdir = str(tmp_path / "v")
    assert main(["verify", cfg, "--outdir", outdir]) == 0
    captured = capsys.readouterr()
    assert "UntrustedTheoryWarning: F has a zero of order 1 at s = 0" \
        in captured.err
    assert "vs theory 0.48121" in captured.out
    assert "(untrusted)" in captured.out
    with open(os.path.join(outdir, "even54_report.json"),
              encoding="utf-8") as fh:
        fit = json.load(fh)["fit"]
    assert len(fit["untrusted"]) == 1
    assert fit["untrusted"][0].startswith("F has a zero of order 1 at s = 0")


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["describe", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["describe", str(tmp_path / "absent.json")]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({**BCC_DOC, "colour": 1}), encoding="utf-8")
    assert main(["simulate", str(schema)]) == 2
    assert "unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "riesz", "verify"])
def test_bad_checkpoint_flag_is_a_config_error(tmp_path, capsys, command):
    # the flag goes through the rule a config file's field gets
    cfg = write_config(tmp_path)
    for rule in ("geometric:abc", "every:x", "geometric:nan",
                 "geometric:inf", "geometric:1", "every:0", "10,5"):
        argv = [command, cfg, "--checkpoints", rule]
        if command == "verify":
            argv += ["--outdir", str(tmp_path)]
        assert main(argv) == 2, rule
        err = capsys.readouterr().err
        assert err.startswith("config error: --checkpoints"), err
        assert "Traceback" not in err


def test_xmax_and_k_flags_get_the_config_checks(tmp_path, capsys):
    # --xmax and --k go through the rules of the x_max and orders fields,
    # and an explicit checkpoint list is checked against the final x_max
    cfg = write_config(tmp_path, checkpoints="dyadic")
    for argv, flag in ((["simulate", cfg, "--xmax", "0"], "--xmax"),
                       (["simulate", cfg, "--xmax", "2e9"], "--xmax"),
                       (["simulate", cfg, "--checkpoints", "1,10,5000"],
                        "--checkpoints"),
                       (["riesz", cfg, "--k=-1"], "--k"),
                       (["riesz", cfg, "--xmax", "-5"], "--xmax")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag}"), err
        assert "Traceback" not in err
    listed = write_config(tmp_path, "listed.json")   # checkpoints up to 1000
    assert main(["simulate", listed, "--xmax", "500"]) == 2
    assert capsys.readouterr().err.startswith("config error: --xmax")
    # orders are not capped in the config: coeff takes any order
    assert main(["coeff", cfg, "--k", "500"]) == 0
    # poleseries' --k is its decay order, not the config's orders
    assert main(["poleseries", cfg, "--anchor", "3", "--k", "-1"]) == 1
    assert "series needs k >= 2" in capsys.readouterr().err


def test_checkpoint_list_flag_gets_the_config_integer_rule(tmp_path, capsys):
    # --checkpoints entries are JSON numbers judged as a config list's are:
    # a fraction or a word is a config error, 1e2 is 100
    cfg = write_config(tmp_path, checkpoints="dyadic")
    for arg in ("2.5,10.9", "10,x", "10,true"):
        assert main(["simulate", cfg, "--checkpoints", arg]) == 2, arg
        err = capsys.readouterr().err
        assert err.startswith("config error: --checkpoints"), err
        assert "expected an integer" in err and "Traceback" not in err
    out = tmp_path / "sums.csv"
    assert main(["simulate", cfg, "--checkpoints", "1e1,1e2",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows][:2] == ["10", "100"]


@pytest.mark.parametrize("command", ["kmin", "verify"])
def test_bad_gamma_flag_is_a_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    for gamma in ("nan", "inf", "-inf", "0", "-1"):
        argv = [command, cfg, f"--gamma={gamma}"]
        if command == "verify":
            argv += ["--outdir", str(tmp_path)]
        assert main(argv) == 2, gamma
        err = capsys.readouterr().err
        assert err.startswith("config error: --gamma"), err
        assert "Traceback" not in err


def test_main_reuses_one_parser_without_leaking_defaults(tmp_path, capsys):
    # the parser is built once per process; each call must still print
    # what a fresh process prints, options of an earlier call included
    import subprocess
    import sys

    import modchar

    cfg = write_config(tmp_path)
    calls = [["coeff", cfg, "--k", "13"], ["coeff", cfg],
             ["kmin", cfg, "--gamma", "0.5"], ["kmin", cfg],
             ["dioph", "--p", "2", "--q", "3", "--depth", "5"],
             ["dioph", "--p", "2", "--q", "3", "--json"]]
    src = os.path.dirname(os.path.dirname(modchar.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    script = "import sys; from modchar.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in calls:
        assert main(argv) == 0
        got = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-c", script, *argv],
                               capture_output=True, text=True, env=env)
        assert fresh.returncode == 0, fresh.stderr
        assert got == fresh.stdout, argv


_LAZY_CHECK = """
import sys, types
import modchar.cli

lazy = ["modchar.analysis", "modchar.diophantine", "modchar.lfunctions"]
assert modchar.cli.main(["simulate", sys.argv[1], "--out", sys.argv[2]]) == 0
# type() reads no attribute, so it runs none of them
for name in lazy:
    assert type(sys.modules[name]) is not types.ModuleType, name

# an attribute runs that module alone and returns the real function
lfunctions = sys.modules["modchar.lfunctions"]
L_value = lfunctions.L_value
assert type(lfunctions) is types.ModuleType
assert L_value is vars(lfunctions)["L_value"]
assert L_value.__module__ == "modchar.lfunctions" and callable(L_value)
for name in lazy[:2]:
    assert type(sys.modules[name]) is not types.ModuleType, name

import modchar
for name in modchar.__all__:
    getattr(modchar, name)
star = {}
exec("from modchar import *", star)
missing = set(modchar.__all__) - set(star)
assert not missing, missing
assert set(modchar.__all__) <= set(dir(modchar))
assert modchar.L_value is L_value
assert modchar.min_riesz_order is sys.modules["modchar.diophantine"].min_riesz_order
try:
    modchar.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("modchar.no_such_name resolved")
"""


def test_simulate_runs_no_l_function_diophantine_or_analysis_module(
        tmp_path):
    # the L-function, Diophantine and analysis modules are registered in
    # sys.modules but run only on their first attribute, so a fresh
    # `simulate` process runs none of them; the package's public names
    # still resolve, star import and dir() included
    import subprocess
    import sys

    import modchar

    cfg = write_config(tmp_path, x_max=1000)
    src = os.path.dirname(os.path.dirname(modchar.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _LAZY_CHECK, cfg,
                           str(tmp_path / "sums.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wrote "), proc.stdout


def test_riesz_and_pole_csv_match_the_per_row_formula():
    # one % over interleaved values prints the bytes the per-row f-strings
    # printed, special floats included
    from modchar.cli import _pole_csv, _riesz_csv
    from modchar.diophantine import PoleSeriesTrace
    from modchar.sieve import RieszRecord

    xs, z = _special_values()
    rec = RieszRecord((0, 3, 13), xs, np.stack([z, z[::-1], -z]), False,
                      int(xs[-1]), "d")
    lines = ["x,k,re_value,im_value"]
    for k in rec.orders:
        for x, v in zip(rec.checkpoints.tolist(), rec.row(k)):
            lines.append(f"{x},{k},{_fmt(v.real)},{_fmt(v.imag)}")
    assert _riesz_csv(rec) == ("\n".join(lines) + "\n").encode()

    trace = PoleSeriesTrace(3, 4, len(xs), xs, z.real, z.imag, 0.0, 1, (),
                            0.0, 0.0, 0.0, "v")
    lines = ["n,term,partial_sum"]
    for n, term, part in trace.rows():
        lines.append(f"{n},{_fmt(term)},{_fmt(part)}")
    assert _pole_csv(trace) == ("\n".join(lines) + "\n").encode()
    # an empty table is its header
    empty = PartialSumSeries(xs[:0], z[:0], None, 1, "r", "d")
    assert _sums_csv(empty) == b"x,re_sum,im_sum\n"


def _column_csv(values, dtype):
    """The CSV writer's lines for one column, without a header: bytes."""
    return csvrows.csv_text("", [(np.array(values, dtype=dtype),)])


def _per_value(values, spec):
    return "".join(spec % v + "\n" for v in values).encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=40))
@example([2**63 - 1, -(2**63 - 1), -2**63, 0, -1, 9, 10, 99, 100, -100])
def test_int_fields_match_percent_d(ns):
    assert _column_csv(ns, np.int64) == _per_value(ns, "%d")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(width=64), max_size=40))
def test_float_fields_match_percent_17g(vs):
    assert _column_csv(vs, np.float64) == _per_value(vs, "%.17g")


def _float_cases():
    """Doubles where a %.17g writer goes wrong first."""
    tiny = 5e-324
    cases = [0.0, -0.0, float("inf"), -float("inf"), float("nan"),
             tiny, -tiny, 3 * tiny, 2.2250738585072009e-308,  # subnormals
             2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 1e-300, 1e300,
             # where %g switches between fixed and exponent notation
             9.9999999999999995e-5, 1e-4, 1e16, 9.999999999999999e16,
             1e17, 123456789012345678.0, 0.5, 1.0, 100.0]
    for k in range(-30, 31):               # 10^k and both neighbours
        x = float(f"1e{k}")
        cases += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    cases += [1.5 * 10.0**k for k in range(100, 309, 13)]     # e+XXX
    cases += [-2.5 * 10.0**-k for k in range(100, 300, 17)]   # e-XXX
    # 1 + m 2^-17, m odd: 18 significant digits ending in 5, so the 17th
    # rounds half to even
    cases += [1 + m * 2.0**-17 for m in range(1, 2**12, 2)]
    # within 0.005 of a half-unit in the 17th digit, where a longdouble
    # product alone rounds the wrong way
    cases += [38285990747.16645, -1.477821946937792e-14, 0.6406216692486865,
              -2.3045635512501467e-05, 7.90502263664952e-20,
              -72.51361207651655, -81.88017550119005, -0.532723874825441]
    return cases


def test_float_fields_fixed_cases():
    cases = _float_cases()
    assert _column_csv(cases, np.float64) == _per_value(cases, "%.17g")


def test_float_fields_with_a_half_margin_take_pythons_route(monkeypatch):
    # a tie margin of 1/2 leaves no digits certain: every value but 0
    # goes through Python's formatter, and the bytes stay the same
    rng = np.random.default_rng(11)
    vs = _float_cases() + list(rng.normal(size=3000)
                               * 10.0 ** rng.integers(-30, 30, 3000))
    want = _per_value(vs, "%.17g")
    calls = []
    real_format = csvrows._python_fields
    monkeypatch.setattr(csvrows, "_python_fields",
                        lambda v: calls.append(len(v)) or real_format(v))
    assert _column_csv(vs, np.float64) == want
    fast_route = len(vs) - sum(calls)
    assert fast_route > 3000
    calls.clear()
    monkeypatch.setattr(csvrows, "_TIE_MARGIN", 0.5)
    assert _column_csv(vs, np.float64) == want
    assert sum(calls) == sum(v != 0 for v in vs)


# Found by exact search over M 2^q (M < 2^53): P = |v| 10^(16 - E) within
# 1e-17 to 5e-15 of a half-integer, where 10^(16 - E) is not a double
# (|16 - E| > 22) and its pair has lo != 0; and P exactly a half-integer,
# where 10^(16 - E) is exact (0 <= 16 - E <= 22). No tie exists for
# E > 16. These values go through Python's formatter.
_NEAR_TIES = [
    1.1959468262253353e-12, 3.587840478676006e-12, 1.363259136446644e-11,
    2.3233180180504022e-11, 1.150419947612765e-10, 1.2568395420297045e-10,
    1.84323563923269e-09, 3.718397156790462e-09, 1.0076000255121024e-08,
    2.9376644010027554e-08, 1.0501678632788782e-07, 2.2422607587866907e-07,
    4.440909132899999e-12, 1.1473543192139844e+39, 1.833603199799087e+39,
    1.014315038864168e+40, 1.8078725207183761e+40, 1.7152420760278166e+41,
    2.982244052967107e+41, 1.0373790629225175e+42, 2.2632119533326704e+42,
    1.0849340256646876e+43, 2.1783194297891822e+43]
_EXACT_TIES = [
    1.0728836059570312e-06, 1.5497207641601562e-05, 0.00012254714965820312,
    0.0019540786743164062, 0.015626907348632812, 0.12500381469726562,
    1.0000076293945312, 16.000015258789062, 128.00003051757812,
    1024.0000610351562, 16384.000122070312, 131072.00024414062,
    1048576.0004882812, 16777216.000976562, 134217728.00195312,
    1073741824.0039062, 17179869184.007812, 137438953472.01562,
    1099511627776.0312, 17592186044416.062, 140737488355328.12,
    1125899906842624.2]


def _half_unit_distance(v):
    """|P - (n + 1/2)| exactly, P = |v| 10^(16 - E), E = floor(log10 |v|)."""
    x = Fraction(abs(v))
    e = math.floor(math.log10(abs(v)))
    e += (Fraction(10) ** (e + 1) <= x) - (Fraction(10) ** e > x)
    p = x * Fraction(10) ** (16 - e)
    return abs(p - math.floor(p) - Fraction(1, 2)), e


def test_float_fields_near_and_exact_ties():
    for v in _NEAR_TIES:
        dist, e = _half_unit_distance(v)
        assert 0 < dist < 1e-12 and abs(16 - e) > 22
    for v in _EXACT_TIES:
        dist, e = _half_unit_distance(v)
        assert dist == 0 and abs(16 - e) <= 22
    cases = [s * v for v in _NEAR_TIES + _EXACT_TIES for s in (1, -1)]
    assert _column_csv(cases, np.float64) == _per_value(cases, "%.17g")


def test_float_core_error_within_the_tie_margin():
    # err, formed in float64 from the pair hi + lo, against P - p by exact
    # rational arithmetic: off by at most 48 u, under the tie margin, on
    # magnitudes over the whole fast range and on the near-ties
    rng = np.random.default_rng(12)
    vs = np.abs(rng.normal(size=2000) * 10.0 ** rng.integers(-280, 300, 2000))
    vs = np.concatenate([vs, _NEAR_TIES])
    vs = vs[(vs >= csvrows._FAST[0]) & (vs <= csvrows._FAST[1])]
    digits, idx, fast = csvrows._float_digits(vs.copy())
    near, r = csvrows._digits(vs, idx)
    worst = 0
    for v, d, f, i, dn, ri in zip(vs.tolist(), digits.tolist(),
                                  fast.tolist(), idx.tolist(), near.tolist(),
                                  r.tolist()):
        p = Fraction(v) * Fraction(10) ** (16 - (i + csvrows._E_LO))
        assert not f or abs(p - d) < Fraction(1, 2)
        worst = max(worst, abs(float(p - dn - Fraction(ri))))
    assert 0 < worst <= 48 * 2.0 ** -53
    assert worst < csvrows._TIE_MARGIN
