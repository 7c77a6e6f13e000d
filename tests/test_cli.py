import hashlib
import json
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helpers import beatty_stream, fresh_env, fresh_python, merged_cover
import reebspec
import reebspec.cli as cli
import reebspec.ellipsoid
import reebspec.errors
from reebspec import FieldContext, TamuraFamily, czindex
from reebspec.cli import main
from reebspec.homology import ShComparison, compare, first_difference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# cz
# ---------------------------------------------------------------------------

def test_cz_both_agree(capsys):
    code, out, _ = run(capsys, "cz", "--freqs", "1", "--duration", "9.42477796")
    assert code == 0
    payload = json.loads(out)
    assert payload["analytic"] == 3
    assert payload["numeric"] == 3
    assert payload["agree"] is True


def test_cz_two_half_turns(capsys):
    code, out, _ = run(capsys, "cz", "--freqs", "1,1",
                       "--duration", "3.14159265")
    assert code == 0
    assert json.loads(out)["analytic"] == 2


def test_cz_analytic_only(capsys):
    code, out, _ = run(capsys, "cz", "--freqs", "2", "--duration", "3.0",
                       "--analytic")
    assert code == 0
    payload = json.loads(out)
    assert "numeric" not in payload


def test_cz_negative_duration_is_usage_error(capsys):
    code, _, err = run(capsys, "cz", "--freqs", "1", "--duration", "-1")
    assert code == 64
    assert "usage" in err


@pytest.mark.parametrize("freqs, duration", [
    ("inf", "1"),
    ("1", "inf"),
    ("1e308", "1e308"),  # both finite, but duration*freq/(2*pi) is not
])
def test_cz_non_finite_input_is_usage_error(capsys, freqs, duration):
    code, out, err = run(capsys, "cz", "--freqs", freqs, "--duration", duration)
    assert code == 64
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("freqs", ["1,,2", "1,2,", ",1", "1, ,2", ""])
def test_cz_empty_freqs_item_is_usage_error(capsys, freqs):
    code, out, err = run(capsys, "cz", "--freqs", freqs, "--duration", "1")
    assert code == 64
    assert out == ""
    assert "--freqs has an empty item" in err


def test_cz_numeric_inconclusive(capsys):
    # rotation stops just short of a crossing: ambiguous for the engine
    duration = 2 * math.pi * 0.99998
    code, out, _ = run(capsys, "cz", "--freqs", "1",
                       "--duration", repr(duration))
    assert code == 2
    payload = json.loads(out)
    assert payload["numeric"] is None
    assert payload["analytic"] == 1
    assert "error" in payload


def test_cz_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cz_rotation_analytic", lambda *a, **k: 999)
    code, out, _ = run(capsys, "cz", "--freqs", "1", "--duration", "9.42477796")
    assert code == 3
    assert json.loads(out)["agree"] is False


def test_cz_text_format(capsys):
    code, out, _ = run(capsys, "cz", "--freqs", "1", "--duration",
                       "9.42477796", "--format", "text")
    assert code == 0
    assert "analytic: 3" in out


def test_cz_csv_not_offered(capsys):
    code, out, _ = run(capsys, "cz", "--freqs", "1", "--duration", "1",
                       "--format", "csv")
    assert code == 64
    assert out == ""


@pytest.mark.parametrize("mode", ["--numeric", "--both"])
def test_cz_under_resolved_grid_is_usage_error(capsys, mode):
    # at the default 4096 samples --numeric printed 301 for a true 31831
    code, out, err = run(capsys, "cz", "--freqs", "1", "--duration", "100000",
                         mode)
    assert code == 64
    assert out == ""
    assert "need --samples 127340 or more" in err


def test_cz_grid_above_the_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "cz", "--freqs", "1", "--duration", "1e7")
    assert code == 64
    assert out == ""
    assert f"above the cap {cli.MAX_SAMPLES}" in err


@pytest.mark.parametrize("argv", [
    ("cz", "--freqs", "1", "--duration", "1"),
    ("spectrum", "--d", "2", "--weights", "1; sqrt(2)", "--max-degree", "5",
     "--cross-check"),
])
def test_samples_above_the_cap_exit_before_any_grid(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "RotationPath", refuse)
    monkeypatch.setattr(reebspec.ellipsoid, "RotationPath", refuse)
    for samples in (cli.MAX_SAMPLES + 1, 10**12):
        code, out, err = run(capsys, *argv, "--samples", str(samples))
        assert code == 64
        assert out == ""
        assert f"must be at most {cli.MAX_SAMPLES}" in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_golden_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                       "1;sqrt(2)", "--max-degree", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == ["1", "sqrt(2)"]
    assert [(o["j"], o["n"], o["cz"]) for o in payload["orbits"]] == [
        (1, 1, 3), (2, 1, 5), (1, 2, 7)]
    assert payload["orbits"][1]["period_coeff"] == "1*pi*(sqrt(2))"


def test_spectrum_hypothesis_violation_exit(capsys):
    code, _, err = run(capsys, "spectrum", "--d", "2", "--weights", "1;2",
                       "--max-degree", "7")
    assert code == 65
    assert "1/2" in err  # the offending rational ratio is rendered


@pytest.mark.parametrize("weights, label", [("1/1" + "0" * 400 + ";sqrt(2)", "a_1"),
                                            ("1;1" + "0" * 400 + "*sqrt(2)", "a_2")],
                         ids=["tiny_a_1", "huge_a_2"])
@pytest.mark.parametrize("samples", [(), ("--samples", "5000")], ids=["family", "samples"])
def test_spectrum_cross_check_names_a_weight_outside_the_double_range(capsys, weights,
                                                                      label, samples):
    # 10**-400 and 10**400*sqrt(2) have no finite positive double 2/a or n*pi*a
    code, out, err = run(capsys, "spectrum", "--d", "2", "--weights", weights,
                         "--max-degree", "20", "--cross-check", *samples)
    assert (code, out) == (64, "")
    assert err.startswith(f"invalid input: weight {label} = ")
    assert err.endswith(" is not a finite positive double\n")


def test_spectrum_single_weight(capsys):
    code, out, _ = run(capsys, "spectrum", "--d", "5", "--weights", "1",
                       "--max-degree", "4")
    assert code == 0
    assert [(o["j"], o["n"], o["cz"]) for o in json.loads(out)["orbits"]] == [
        (1, 1, 2), (1, 2, 4)]


def test_spectrum_cross_check(capsys):
    code, out, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                       "1;sqrt(2)", "--max-degree", "7", "--cross-check")
    assert code == 0
    payload = json.loads(out)
    assert all(o["agree"] for o in payload["orbits"])
    assert all(o["numeric_cz"] == o["cz"] for o in payload["orbits"])


def test_spectrum_cross_check_is_pinned(capsys):
    # W3 to degree 160, every iterate read from one crossing search: the
    # same bytes the per-orbit route printed
    code, out, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                       "1; sqrt(2); 1+sqrt(2)", "--max-degree", "160",
                       "--cross-check")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2b5907c87a989a58775ba804f93e9545a0f9a5409b1a51a7adab7fcfc48ecb6e")


@pytest.mark.parametrize("d, weights, max_degree, digest", [
    ("5", "1; 1/2+1/2*sqrt(5); 1/2+3/2*sqrt(5)", "160",
     "2eded3fad5b79e62ee4b2498da2b7cf94c9f82497c9b24b2715c42c23b180617"),
    ("2", "1; sqrt(2); 1+sqrt(2)", "600",
     "5c3186cc437c4234513b8951807819aeaa6b0c50d42fdc4fba20b69845cb1c68"),
])
def test_spectrum_cross_check_pins_more_output(capsys, d, weights, max_degree, digest):
    # the held-out benchmark family to degree 160 and W3 to degree 600: the
    # bytes that one crossing search per simple orbit printed
    code, out, _ = run(capsys, "spectrum", "--d", d, "--weights", weights,
                       "--max-degree", max_degree, "--cross-check")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("max_degree, searches, orbits", [
    (160, 1, 79), (3, 0, 0), (1, 0, 0)])
def test_spectrum_cross_check_runs_one_crossing_search(capsys, monkeypatch,
                                                      max_degree, searches, orbits):
    # every iterate of every simple orbit is read from one crossing list;
    # below the first index (cz >= m + 1) there is nothing to search
    real, calls = reebspec.ellipsoid.find_crossings, []

    def counted(path):
        calls.append(path.b)
        return real(path)

    monkeypatch.setattr(reebspec.ellipsoid, "find_crossings", counted)
    code, out, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                       "1; sqrt(2); 1+sqrt(2)", "--max-degree", str(max_degree),
                       "--cross-check")
    assert code == 0
    assert len(calls) == searches
    rows = json.loads(out)["orbits"]
    assert len(rows) == orbits and all(o["agree"] for o in rows)


@pytest.mark.parametrize("weights", ["1;;sqrt(2)", "1;sqrt(2);", ";1", "1; ;sqrt(2)", ""])
@pytest.mark.parametrize("command, extra", [
    ("spectrum", ("--max-degree", "5")),
    ("partition", ("--limit", "10")),
    ("sh", ("--max-degree", "5")),
])
def test_empty_weights_item_is_usage_error(capsys, command, extra, weights):
    code, out, err = run(capsys, command, "--d", "2", "--weights", weights, *extra)
    assert code == 64
    assert out == ""
    assert "--weights has an empty item" in err


def test_spectrum_samples_without_cross_check_is_usage_error(capsys, monkeypatch):
    # --samples sizes the cross-check's grids, so alone it would do nothing
    def refuse(*args, **kwargs):
        raise AssertionError("the spectrum was enumerated")

    monkeypatch.setattr(cli, "spectrum_sets", refuse)
    code, out, err = run(capsys, "spectrum", "--d", "2", "--weights", "1; sqrt(2)",
                         "--max-degree", "5", "--samples", "4096")
    assert code == 64
    assert out == ""
    assert "--samples takes effect only with --cross-check" in err


# each bound is min_rotation_samples of W3's longest orbit path to the degree
@pytest.mark.parametrize("max_degree, needed", [(400, 770), (12, 39)])
def test_spectrum_samples_are_checked_before_any_search(capsys, monkeypatch, max_degree,
                                                        needed):
    # without the early check, one sample short of the longest path runs
    # every shorter orbit's search, then exits with the engine's own message
    calls = []

    def per_orbit(e, j, n, sample_count=None):
        calls.append((j, n))
        return reebspec.cross_check_index(e, j, n, sample_count=sample_count)

    monkeypatch.setattr(cli, "cross_check_index", per_orbit)
    argv = ("spectrum", "--d", "2", "--weights", "1; sqrt(2); 1+sqrt(2)",
            "--max-degree", str(max_degree), "--cross-check", "--samples")
    code, out, err = run(capsys, *argv, str(needed - 1))
    assert (code, out, calls) == (64, "", [])
    assert err == (f"usage error: --samples {needed - 1} is too coarse for --max-degree "
                   f"{max_degree}: need --samples {needed} or more\n")
    code, out, _ = run(capsys, *argv, str(needed))
    assert code == 0
    assert len(calls) == len(json.loads(out)["orbits"]) > 0


def test_spectrum_cross_check_grid_above_the_cap_is_usage_error(capsys, monkeypatch):
    # the one search's default grid obeys the cap that --samples obeys: W3
    # passes it from degree 16,384, and exits before any grid or search
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(reebspec.ellipsoid, "RotationPath", refuse)
    monkeypatch.setattr(reebspec.ellipsoid, "find_crossings", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--d", "2", "--weights",
                         "1; sqrt(2); 1+sqrt(2)", "--max-degree", "16384", "--cross-check")
    assert time.perf_counter() - start < 2.0
    assert code == 64
    assert out == ""
    assert f"needs a grid of 1048661 samples, above the cap {cli.MAX_SAMPLES}" in err


def test_spectrum_cross_check_at_max_degree_exits_before_the_spectrum(capsys, monkeypatch):
    # the cap needs only each family's largest n, so no orbit, check or row
    # is built
    def refuse(*args, **kwargs):
        raise AssertionError("the spectrum was built")

    monkeypatch.setattr(cli, "_orbit_chunks", refuse)
    monkeypatch.setattr(cli, "_family_twice", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--d", "2", "--weights", "1; sqrt(2); 1+sqrt(2)",
                         "--max-degree", str(cli.MAX_DEGREE), "--cross-check")
    assert time.perf_counter() - start < 2.0
    assert code == 64
    assert out == ""
    assert f"needs a grid of 268435490 samples, above the cap {cli.MAX_SAMPLES}" in err


def test_spectrum_cross_check_grid_at_the_cap_runs_the_search(capsys, monkeypatch):
    # one degree lower, the same family's grid fits under the cap
    searched = []

    def stop(path):
        searched.append(path.sample_count)
        raise reebspec.errors.NonIsolatedCrossingError("stopped before the search")

    monkeypatch.setattr(reebspec.ellipsoid, "find_crossings", stop)
    monkeypatch.setattr(reebspec.ellipsoid, "cross_check_index",
                        lambda e, j, n: reebspec.ellipsoid.CrossCheck(
                            j, n, 0, None, None, True, "skipped"))
    code, _, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                     "1; sqrt(2); 1+sqrt(2)", "--max-degree", "16383", "--cross-check")
    assert code == 2
    assert searched == [1048389] and searched[0] <= cli.MAX_SAMPLES


def test_spectrum_cross_check_keeps_its_sample_schedule(capsys, monkeypatch):
    # W3 to degree 160: the grid, every rescan level and the one check of
    # the V-fit estimates take exactly these samples, with the rotation
    # path's exact Lipschitz bound in the candidate gates; no piece falls
    # back to golden section, no probe runs, and the verdicts read the one
    # LAPACK stack.  (Golden section with a sampled verdict stack took
    # 30,858 in 42 calls; with the observed-slope gate, about four times
    # wider, 39,718 in 44.)
    real, calls, searches = czindex._sigma_min_many, [], []

    def counted(path, ts, lapack=False, check_symplectic=False):
        calls.append((len(ts), check_symplectic))
        return real(path, ts, lapack=lapack, check_symplectic=check_symplectic)

    real_search = reebspec.ellipsoid.find_crossings
    monkeypatch.setattr(czindex, "_sigma_min_many", counted)
    monkeypatch.setattr(reebspec.ellipsoid, "find_crossings",
                        lambda path: searches.append(path) or real_search(path))
    code, _, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                     "1; sqrt(2); 1+sqrt(2)", "--max-degree", "160", "--cross-check")
    assert code == 0
    assert len(searches) == 1
    assert [n for n, grid in calls if grid] == [10334]
    assert sum(n for n, _ in calls) == 28123
    assert len(calls) == 6
    # stage by stage: the grid, four rescan levels and the V-fit check
    assert [n for n, _ in calls] == [10334, 5200, 5329, 3120, 3900, 240]


def test_spectrum_cross_check_steers_without_stacks(capsys, monkeypatch):
    # W3 to degree 160: the rotation path builds full matrices only for the
    # construction probe, the one LAPACK stack at 80 refined times and the
    # two ends, which also classifies, and the derivative at the 80 crossings
    real, built = czindex.RotationPath._rotations, []

    def spy(self, ts):
        built.append(len(ts))
        return real(self, ts)

    monkeypatch.setattr(czindex.RotationPath, "_rotations", spy)
    code, _, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                     "1; sqrt(2); 1+sqrt(2)", "--max-degree", "160", "--cross-check")
    assert code == 0
    assert built == [1, 82, 80]


def test_spectrum_cross_check_enumerates_each_tamura_set_once(capsys, monkeypatch):
    # W3 to degree 160: one enumeration per set gives the cap check's counts,
    # the family route's formula values and the rows; no element is read
    # one at a time
    calls = []
    for name in ("elements", "element"):
        real = getattr(TamuraFamily, name)
        monkeypatch.setattr(TamuraFamily, name,
                            lambda self, *args, name=name, real=real:
                            calls.append(name) or real(self, *args))
    code, out, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                       "1; sqrt(2); 1+sqrt(2)", "--max-degree", "160", "--cross-check")
    assert code == 0
    assert calls == ["elements"] * 3
    assert len(json.loads(out)["orbits"]) == 79


def test_spectrum_samples_selects_the_per_orbit_route(capsys, monkeypatch):
    # --samples N means N samples on each orbit's own path: one
    # cross_check_index per row, in row order, and never the family route
    def refuse(*args, **kwargs):
        raise AssertionError("the family route ran")

    calls, records = [], []

    def per_orbit(e, j, n, sample_count=None):
        calls.append((j, n, sample_count))
        records.append(reebspec.cross_check_index(e, j, n, sample_count=sample_count))
        return records[-1]

    monkeypatch.setattr(cli, "_family_twice", refuse)
    monkeypatch.setattr(cli, "cross_check_index", per_orbit)
    code, out, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                       "1; sqrt(2); 1+sqrt(2)", "--max-degree", "30",
                       "--cross-check", "--samples", "8192")
    assert code == 0
    rows = json.loads(out)["orbits"]
    assert calls == [(r["j"], r["n"], 8192) for r in rows]
    assert [(r["numeric_cz"], r["agree"]) for r in rows] == [
        (c.numeric, c.agree) for c in records]


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                       "1;sqrt(2)", "--max-degree", "7", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,n,cz,period_coeff"
    assert lines[1] == "1,1,3,1*pi*(1)"


def test_spectrum_text(capsys):
    argv = ("spectrum", "--d", "2", "--weights", "1;sqrt(2)",
            "--max-degree", "7", "--format", "text")
    lines = ["gamma_1^1: cz=3 period=1*pi*(1)",
             "gamma_2^1: cz=5 period=1*pi*(sqrt(2))",
             "gamma_1^2: cz=7 period=2*pi*(1)"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == lines
    code, out, _ = run(capsys, *argv, "--cross-check")
    assert code == 0
    assert out.splitlines() == [f"{line}  numeric={cz} agree=True"
                                for line, cz in zip(lines, (3, 5, 7))]


def test_spectrum_csv_cross_check_header_without_orbits(capsys):
    code, out, _ = run(capsys, "spectrum", "--d", "2", "--weights",
                       "1;sqrt(2)", "--max-degree", "2", "--cross-check",
                       "--format", "csv")
    assert code == 0
    assert out == "j,n,cz,period_coeff,numeric_cz,agree\n"


def test_spectrum_parse_error_is_usage(capsys):
    code, _, err = run(capsys, "spectrum", "--d", "2", "--weights",
                       "1;sqrt(3)", "--max-degree", "5")
    assert code == 64


W3_ARGS = ("--d", "2", "--weights", "1; sqrt(2); 1+sqrt(2)")
CHUNK = reebspec.ellipsoid._CHUNK


def _spectrum_reference(max_degree, fmt, check=None):
    """W3's spectrum document to max_degree in format fmt, built one row
    dict per orbit of the library's spectrum() list, with the record
    check(e, j, n) of each orbit when cross-checked."""
    context = FieldContext(2)
    weights = [context.parse(x) for x in ("1", "sqrt(2)", "1+sqrt(2)")]
    rendered = [reebspec.render(w) for w in weights]
    e = reebspec.Ellipsoid(weights)
    rows = []
    for o in reebspec.spectrum(e, max_degree):
        row = {"j": o.j, "n": o.n, "cz": o.cz,
               "period_coeff": f"{o.n}*pi*({rendered[o.j - 1]})"}
        if check is not None:
            c = check(e, o.j, o.n)
            if c.inconclusive:
                row.update(numeric_cz=None, agree=None, note=c.note)
            else:
                p, q = c.numeric.numerator, c.numeric.denominator
                row.update(numeric_cz=p if q == 1 else f"{p}/{q}", agree=c.agree)
        rows.append(row)
    if fmt == "json":
        return json.dumps({"command": "spectrum", "d": 2, "weights": rendered,
                           "max_degree": max_degree, "orbits": rows},
                          sort_keys=True, indent=2) + "\n"
    checked = ["numeric_cz", "agree"] if check is not None else []
    if fmt == "csv":
        columns = ["j", "n", "cz", "period_coeff", *checked]
        lines = [",".join(columns)] + [",".join(str(r[c]) for c in columns) for r in rows]
    else:
        lines = [f"gamma_{r['j']}^{r['n']}: cz={r['cz']} period={r['period_coeff']}"
                 + (f"  numeric={r['numeric_cz']} agree={r['agree']}" if checked else "")
                 for r in rows]
    return "".join(line + "\n" for line in lines)


# W3's Tamura sets tile the naturals, so to degree 2c + 2 it has exactly c
# orbits: these counts fall on both sides of one and of two chunks of rows
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_spectrum_views_equal_the_orbit_list_reference(capsys, count, fmt):
    code, out, _ = run(capsys, "spectrum", *W3_ARGS, "--max-degree", str(2 * count + 2),
                       "--format", fmt)
    assert code == 0
    assert out == _spectrum_reference(2 * count + 2, fmt)


def _fallback_with_odd_rows(monkeypatch):
    """Send the family route to its per-orbit fallback, where gamma_1^2's
    path is inconclusive (a note with a quote and a non-ASCII letter) and
    gamma_2^1's path reads the half-integer 7/2."""
    real = reebspec.ellipsoid.cz_index

    def odd(path, **kwargs):
        if path.b == 2 * math.pi:
            raise reebspec.errors.FlatCrossingError('flat "dip" at t = 2\u03c0')
        if path.b == math.pi * math.sqrt(2):
            return reebspec.ellipsoid.Fraction(7, 2)
        return real(path, **kwargs)

    def refuse(path):
        raise reebspec.errors.NonIsolatedCrossingError("synthetic: the family path")

    monkeypatch.setattr(reebspec.ellipsoid, "cz_index", odd)
    monkeypatch.setattr(reebspec.ellipsoid, "find_crossings", refuse)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("route, extra, status", [
    ("family", (), 0), ("samples", ("--samples", "8192"), 0), ("fallback", (), 3)])
def test_spectrum_cross_check_views_equal_the_record_reference(capsys, monkeypatch, route,
                                                               extra, status, fmt):
    # each row against the record of the per-orbit oracle, which the family
    # route equals on W3 and the --samples and fallback routes call
    if route == "fallback":
        _fallback_with_odd_rows(monkeypatch)
    samples = int(extra[1]) if extra else None
    code, out, _ = run(capsys, "spectrum", *W3_ARGS, "--max-degree", "30",
                       "--cross-check", *extra, "--format", fmt)
    assert code == status
    assert out == _spectrum_reference(
        30, fmt, lambda e, j, n: reebspec.ellipsoid.cross_check_index(e, j, n, samples))
    if route == "fallback" and fmt == "json":
        odd = [r for r in json.loads(out)["orbits"] if (r["j"], r["n"]) in ((1, 2), (2, 1))]
        assert [r.get("note") for r in odd] == [None, 'flat "dip" at t = 2\u03c0']
        assert [r["numeric_cz"] for r in odd] == ["7/2", None]


def test_spectrum_status_is_decided_before_the_first_byte(capsys, monkeypatch):
    # every check runs before any row is written, so an error on the third
    # orbit leaves stdout empty
    calls = []

    def third_raises(e, j, n, sample_count=None):
        calls.append((j, n))
        if len(calls) == 3:
            raise RuntimeError("the third orbit")
        return reebspec.cross_check_index(e, j, n, sample_count=sample_count)

    monkeypatch.setattr(cli, "cross_check_index", third_raises)
    code, out, err = run(capsys, "spectrum", *W3_ARGS, "--max-degree", "30",
                         "--cross-check", "--samples", "8192")
    assert (code, out, len(calls)) == (cli.EXIT_SOFTWARE, "", 3)
    assert err == "internal error: RuntimeError: the third orbit\n"


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def test_partition_tamura(capsys):
    code, out, _ = run(capsys, "partition", "--d", "2", "--weights",
                       "1;sqrt(2)", "--limit", "10000")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "partition"
    assert payload["collision"] is None and payload["gap"] is None


def test_partition_beatty_pair(capsys):
    code, out, _ = run(capsys, "partition", "--d", "5", "--weights",
                       "1/2+1/2*sqrt(5)", "--limit", "1000",
                       "--mode", "beatty-pair")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "partition"
    assert payload["beta"] == "3/2+1/2*sqrt(5)"


def test_partition_uspensky_finds_witness(capsys):
    code, out, _ = run(capsys, "partition", "--d", "2", "--weights",
                       "1;sqrt(2);5", "--limit", "1000", "--mode", "uspensky")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] in ("collision", "gap")


def test_partition_tamura_is_pinned(capsys):
    # W3 to 10**6: the bytes the one-element-at-a-time merge printed
    code, out, _ = run(capsys, "partition", "--d", "2", "--weights",
                       "1; sqrt(2); 1+sqrt(2)", "--limit", "1000000",
                       "--mode", "tamura")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f198243f176026a7fbee8460df7d5c7c7ccc6ef7a5030e466daecf468728a45b")


def test_partition_uspensky_far_limit_stays_small(capsys):
    # a limit far past int64: the early witness comes out of the first
    # window, and nothing is sized by the limit
    limit = 10**30
    weights = [FieldContext(2).element(p, q) for p, q in ((0, 1), (1, 1), (10**20, 1))]
    streams = [beatty_stream(a, j, limit) for j, a in enumerate(weights, 1)]
    expected = merged_cover(streams, limit)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "partition", "--d", "2", "--weights",
                           "sqrt(2); 1+sqrt(2); 100000000000000000000+sqrt(2)",
                           "--limit", str(limit), "--mode", "uspensky")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    payload = json.loads(out)
    assert payload["limit"] == limit
    assert payload["collision"] == {
        "value": expected.value,
        "first": {"j": expected.first[0], "n": expected.first[1]},
        "second": {"j": expected.second[0], "n": expected.second[1]}}
    assert payload["counts"] == {str(j): c for j, c in expected.counts.items()}
    assert peak < 2**20


def test_partition_rational_ratio_exit(capsys):
    code, _, _ = run(capsys, "partition", "--d", "2", "--weights", "2;3",
                     "--limit", "100")
    assert code == 65


def test_partition_uspensky_needs_three(capsys):
    code, _, _ = run(capsys, "partition", "--d", "2", "--weights", "1;sqrt(2)",
                     "--limit", "100", "--mode", "uspensky")
    assert code == 64


@pytest.mark.parametrize("argv, code, lines", [
    (("--d", "2", "--weights", "1;sqrt(2);5", "--mode", "uspensky"), 1,
     ["verdict: collision", "collision at 1: set 1 (n=1) vs set 2 (n=1)"]),
    (("--d", "2", "--weights", "2+sqrt(2);3+sqrt(2);4+sqrt(2)",
      "--mode", "uspensky"), 1,
     ["verdict: gap", "gap at 1"]),
    (("--d", "5", "--weights", "1/2+1/2*sqrt(5)", "--mode", "beatty-pair"), 0,
     ["verdict: partition", "beta: 3/2+1/2*sqrt(5)"]),
])
def test_partition_text(capsys, argv, code, lines):
    got, out, _ = run(capsys, "partition", *argv, "--limit", "1000",
                      "--format", "text")
    assert got == code
    assert out.splitlines() == lines


def test_partition_csv_not_offered(capsys):
    code, _, _ = run(capsys, "partition", "--d", "2", "--weights", "1;sqrt(2)",
                     "--limit", "10", "--format", "csv")
    assert code == 64


# ---------------------------------------------------------------------------
# sh
# ---------------------------------------------------------------------------

def test_sh_equal(capsys):
    code, out, _ = run(capsys, "sh", "--d", "2", "--weights", "1;sqrt(2)",
                       "--max-degree", "201")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "equal"
    assert payload["first_difference"] is None
    assert payload["formula_degrees"] == payload["orbit_degrees"]
    assert payload["formula_degrees"][0] == [3, 1]


def test_sh_three_weights(capsys):
    code, out, _ = run(capsys, "sh", "--d", "2", "--weights",
                       "1;sqrt(2);1+sqrt(2)", "--max-degree", "202")
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"


def test_sh_csv(capsys):
    code, out, _ = run(capsys, "sh", "--d", "2", "--weights", "1;sqrt(2)",
                       "--max-degree", "9", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,formula,orbits"
    assert len(lines) == 11
    assert lines[4] == "3,1,1"


def _compare_with_extra_orbit(e, k_max):
    """The real comparison with one more orbit counted in degree 7."""
    result = compare(e, k_max)
    result.orbits.add(7)
    return ShComparison(result.m, result.k_max, result.formula, result.orbits,
                        first_difference(result.formula, result.orbits))


def test_sh_views_report_first_difference(capsys, monkeypatch):
    monkeypatch.setattr(cli, "compare", _compare_with_extra_orbit)
    argv = ("sh", "--d", "2", "--weights", "1;sqrt(2)", "--max-degree", "9")
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 1
    assert out.splitlines() == [
        "verdict: first-difference",
        "first difference at degree 7: formula=1 orbits=2"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 1
    assert out.splitlines()[8] == "7,1,2"


def test_sh_missing_weights_is_usage(capsys):
    code, _, _ = run(capsys, "sh", "--d", "2", "--max-degree", "9")
    assert code == 64


@pytest.mark.parametrize("weights, digest", [
    # W3 and the held-out benchmark family, 100,000 ladder degrees each
    ("1; sqrt(2); 1+sqrt(2)",
     "3848006cb6dd42560f322f656acf4d8d05e22ca83fabe7e7f0c3cfe51b647c08"),
    ("1; 1/2+1/2*sqrt(5); 1/2+3/2*sqrt(5)",
     "79461311fccf6ae8e22376c1dd7e469699a5747b7ea98941f048a753c27b6e51"),
], ids=["W3", "seed1"])
def test_sh_ladder_is_pinned(capsys, weights, digest):
    d = "2" if "sqrt(2)" in weights else "5"
    code, out, _ = run(capsys, "sh", "--d", d, "--weights", weights,
                       "--max-degree", "200002")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("weights", [
    "1; sqrt(2); 1+sqrt(2)", "1; 1/2+1/2*sqrt(5); 1/2+3/2*sqrt(5)",
], ids=["W3", "seed1"])
def test_sh_ladder_csv_is_pinned(capsys, weights):
    # the csv view carries no weights, so both families print the same ladder
    d = "2" if "sqrt(2)" in weights else "5"
    code, out, _ = run(capsys, "sh", "--d", d, "--weights", weights,
                       "--max-degree", "200002", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e60c2a37a67cc3ba223bd32b3bd0661602a548ac4520d0a2bb96849c66f89566")


def test_sh_imports_no_numpy_ma():
    # np.unique imports numpy.ma (1.2 MB, about 16 ms) on its first call
    proc = fresh_python(
        "import contextlib, io, sys\n"
        "from reebspec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['sh', '--d', '2', '--weights', '1; sqrt(2); 1+sqrt(2)',\n"
        "                   '--max-degree', '2002'])\n"
        "print(status, 'numpy.ma' in sys.modules)\n")
    assert proc.stdout == "0 False\n", proc.stderr


def test_runtime_never_imports_mpmath():
    # mpmath is a test dependency only; the cross-check reaches the one
    # place where exact weights become doubles
    proc = fresh_python(
        "import contextlib, io, sys\n"
        "import reebspec.cli\n"
        "loaded = 'mpmath' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = reebspec.cli.main(['spectrum', '--d', '2', '--weights',\n"
        "                                '1; sqrt(2)', '--max-degree', '10', '--cross-check'])\n"
        "print(status, loaded, 'mpmath' in sys.modules)\n")
    assert proc.stdout == "0 False False\n", proc.stderr


@pytest.mark.parametrize("command", ["sh", "spectrum"])
def test_max_degree_above_the_cap_exits_before_any_work(capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli, "compare", refuse)
    monkeypatch.setattr(cli, "spectrum_sets", refuse)
    argv = (command, "--d", "2", "--weights", "1; sqrt(2)", "--max-degree")
    for degree in (cli.MAX_DEGREE + 1, 10**12):
        code, out, err = run(capsys, *argv, str(degree))
        assert code == 64
        assert out == ""
        assert f"must be at most {cli.MAX_DEGREE}" in err
    args = cli.build_parser().parse_args([*argv, str(cli.MAX_DEGREE)])
    assert args.max_degree == cli.MAX_DEGREE


@pytest.mark.parametrize("argv, low, cap", [
    (("partition", *W3_ARGS, "--limit"), 1, None),
    (("sh", *W3_ARGS, "--max-degree"), 0, cli.MAX_DEGREE),
    (("cz", "--freqs", "1", "--duration", "1", "--samples"), 1, cli.MAX_SAMPLES),
], ids=["limit", "max-degree", "samples"])
def test_integer_options_name_the_flag_and_no_private_function(capsys, argv, low, cap):
    flag = argv[-1]
    cases = [(text, f"must be an integer, got {text!r}") for text in ("abc", "1.5")]
    # 0 is a valid --max-degree, so -1 is its one refused value below the range
    cases += [(str(value), f"must be at least {low}, got {value}")
              for value in sorted({low - 1, -1})]
    if cap is not None:
        cases.append((str(cap + 1), f"must be at most {cap}, got {cap + 1}"))
    for text, message in cases:
        code, out, err = run(capsys, *argv, text)
        assert (code, out, err) == (64, "", f"usage error: argument {flag}: {message}\n")
        assert "_" not in err   # no private function is named
    args = cli.build_parser().parse_args([*argv, str(low)])
    assert vars(args)[flag[2:].replace("-", "_")] == low


@pytest.mark.parametrize("argv", [["--help"], ["sh", "--help"]])
def test_help_returns_zero_with_the_help_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: reebspec " + " ".join(argv[:-1]))
    assert ("--max-degree" in out) == (argv[0] == "sh")


# the bytes of each help text at 80 columns (Python 3.10 and 3.11 agree);
# main() registers only the subcommand it runs, and the help must not show it
@pytest.mark.parametrize("argv, digest", [
    (["--help"], "1179d9a9826dc55baa0643cc6bf32b29e6d695c6ea2fb09eacdde2f442fdb724"),
    (["-h"], "1179d9a9826dc55baa0643cc6bf32b29e6d695c6ea2fb09eacdde2f442fdb724"),
    (["cz", "--help"], "a48395e263e5e585df5ce23834f182369b1656e36a35e7e7efccb07425097f2d"),
    (["spectrum", "--help"],
     "9687ec21c0374b7e7e46b45e57a8eb563d77c3d2e6b9b4528bb47547349892b8"),
    (["partition", "--help"],
     "a7b3f4994a162d338590cf30096ad4a21e1673c0cb41f472024713857b66428d"),
    (["sh", "--help"], "03e252e384aba9e4393963f44a9fe58657790b1048629e64c56a51fe699be9d6"),
], ids=["help", "h", "cz", "spectrum", "partition", "sh"])
def test_help_text_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_SH_ARGS = ("--d", "2", "--weights", "1;sqrt(2)", "--max-degree", "10")
_INVALID_COMMAND = ("argument command: invalid choice: {!r} "
                    "(choose from 'cz', 'spectrum', 'partition', 'sh')")


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], _INVALID_COMMAND.format("bogus")),
    (["--format", "json"], _INVALID_COMMAND.format("json")),
    (["spectrum"], "the following arguments are required: --d, --weights, --max-degree"),
    (["sh", "--d", "2"], "the following arguments are required: --weights, --max-degree"),
    (["spectrum", *_SH_ARGS, "extra"], "unrecognized arguments: extra"),
    (["cz", "--freqs", "1", "--duration", "1", "--analytic", "--numeric"],
     "argument --numeric: not allowed with argument --analytic"),
    (["sh", *_SH_ARGS, "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')"),
], ids=["empty", "bogus", "leading-option", "spectrum-required", "sh-required",
        "extra", "exclusive", "format"])
def test_usage_errors_are_pinned(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (64, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv", [["sh", *_SH_ARGS], ["--help"]], ids=["sh", "help"])
def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["reebspec", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert expected[0] == 0 and expected[1]


@pytest.mark.parametrize("argv, parsers", [
    (["sh", *_SH_ARGS], 3),     # top level, the shared --d/--weights parent, sh
    (["bogus"], 6),             # all four subcommands, to list them in the error
], ids=["sh", "bogus"])
def test_main_builds_only_the_parser_of_its_subcommand(capsys, monkeypatch, argv, parsers):
    built = []
    init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    code, _, _ = run(capsys, *argv)
    assert (code, len(built)) == ((0 if argv[0] == "sh" else 64), parsers)


@pytest.mark.parametrize("d, message", [
    ("abc", "usage error: argument --d: must be an integer, got 'abc'"),
    ("1.5", "usage error: argument --d: must be an integer, got '1.5'"),
    ("1", "usage error: argument --d: must be at least 2, got 1"),
    ("0", "usage error: argument --d: must be at least 2, got 0"),
    ("-5", "usage error: argument --d: must be at least 2, got -5"),
    ("4", "parse error: radicand 4 is a perfect square"),
])
@pytest.mark.parametrize("command", ["spectrum", "partition", "sh"])
def test_radicand_option_is_an_integer_from_two(capsys, command, d, message):
    extra = ("--limit", "10") if command == "partition" else ("--max-degree", "10")
    argv = (command, "--d", d, "--weights", "1;sqrt(2)", *extra)
    assert run(capsys, *argv) == (64, "", message + "\n")


# ---------------------------------------------------------------------------
# the JSON renderer against json.dumps
# ---------------------------------------------------------------------------

_keys = st.text() | st.sampled_from(
    ["", '"', "\\", "\n", "\x00", "\x1f", "\u2028", "\ud800", "é", "😀", "a b"])
_leaves = (st.none() | st.booleans() | st.integers()
           | st.integers(2**63 - 2, 2**70) | st.integers(-(2**70), -(2**63))
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf])
           | st.text())
# rows of one width, some with a bool among the ints, and ragged rows
_rows = (st.integers(1, 3).flatmap(lambda w: st.lists(
            st.lists(st.integers() | st.booleans(), min_size=w, max_size=w)))
         | st.lists(st.lists(st.integers(), max_size=3)))


_int64 = st.integers(-(2**63), 2**63 - 1)
# int64 arrays, which _json writes as holes that json.dumps leaves
_arrays = hnp.arrays(np.int64, st.tuples(st.integers(0, 3), st.integers(0, 3)),
                     elements=_int64)


def _containers(children):
    return (st.lists(children) | st.lists(children).map(tuple)
            | st.dictionaries(_keys, children)
            | st.dictionaries(st.integers(), children) | _rows)


def _plain(value):
    """value with each ndarray as its list, as json.dumps takes it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@settings(max_examples=200)
@given(st.recursive(_leaves | _rows | _arrays, _containers, max_leaves=40))
@example({"a": [], "b": {}, "c": [[], {}], "d": [[1, 2], [3, 4]]})
@example([[1, True], [2, False]])
@example([[1, 2], [3]])
@example({"x": [[2**64, -(2**70)]], "y": [-0.0, 1e300, math.nan, math.inf]})
@example({1: np.ones((2, 2), dtype=np.int64), 2: [1.5, np.ones((1, 3), dtype=np.int64)]})
def test_json_renderer_equals_json_dumps(value):
    assert cli._json(value) == json.dumps(_plain(value), sort_keys=True, indent=2)


@settings(max_examples=200)
@given(hnp.arrays(np.int64, st.tuples(st.integers(0, 20), st.integers(1, 3)),
                  elements=_int64),
       st.dictionaries(_keys, _leaves, max_size=3))
@example(np.zeros((0, 2), dtype=np.int64), {})
@example(np.array([[-(2**63), 2**63 - 1], [-1, 0]], dtype=np.int64), {"a": 1})
def test_json_renderer_writes_int64_rows_as_json_dumps(rows, others):
    expected = rows.tolist()
    assert cli._json(rows) == json.dumps(expected, sort_keys=True, indent=2)
    # one object under two keys at one depth is rendered once, and reused
    nested = {**others, "rows": rows, "same": rows, "deeper": {"rows": rows, "same": rows}}
    expected = {**others, "rows": expected, "same": expected,
                "deeper": {"rows": expected, "same": expected}}
    assert cli._json(nested) == json.dumps(expected, sort_keys=True, indent=2)


def _w3_orbits(max_degree):
    """W3's _OrbitRows to max_degree and the list of row dicts it stands for."""
    args = cli.build_parser().parse_args(["spectrum", *W3_ARGS, "--max-degree",
                                          str(max_degree)])
    reference = json.loads(_spectrum_reference(max_degree, "json"))["orbits"]
    return cli.cmd_spectrum(args)[1]["orbits"], reference


@pytest.mark.parametrize("where", ["value", "key"])
@pytest.mark.parametrize("text", [cli._HOLE, '"' + cli._HOLE, cli._HOLE + '"', "\0",
                                  "rows", "\\u0000rows", " " + cli._HOLE],
                         ids=["marker", "quote-marker", "marker-quote", "nul", "rows",
                              "escaped", "space-marker"])
def test_json_holes_write_json_dumps_bytes_or_raise(text, where):
    # a payload string that spells the marker, as a value or a dict key at two
    # depths, beside real ndarray and _OrbitRows holes: either json.dumps'
    # bytes or a ValueError, never wrong bytes
    orbits, orbit_list = _w3_orbits(20)
    ladder = np.array([[3, 1], [5, 2], [7, 1]], dtype=np.int64)

    def document(orbits, ladder):
        leaf = {text: 1} if where == "key" else text
        return {"a": leaf, "ladder": ladder, "orbits": orbits,
                "deeper": [leaf, ladder, orbits, {"ladder": ladder, "orbits": orbits,
                                                  "z": [leaf]}]}

    expected = json.dumps(document(orbit_list, ladder.tolist()), sort_keys=True, indent=2)
    try:
        text_out = cli._json(document(orbits, ladder))
    except ValueError:
        assert cli._HOLE in text
    else:
        assert text_out == expected


def test_json_renders_one_ladder_under_two_keys_at_two_depths(monkeypatch):
    # as sh passes one ladder for both counts: its rows are rendered once per
    # indentation, and each copy has json.dumps' bytes
    ladder = np.arange(2 * (cli._CHUNK + 3), dtype=np.int64).reshape(-1, 2)
    calls, real = [], cli._int64_rows

    def spy(rows, inner):
        calls.append(inner)
        return real(rows, inner)

    monkeypatch.setattr(cli, "_int64_rows", spy)
    value = {"formula": ladder, "orbits": ladder,
             "deeper": {"formula": ladder, "orbits": ladder}}
    expected = {"formula": ladder.tolist(), "orbits": ladder.tolist()}
    assert cli._json(value) == json.dumps({**expected, "deeper": expected},
                                          sort_keys=True, indent=2)
    assert sorted(calls) == ["\n    ", "\n      "]


@pytest.mark.parametrize("obj", [np.int64(3), np.arange(3, dtype=np.int64),
                                 np.zeros((2, 2), dtype=np.int32), object()],
                         ids=["int64-scalar", "int64-1d", "int32-2d", "object"])
def test_json_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError) as ours:
        cli._json({"rows": [obj]})
    with pytest.raises(TypeError) as theirs:
        json.dumps({"rows": [obj]})
    assert str(ours.value) == str(theirs.value)
    assert str(ours.value).endswith(" is not JSON serializable")


def _sh_payload():
    args = cli.build_parser().parse_args(
        ["sh", "--d", "2", "--weights", "1;sqrt(2);1+sqrt(2)", "--max-degree", "41"])
    return cli.cmd_sh(args)


def test_sh_passes_one_ladder_for_both_counts_when_equal():
    status, payload = _sh_payload()
    assert status == 0 and payload["verdict"] == "equal"
    assert payload["formula_degrees"] is payload["orbit_degrees"]


def test_sh_passes_two_ladders_on_a_first_difference(monkeypatch):
    monkeypatch.setattr(cli, "compare", _compare_with_extra_orbit)
    status, payload = _sh_payload()
    assert status == 1 and payload["verdict"] == "first-difference"
    formula, orbits = payload["formula_degrees"], payload["orbit_degrees"]
    assert formula is not orbits
    assert not np.array_equal(formula, orbits)
    expected = {**payload, "formula_degrees": formula.tolist(),
                "orbit_degrees": orbits.tolist()}
    assert cli._json(payload) == json.dumps(expected, sort_keys=True, indent=2)


def test_json_of_the_sh_ladder_peaks_under_twice_its_length():
    # the pieces, the rows text once, and one join: about 1.5 times the
    # document (1.74 times with the rows filled by one % for the whole
    # array).  Concatenating the rows text into each enclosing container
    # peaked at 2.5 times
    args = cli.build_parser().parse_args(
        ["sh", "--d", "2", "--weights", "1;sqrt(2);1+sqrt(2)", "--max-degree", "200002"])
    _, payload = cli.cmd_sh(args)
    tracemalloc.start()
    try:
        text = cli._json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 6889127
    assert peak < 2 * len(text)


class _NullWriter:
    """A stdout that keeps only the number of characters written to it and
    the length of its longest write."""

    def __init__(self):
        self.size = self.longest = 0

    def write(self, text):
        self.size += len(text)
        self.longest = max(self.longest, len(text))
        return len(text)

    def flush(self):
        pass


def test_spectrum_and_sh_write_their_rows_as_they_are_rendered(monkeypatch):
    # spectrum keeps two index arrays and one chunk of rows, where one
    # ReebOrbit and one row dict per orbit took 604 bytes per orbit; sh
    # keeps its ladder's row chunks once, where joining the document took
    # 1.74 times its length
    monkeypatch.setattr(sys, "stdout", _NullWriter())
    main(["spectrum", *W3_ARGS, "--max-degree", "2002"])   # imports outside the peak
    sink = _NullWriter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["spectrum", *W3_ARGS, "--max-degree", "200002"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 100000 + 4 * 2**20
    assert sink.longest < sink.size / 20    # a chunk of rows per write
    args = cli.build_parser().parse_args(["sh", *W3_ARGS, "--max-degree", "200002"])
    _, payload = cli.cmd_sh(args)
    sink = _NullWriter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit(args, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 6889127 + 1
    assert peak < 1.25 * 6889127
    assert sink.longest < sink.size / 20


def test_json_of_a_spectrum_joins_each_finished_container():
    # the rows come one chunk per piece: about 2.1 times the document (2.75
    # times with one piece per row dict).  Keeping every key, value and
    # separator as its own piece until the one join peaked at 8.4 times, and
    # nested concatenation at 3.0 times
    args = cli.build_parser().parse_args(
        ["spectrum", "--d", "2", "--weights", "1;sqrt(2);1+sqrt(2)", "--max-degree", "20002"])
    _, payload = cli.cmd_spectrum(args)
    tracemalloc.start()
    try:
        text = cli._json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(payload["orbits"]) == 10000
    assert peak < 2.9 * len(text)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("spectrum", "--d", "2", "--weights", "1;sqrt(2)", "--max-degree", "21"),
    ("partition", "--d", "2", "--weights", "1;sqrt(2)", "--limit", "500"),
    ("sh", "--d", "2", "--weights", "1;sqrt(2)", "--max-degree", "41"),
    ("cz", "--freqs", "1", "--duration", "9.42477796"),
    ("spectrum", "--d", "2", "--weights", "1;sqrt(2)", "--max-degree", "21",
     "--format", "csv"),
    ("spectrum", "--d", "2", "--weights", "1;sqrt(2)", "--max-degree", "21",
     "--format", "text"),
    ("partition", "--d", "2", "--weights", "1;sqrt(2)", "--limit", "500",
     "--format", "text"),
    ("sh", "--d", "2", "--weights", "1;sqrt(2)", "--max-degree", "41",
     "--format", "csv"),
    ("sh", "--d", "2", "--weights", "1;sqrt(2)", "--max-degree", "41",
     "--format", "text"),
    ("cz", "--freqs", "1", "--duration", "9.42477796", "--format", "text"),
])
def test_output_is_byte_identical(capsys, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, code, digest", [
    (("cz", "--freqs", "1,1.5", "--duration", "7.3", "--both"), 0,
     "0802f2dd9271c63a94d1a0e1c3efa440c298a0f1bbd06f827e344393002c9f97"),
    (("partition", "--d", "5", "--weights", "1/2+1/2*sqrt(5)", "--limit", "1000",
      "--mode", "beatty-pair"), 0,
     "4cf366d22caa90cf5f8a0240511d999062751e0e19a019a3a999f5f8bd1be25c"),
    (("partition", *W3_ARGS, "--limit", "1000", "--mode", "uspensky"), 1,
     "6bc49e55557706403e8f3d562fdd6289f3b080f3c30a20ac658e33c4d4397a5f"),
    (("sh", "--d", "2", "--weights", "1; sqrt(2)", "--max-degree", "1"), 0,
     "6729d15d6aa7c6d7fe9e19d310da178c49d19ae97d4faa66225be7c222f65106"),
    (("spectrum", "--d", "2", "--weights", "1; sqrt(2)", "--max-degree", "2"), 0,
     "19ad439a1497f18234ece963f2f3354428c2cf771c230f3b1a6df1844b053b62"),
], ids=["cz-floats", "beatty-pair", "uspensky-witness", "sh-empty-ladders",
        "spectrum-no-orbits"])
def test_small_documents_are_pinned(capsys, argv, code, digest):
    # floats, a null gap, a collision dict, empty ladders and an empty orbit
    # list: the bytes json.dumps(payload, sort_keys=True, indent=2) writes
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# exits without a traceback
# ---------------------------------------------------------------------------

def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "sh", broken)
    code, out, err = run(capsys, "sh", "--d", "2", "--weights", "1; sqrt(2)",
                         "--max-degree", "10")
    assert code == cli.EXIT_SOFTWARE == 70
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_closed_stdout_is_an_output_error():
    # 20001 csv rows overfill the pipe, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "reebspec.cli", "sh", "--d", "2",
         "--weights", "1; sqrt(2)", "--max-degree", "20000", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
    assert proc.stdout.readline() == b"degree,formula,orbits\n"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == cli.EXIT_IO == 74
    assert "Traceback" not in err
    assert err == ""
