"""Batch command-line front end.

Four subcommands wrap the library pipelines with deterministic output:

    cz         index of a rotation path, analytic and/or numeric
    spectrum   Reeb orbits of an ellipsoid up to a degree bound
    partition  Tamura / Beatty-pair / naive-family partition scans
    sh         degree-dimension comparison: orbit counting vs closed formula

Exit codes: 0 success (agreement / partition / equal), 1 mathematical
violation found, 2 numeric engine inconclusive, 3 oracle disagreement,
64 usage error, 65 hypothesis violation, 70 internal error (any other
exception, reported as one `internal error: <Type>: <message>` line on
stderr), 74 output error (stdout closed before all output was written,
e.g. by `| head`).  No exit comes with a traceback.  Every grid is capped
at MAX_SAMPLES = 2**20: `--samples` above it, and a `spectrum --cross-check`
whose one crossing search needs more (W3 from `--max-degree` 16,384), exit
64.  `cz` needs at least 8 samples per turn of the fastest block, plus 16.
These limits exit before any grid is built; the cross-check's is checked
from the Tamura element counts, before the spectrum is built.
`--max-degree` of `sh` and `spectrum` is capped at MAX_DEGREE = 2**22 and
exits 64 above it, before any array is allocated.  At the cap, on W3 with
stdout to /dev/null, one in-process main() call of `sh` peaks at 431 MB
resident (ru_maxrss), mostly its Reeb orbit tuples, in 3.0-3.5 s wall,
and one of `spectrum` (2,097,151 orbits, no ReebOrbit or row dict built)
at 86 MB in 1.5-1.7 s wall (3 runs each, shared 2-vCPU x86_64).
`partition --limit` has no cap: without the owner table the scan's memory
stays bounded whatever the limit, and its time grows linearly with it.
JSON output has sorted keys and no timestamps, so identical flags give
byte-identical bytes; exact values are rendered as expression strings,
never as decimals.  Each subcommand computes one JSON payload, and the csv
and text formats are views of it.  Every verdict and the exit status are
decided before the first byte; the output is then written as it is
rendered, rows one chunk per write, and is never joined into one document.
The JSON output is json.dumps(payload, sort_keys=True, indent=2), byte for
byte: json.dumps writes all of it but the rows, which are filled in with
one row template per chunk.  A call whose argv names a subcommand builds
the parser of that subcommand alone, and any other argv the parser of all
four; either gives the same help and error bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain

import numpy as np

from .czindex import RotationPath, cz_index, cz_rotation_analytic, min_rotation_samples
from .ellipsoid import _CHUNK, Ellipsoid, cross_check_index, family_samples, spectrum_sets
from .ellipsoid import _family_twice, _orbit_chunks, _periods, _reeb_freqs, _twice
from .errors import CrossingError, ExprSyntaxError, HypothesisViolation, RadicandError
from .homology import compare
from .partitions import rayleigh_conjugate, rayleigh_pair, uspensky_scan, verify_partition
from .quadfield import FieldContext, render

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_DISAGREEMENT = 3
EXIT_USAGE = 64
EXIT_HYPOTHESIS = 65
EXIT_SOFTWARE = 70
EXIT_IO = 74

# a grid of 2**20 samples of a 6 x 6 path is already about 300 MB of matrices
MAX_SAMPLES = 1 << 20
# sh allocates int64 degree vectors over [0, max_degree]; see the docstring
MAX_DEGREE = 1 << 22


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fraction_json(fr):
    if fr.denominator == 1:
        return int(fr)
    return f"{fr.numerator}/{fr.denominator}"


def _split_items(text, sep, flag):
    """The stripped items of a sep-separated list; an empty one is refused."""
    items = [item.strip() for item in text.split(sep)]
    if not all(items):
        raise _UsageError(f"{flag} has an empty item in {text!r}")
    return items


def _parse_weights(args):
    context = FieldContext(args.d)
    return [context.parse(p) for p in _split_items(args.weights, ";", "--weights")]


def _int_option(low, cap=None):
    """An argparse type: an integer from low to cap (no cap if None)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
        return value
    return parse


def _require_samples(samples, needed, what):
    if samples < needed:
        raise _UsageError(f"--samples {samples} is too coarse for {what}: need --samples "
                          f"{needed} or more" + (f", above the cap {MAX_SAMPLES}"
                                                 if needed > MAX_SAMPLES else ""))


_HELPS = {"cz": "Conley-Zehnder index of a rotation path",
          "spectrum": "Reeb orbits of an ellipsoid",
          "partition": "partition scans in exact arithmetic",
          "sh": "degree-dimension comparison"}


def build_parser(command=None):
    """The parser of one subcommand, which main() gives the rest of argv when
    argv[0] names it, or with no command the parser of all four, whose help
    and invalid-choice error list them all."""
    if command is not None:
        parser = _Parser(prog=f"reebspec {command}")
        parser.set_defaults(command=command)
        _add_options(parser, command)
        return parser
    parser = _Parser(prog="reebspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in _HELPS.items():
        _add_options(sub.add_parser(command, help=text), command)
    return parser


def _add_options(p, command):
    """Add the options of subcommand `command` to parser p."""
    if command == "cz":
        p.add_argument("--freqs", required=True,
                       help="comma-separated positive frequencies")
        p.add_argument("--duration", required=True, type=float)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--analytic", action="store_true")
        mode.add_argument("--numeric", action="store_true")
        mode.add_argument("--both", action="store_true")
        p.add_argument("--samples", type=_int_option(1, MAX_SAMPLES), default=4096,
                       help="grid size for the numeric engine (at most "
                            f"{MAX_SAMPLES}, at least 8 per turn + 16)")
    else:
        p.add_argument("--d", required=True, type=_int_option(2),
                       help="radicand of Q(sqrt(d))")
        p.add_argument("--weights", required=True,
                       help="semicolon-separated weight expressions")
    if command == "partition":
        p.add_argument("--limit", required=True, type=_int_option(1))
        p.add_argument("--mode", choices=("tamura", "beatty-pair", "uspensky"),
                       default="tamura")
    elif command != "cz":   # spectrum and sh
        p.add_argument("--max-degree", required=True, type=_int_option(0, MAX_DEGREE),
                       help=f"at most {MAX_DEGREE}")
    if command == "spectrum":
        p.add_argument("--cross-check", action="store_true",
                       help="verify each index against the numeric engine")
        p.add_argument("--samples", type=_int_option(1, MAX_SAMPLES), default=None,
                       help="with --cross-check, check each orbit on its own "
                            "path with this grid size over [0, n*pi*a_j] (at most "
                            f"{MAX_SAMPLES}); by default every iterate of "
                            "every simple orbit is read from one crossing search")
    p.add_argument("--format", choices=("json", *_VIEWS[command]), default="json")


def cmd_cz(args):
    try:
        freqs = [float(tok) for tok in _split_items(args.freqs, ",", "--freqs")]
    except ValueError as err:
        raise _UsageError(f"bad --freqs: {err}")
    if not all(0 < f < math.inf for f in freqs):
        raise _UsageError("--freqs must be a comma list of finite positive numbers")
    if not 0 < args.duration < math.inf:
        raise _UsageError(f"--duration must be finite and positive, got {args.duration}")

    want_analytic = args.analytic or args.both or not (args.analytic or args.numeric)
    want_numeric = args.numeric or args.both or not (args.analytic or args.numeric)

    payload = {"command": "cz", "freqs": freqs, "duration": args.duration}
    status = EXIT_OK
    if want_analytic:
        payload["analytic"] = cz_rotation_analytic(freqs, args.duration)
    if want_numeric:
        _require_samples(args.samples, min_rotation_samples(freqs, args.duration),
                         "this path")
        path = RotationPath(freqs, args.duration, sample_count=args.samples)
        try:
            numeric = cz_index(path)
        except CrossingError as err:
            payload["numeric"] = None
            payload["error"] = str(err)
            status = EXIT_INCONCLUSIVE
        else:
            payload["numeric"] = _fraction_json(numeric)
            if want_analytic:
                agree = Fraction(numeric) == payload["analytic"]
                payload["agree"] = agree
                if not agree:
                    status = EXIT_DISAGREEMENT
    return status, payload


def cmd_spectrum(args):
    """The spectrum payload: its "orbits" are an _OrbitRows, whose rows are
    built a chunk at a time as they are rendered and never stored.  With
    --cross-check, every numeric index (as twice the index, an int, or the
    note of an inconclusive check) and with it the status are found here,
    before any row is rendered."""
    if args.samples is not None and not args.cross_check:
        raise _UsageError("--samples takes effect only with --cross-check")
    weights = _parse_weights(args)
    rendered = [render(w) for w in weights]
    e = Ellipsoid(weights)
    # one enumeration of the Tamura sets serves the whole command.  --samples
    # N takes the per-orbit route, N samples on each orbit's own path, checked
    # against each set's longest path before any search, in row order.
    # Otherwise one crossing search serves every iterate of every simple
    # orbit, its grid is capped before any orbit is built, and the sets are
    # its formula values.
    sets = spectrum_sets(e, args.max_degree)
    elements = {j: a for j, a in enumerate(sets, start=1) if len(a)}
    twice = None
    if args.cross_check and args.samples is None:
        if (needed := family_samples(e, elements)) > MAX_SAMPLES:
            raise _UsageError(f"--cross-check to --max-degree {args.max_degree} needs a "
                              f"grid of {needed} samples, above the cap {MAX_SAMPLES}")
        twice = _family_twice(e, elements)
    elif args.samples is not None:
        if elements:
            needed = min_rotation_samples(_reeb_freqs(e), max(
                _periods(e, j, [len(a)])[0] for j, a in elements.items()))
            _require_samples(args.samples, needed, f"--max-degree {args.max_degree}")
        twice = {j: [None] * len(a) for j, a in elements.items()}
        for js, ns, _ in _orbit_chunks(e, sets):
            for j, n in zip(js.tolist(), ns.tolist()):
                twice[j][n - 1] = _twice(cross_check_index(e, j, n, sample_count=args.samples))
    status = EXIT_OK
    if twice is not None:
        agree = {None if isinstance(t, str) else t == 2 * (e.m - 1 + 2 * a)
                 for j, tw in twice.items() for t, a in zip(tw, elements[j].tolist())}
        status = (EXIT_DISAGREEMENT if False in agree
                  else EXIT_INCONCLUSIVE if None in agree else EXIT_OK)
    return status, {
        "command": "spectrum",
        "d": args.d,
        "weights": rendered,
        "max_degree": args.max_degree,
        "orbits": _OrbitRows(e, sets, rendered, twice),
    }


class _OrbitRows:
    """The orbit rows of a spectrum payload, in (cz, j, n) order.  A row is
    never stored: each view builds its rows from _orbit_chunks' int64
    columns, _CHUNK orbits at a time, and fills one row template per chunk
    with one %.  twice is None without a cross-check, else {j: [t_1, ...]}
    with t_n twice gamma_j^n's numeric index (an int) or the note of its
    inconclusive check (a str)."""

    def __init__(self, e, sets, weights, twice):
        self.e, self.sets, self.weights, self.twice = e, sets, weights, twice

    def __len__(self):
        return sum(map(len, self.sets))

    def chunks(self, row, sep, fields, weights, spelling=None):
        """The text of each chunk (see _filled): row once per orbit, filled
        with the orbit's `fields` of j, n, cz, w (weights[j - 1]), and with a
        cross-check's numeric, agree and note as `spelling` spells them."""
        weights = np.array([None, *weights], dtype=object)

        def blocks():
            for j, n, cz in _orbit_chunks(self.e, self.sets):
                columns = {"w": weights[j].tolist(), "j": j.tolist(), "n": n.tolist(),
                           "cz": cz.tolist()}
                if spelling is not None:
                    columns.update(_checked(self.twice, columns, *spelling))
                yield len(j), tuple(chain.from_iterable(zip(*map(columns.get, fields))))

        return _filled(row, sep, blocks())


def _checked(twice, columns, null, false, true, half, note):
    """The numeric, agree and note columns of cross-checked rows: an index
    spelled as an int or with `half` (t/2), a verdict with false or true,
    and an inconclusive row with null twice and note(its note)."""
    numeric, agree, notes = [], [], []
    for j, n, cz in zip(columns["j"], columns["n"], columns["cz"]):
        t = twice[j][n - 1]
        if isinstance(t, str):
            numeric.append(null)
            agree.append(null)
            notes.append(note(t))
        else:
            numeric.append(half % t if t & 1 else int.__repr__(t >> 1))
            agree.append(true if t == 2 * cz else false)
            notes.append("")
    return {"numeric": numeric, "agree": agree, "note": notes}


def _filled(row, sep, blocks):
    """The text of each (count, args) block: row count times, joined by sep
    and preceded by sep after the first block, filled by one % with args."""
    lead = ""
    for count, args in blocks:
        yield (lead + sep.join([row] * count)) % args
        lead = sep


def cmd_partition(args):
    weights = _parse_weights(args)
    if args.mode == "tamura":
        report = verify_partition(weights, args.limit)
    elif args.mode == "beatty-pair":
        if len(weights) != 1:
            raise _UsageError("--mode beatty-pair takes exactly one weight (alpha)")
        report = rayleigh_pair(weights[0], args.limit)
    else:
        if len(weights) < 3:
            raise _UsageError("--mode uspensky needs at least three weights")
        report = uspensky_scan(weights, args.limit)

    payload = {
        "command": "partition",
        "mode": args.mode,
        "d": args.d,
        "weights": [render(w) for w in weights],
        "limit": report.limit,
        "verdict": ("no-witness" if args.mode == "uspensky" and report.ok
                    else report.verdict),
        "counts": {str(j): c for j, c in sorted(report.counts.items())},
        "collision": None,
        "gap": None,
    }
    if report.verdict == "collision":
        payload["collision"] = {
            "value": report.value,
            "first": {"j": report.first[0], "n": report.first[1]},
            "second": {"j": report.second[0], "n": report.second[1]},
        }
    elif report.verdict == "gap":
        payload["gap"] = report.value
    if args.mode == "beatty-pair":
        payload["beta"] = render(rayleigh_conjugate(weights[0]))
    return (EXIT_OK if report.ok else EXIT_VIOLATION), payload


def cmd_sh(args):
    weights = _parse_weights(args)
    result = compare(Ellipsoid(weights), args.max_degree)
    diff = None
    formula_rows = result.formula.support_rows()
    # equal counts give equal rows, and _json renders one object once
    orbit_rows = formula_rows if result.equal else result.orbits.support_rows()
    if result.first_difference is not None:
        k, mf, mo = result.first_difference
        diff = {"degree": k, "formula": mf, "orbits": mo}
    return (EXIT_OK if result.equal else EXIT_VIOLATION), {
        "command": "sh",
        "d": args.d,
        "weights": [render(w) for w in weights],
        "max_degree": args.max_degree,
        "verdict": "equal" if result.equal else "first-difference",
        "first_difference": diff,
        "formula_degrees": formula_rows,
        "orbit_degrees": orbit_rows,
    }


def _cz_text(args, payload):
    for key in ("analytic", "numeric", "agree", "error"):
        if key in payload:
            yield f"{key}: {payload[key]}\n"


# (null, false, true, half, note) of _checked as str() spells them
_STR_SPELLING = ("None", "False", "True", "%d/2", str)


def _spectrum_csv(args, payload):
    yield "j,n,cz,period_coeff" + ",numeric_cz,agree" * args.cross_check + "\n"
    yield from _spectrum_lines(args, payload, "%d,%d,%d,%d*pi*(%s)", ",%s,%s")


def _spectrum_text(args, payload):
    return _spectrum_lines(args, payload, "gamma_%d^%d: cz=%d period=%d*pi*(%s)",
                           "  numeric=%s agree=%s")


def _spectrum_lines(args, payload, line, checked):
    """One line per orbit: `line` filled with j, n, cz, n and the weight,
    followed with --cross-check by `checked` filled with numeric and agree."""
    rows, extra = payload["orbits"], ("numeric", "agree") * args.cross_check
    return rows.chunks(line + checked * args.cross_check + "\n", "",
                       ("j", "n", "cz", "n", "w", *extra), rows.weights,
                       _STR_SPELLING if args.cross_check else None)


def _partition_text(args, payload):
    yield f"verdict: {payload['verdict']}\n"
    c = payload["collision"]
    if c is not None:
        yield (f"collision at {c['value']}: "
               f"set {c['first']['j']} (n={c['first']['n']}) vs "
               f"set {c['second']['j']} (n={c['second']['n']})\n")
    if payload["gap"] is not None:
        yield f"gap at {payload['gap']}\n"
    if "beta" in payload:
        yield f"beta: {payload['beta']}\n"


def _sh_csv(args, payload):
    dense = np.zeros((payload["max_degree"] + 1, 3), dtype=np.int64)
    dense[:, 0] = np.arange(len(dense))
    for column, key in ((1, "formula_degrees"), (2, "orbit_degrees")):
        dense[payload[key][:, 0], column] = payload[key][:, 1]
    yield "degree,formula,orbits\n"
    yield from _filled("%d,%d,%d\n", "", _int64_blocks(dense))


def _sh_text(args, payload):
    yield f"verdict: {payload['verdict']}\n"
    diff = payload["first_difference"]
    if diff is not None:
        yield (f"first difference at degree {diff['degree']}: "
               f"formula={diff['formula']} orbits={diff['orbits']}\n")


_HANDLERS = {
    "cz": cmd_cz,
    "spectrum": cmd_spectrum,
    "partition": cmd_partition,
    "sh": cmd_sh,
}

# the formats besides json that each subcommand offers, in --format order;
# each yields the pieces of its text, every line ended by a newline
_VIEWS = {
    "cz": {"text": _cz_text},
    "spectrum": {"csv": _spectrum_csv, "text": _spectrum_text},
    "partition": {"text": _partition_text},
    "sh": {"csv": _sh_csv, "text": _sh_text},
}


_encode_str = json.encoder.encode_basestring_ascii
# what json.dumps writes in place of each rows object; a payload string that
# spells it makes _json_pieces raise ValueError rather than write wrong bytes
_HOLE = "\0rows"
_HOLE_JSON = _encode_str(_HOLE)


def _json(value):
    """json.dumps(value, sort_keys=True, indent=2), byte for byte: the pieces
    of _json_pieces joined once."""
    return "".join(_json_pieces(value))


def _json_pieces(value):
    """The text of json.dumps(value, sort_keys=True, indent=2), byte for
    byte, in pieces: the rows of an int64 array or an _OrbitRows one chunk
    per piece.

    json.dumps writes every byte but the rows: its default turns each
    non-empty 2-D int64 ndarray and _OrbitRows into a marker string, an
    empty one into its plain list, and raises json's TypeError for any other
    object, before the first piece.  Each marker is then filled with the
    rows at the indentation of its line: one row template per chunk
    (_int64_rows) for an ndarray, rendered once per object and indentation,
    and _orbit_json for an _OrbitRows.
    """
    holes, memo = [], {}

    def hole(rows):
        if isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.ndim == 2:
            if not rows.size:
                return rows.tolist()
        elif not isinstance(rows, _OrbitRows):
            return json.JSONEncoder().default(rows)
        elif not len(rows):
            return []
        holes.append(rows)
        return _HOLE

    parts = json.dumps(value, sort_keys=True, indent=2, default=hole).split(_HOLE_JSON)
    if len(parts) != len(holes) + 1:
        raise ValueError(f"a string in the JSON payload spells the rows marker {_HOLE!r}")
    yield parts[0]
    for rows, before, after in zip(holes, parts, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        inner = newline + "  "
        if isinstance(rows, _OrbitRows):
            chunks = _orbit_json(rows, inner)
        elif (key := (id(rows), newline)) in memo:
            chunks = memo[key]
        else:
            chunks = memo[key] = list(_int64_rows(rows, inner))
        yield "[" + inner
        yield from chunks
        yield newline + "]" + after


def _int64_rows(value, inner):
    """The rows of a non-empty 2-D int64 array, each a JSON list at
    indentation inner, joined by commas, a chunk of rows at a time."""
    deeper = inner + "  "
    row = "[" + deeper + ("," + deeper).join(["%d"] * value.shape[1]) + inner + "]"
    return _filled(row, "," + inner, _int64_blocks(value))


def _int64_blocks(value):
    """The (count, args) blocks of _filled for the rows of a 2-D int64 array,
    _CHUNK rows per block."""
    for lo in range(0, len(value), _CHUNK):
        block = value[lo:lo + _CHUNK]
        yield len(block), tuple(block.ravel().tolist())


def _orbit_json(rows, inner):
    """The chunks of an _OrbitRows' rows as json.dumps writes them at
    indentation inner: each row a dict of sorted keys, period_coeff a
    string, numeric_cz an int, a "t/2" string or null, agree a bool or null,
    and a note only where the cross-check was inconclusive."""
    f = inner + "  "
    cz_j_n = f + '"cz": %d,' + f + '"j": %d,' + f + '"n": %d,'
    period = f + '"period_coeff": "%d*pi*(%s)"' + inner + "}"
    weights = [_encode_str(w)[1:-1] for w in rows.weights]
    if rows.twice is None:
        return rows.chunks("{" + cz_j_n + period, "," + inner,
                           ("cz", "j", "n", "n", "w"), weights)
    return rows.chunks(
        "{" + f + '"agree": %s,' + cz_j_n + "%s" + f + '"numeric_cz": %s,' + period,
        "," + inner, ("agree", "cz", "j", "n", "note", "numeric", "n", "w"), weights,
        ("null", "false", "true", '"%d/2"', lambda note: f + '"note": ' + _encode_str(note) + ","))


def _emit(args, payload):
    """Write payload to stdout in args.format, each piece as the renderer
    produces it: the rows one chunk per write, and never a joined document.
    The handler has decided the exit status before the first byte."""
    pieces = (chain(_json_pieces(payload), ["\n"]) if args.format == "json"
              else _VIEWS[args.command][args.format](args, payload))
    for piece in pieces:
        sys.stdout.write(piece)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    gc.freeze()     # a collection during the run skips the objects already made
    try:
        command = argv[0] if argv and argv[0] in _HELPS else None
        args = build_parser(command).parse_args(argv[1:] if command else argv)
        status, payload = _HANDLERS[args.command](args)
        _emit(args, payload)
        sys.stdout.flush()
        return status
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as done:   # --help, after writing the help text to stdout
        return done.code
    except HypothesisViolation as err:
        print(f"hypothesis violation: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except CrossingError as err:
        print(f"numeric engine: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ExprSyntaxError, RadicandError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: send the rest, and the flush at exit, to
        # devnull, so that Python does not report the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_IO
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_SOFTWARE
    finally:
        gc.unfreeze()


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
