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
exits 64 above it, before any array is allocated.  At the cap, one `sh`
main() call on W3, stdout to /dev/null, peaks at 431 MB resident
(ru_maxrss), mostly its Reeb orbit tuples, in 2.6-3.2 s wall (3 runs,
2-vCPU x86_64).
`partition --limit` has no cap: without the owner table the scan's memory
stays bounded whatever the limit, and its time grows linearly with it.
JSON output has sorted keys and no timestamps, so identical flags give
byte-identical bytes; exact values are rendered as expression strings,
never as decimals.  Each subcommand computes one JSON payload, and the csv
and text formats are views of it.  The JSON renderer _json writes exactly
the bytes of json.dumps(payload, sort_keys=True, indent=2), without the
pure-Python encoder that indent selects in json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain, repeat

import numpy as np

from .czindex import RotationPath, cz_index, cz_rotation_analytic, min_rotation_samples
from .ellipsoid import Ellipsoid, cross_check_family, cross_check_index, family_samples
from .ellipsoid import _periods, _reeb_freqs, spectrum_orbits, spectrum_sets
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
    if fr is None:
        return None
    fr = Fraction(fr)
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


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _sample_count(text):
    value = _positive_int(text)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SAMPLES}, got {value}")
    return value


def _require_samples(samples, needed, what):
    if samples < needed:
        raise _UsageError(f"--samples {samples} is too coarse for {what}: need --samples "
                          f"{needed} or more" + (f", above the cap {MAX_SAMPLES}"
                                                 if needed > MAX_SAMPLES else ""))


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _max_degree(text):
    value = _nonneg_int(text)
    if value > MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DEGREE}, got {value}")
    return value


def build_parser():
    parser = _Parser(prog="reebspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    field_args = _Parser(add_help=False)
    field_args.add_argument("--d", required=True, type=int,
                            help="radicand of Q(sqrt(d))")
    field_args.add_argument("--weights", required=True,
                            help="semicolon-separated weight expressions")

    p_cz = sub.add_parser("cz", help="Conley-Zehnder index of a rotation path")
    p_cz.add_argument("--freqs", required=True,
                      help="comma-separated positive frequencies")
    p_cz.add_argument("--duration", required=True, type=float)
    mode = p_cz.add_mutually_exclusive_group()
    mode.add_argument("--analytic", action="store_true")
    mode.add_argument("--numeric", action="store_true")
    mode.add_argument("--both", action="store_true")
    p_cz.add_argument("--samples", type=_sample_count, default=4096,
                      help="grid size for the numeric engine (at most "
                           f"{MAX_SAMPLES}, at least 8 per turn + 16)")

    p_sp = sub.add_parser("spectrum", parents=[field_args],
                          help="Reeb orbits of an ellipsoid")
    p_sp.add_argument("--max-degree", required=True, type=_max_degree,
                      help=f"at most {MAX_DEGREE}")
    p_sp.add_argument("--cross-check", action="store_true",
                      help="verify each index against the numeric engine")
    p_sp.add_argument("--samples", type=_sample_count, default=None,
                      help="with --cross-check, check each orbit on its own "
                           "path with this grid size over [0, n*pi*a_j] (at most "
                           f"{MAX_SAMPLES}); by default every iterate of "
                           "every simple orbit is read from one crossing search")

    p_pt = sub.add_parser("partition", parents=[field_args],
                          help="partition scans in exact arithmetic")
    p_pt.add_argument("--limit", required=True, type=_positive_int)
    p_pt.add_argument("--mode", choices=("tamura", "beatty-pair", "uspensky"),
                      default="tamura")

    p_sh = sub.add_parser("sh", parents=[field_args], help="degree-dimension comparison")
    p_sh.add_argument("--max-degree", required=True, type=_max_degree,
                      help=f"at most {MAX_DEGREE}")

    for command, p in sub.choices.items():
        p.add_argument("--format", choices=("json", *_VIEWS[command]), default="json")
    return parser


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
    if args.samples is not None and not args.cross_check:
        raise _UsageError("--samples takes effect only with --cross-check")
    weights = _parse_weights(args)
    rendered = [render(w) for w in weights]
    e = Ellipsoid(weights)
    # one enumeration of the Tamura sets serves the whole command.  --samples
    # N takes the per-orbit route, N samples on each orbit's own path, checked
    # against each set's longest path before any search.  Otherwise one
    # crossing search serves every iterate of every simple orbit, its grid is
    # capped before any orbit is built, and the sets are its formula values.
    sets = spectrum_sets(e, args.max_degree)
    elements = {j: a for j, a in enumerate(sets, start=1) if len(a)}
    if args.cross_check and args.samples is None:
        if (needed := family_samples(e, elements)) > MAX_SAMPLES:
            raise _UsageError(f"--cross-check to --max-degree {args.max_degree} needs a "
                              f"grid of {needed} samples, above the cap {MAX_SAMPLES}")
        checks = cross_check_family(e, elements)
    elif args.samples is not None and elements:
        needed = min_rotation_samples(_reeb_freqs(e), max(
            _periods(e, j, [len(a)])[0] for j, a in elements.items()))
        _require_samples(args.samples, needed, f"--max-degree {args.max_degree}")
    orbits = spectrum_orbits(e, sets)
    rows = []
    status = EXIT_OK
    saw_inconclusive = False
    for o in orbits:
        row = {
            "j": o.j,
            "n": o.n,
            "cz": o.cz,
            "period_coeff": f"{o.n}*pi*({rendered[o.j - 1]})",
        }
        if args.cross_check:
            check = (checks[o.j][o.n - 1] if args.samples is None
                     else cross_check_index(e, o.j, o.n, sample_count=args.samples))
            if check.inconclusive:
                row["numeric_cz"] = None
                row["agree"] = None
                row["note"] = check.note
                saw_inconclusive = True
            else:
                row["numeric_cz"] = _fraction_json(check.numeric)
                row["agree"] = check.agree
                if not check.agree:
                    status = EXIT_DISAGREEMENT
        rows.append(row)
    if status == EXIT_OK and saw_inconclusive:
        status = EXIT_INCONCLUSIVE
    return status, {
        "command": "spectrum",
        "d": args.d,
        "weights": rendered,
        "max_degree": args.max_degree,
        "orbits": rows,
    }


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
            yield f"{key}: {payload[key]}"


def _spectrum_csv(args, payload):
    columns = ["j", "n", "cz", "period_coeff"]
    if args.cross_check:
        columns += ["numeric_cz", "agree"]
    yield ",".join(columns)
    for row in payload["orbits"]:
        yield ",".join(str(row[c]) for c in columns)


def _spectrum_text(args, payload):
    for row in payload["orbits"]:
        extra = ""
        if "numeric_cz" in row:
            extra = f"  numeric={row['numeric_cz']} agree={row['agree']}"
        yield (f"gamma_{row['j']}^{row['n']}: cz={row['cz']} "
               f"period={row['period_coeff']}{extra}")


def _partition_text(args, payload):
    yield f"verdict: {payload['verdict']}"
    c = payload["collision"]
    if c is not None:
        yield (f"collision at {c['value']}: "
               f"set {c['first']['j']} (n={c['first']['n']}) vs "
               f"set {c['second']['j']} (n={c['second']['n']})")
    if payload["gap"] is not None:
        yield f"gap at {payload['gap']}"
    if "beta" in payload:
        yield f"beta: {payload['beta']}"


def _sh_csv(args, payload):
    dense = np.zeros((2, payload["max_degree"] + 1), dtype=np.int64)
    for counts, key in zip(dense, ("formula_degrees", "orbit_degrees")):
        counts[payload[key][:, 0]] = payload[key][:, 1]
    yield "degree,formula,orbits"
    yield from map("{},{},{}".format, range(dense.shape[1]), *dense.tolist())


def _sh_text(args, payload):
    yield f"verdict: {payload['verdict']}"
    diff = payload["first_difference"]
    if diff is not None:
        yield (f"first difference at degree {diff['degree']}: "
               f"formula={diff['formula']} orbits={diff['orbits']}")


_HANDLERS = {
    "cz": cmd_cz,
    "spectrum": cmd_spectrum,
    "partition": cmd_partition,
    "sh": cmd_sh,
}

# the formats besides json that each subcommand offers, in --format order
_VIEWS = {
    "cz": {"text": _cz_text},
    "spectrum": {"csv": _spectrum_csv, "text": _spectrum_text},
    "partition": {"text": _partition_text},
    "sh": {"csv": _sh_csv, "text": _sh_text},
}


_encode_str = json.encoder.encode_basestring_ascii


def _json(value, indent=2):
    """json.dumps(value, sort_keys=True, indent=indent), byte for byte.

    Strings, ints, bools and None are written here, lists and str-keyed
    dicts are joined here, and a non-empty 2-D int64 ndarray is written as
    the list of its rows with one row template.  Every other value (floats,
    NaN and the infinities, dicts with other keys, unserializable objects)
    goes to json.dumps itself and is re-indented.  The text goes to one list
    of pieces, joined once; a finished list or dict there becomes one piece
    unless it holds an ndarray's rows text, which is rendered once per
    object and indentation and only ever appended by reference.
    """
    out = []
    _render(value, "\n", " " * indent, {}, out)
    return "".join(out)


def _render(value, newline, step, memo, out):
    # appends value's text to out; True if it holds ndarray rows text.  memo
    # maps (id, newline) to rows text; newline is "\n" + value's indentation
    inner, start, held = newline + step, len(out), False
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        for sep, x in zip(chain(["[" + inner], repeat("," + inner)), value):
            out.append(sep)
            held = _render(x, inner, step, memo, out) or held
        out.append(newline + "]" if value else "[]")
    elif isinstance(value, np.ndarray) and value.dtype == np.int64 and value.ndim == 2:
        if not value.size:
            return _render(value.tolist(), newline, step, memo, out)
        key = (id(value), newline)
        if key not in memo:
            memo[key] = _int64_rows(value, inner, step)
        out += ("[" + inner, memo[key], newline + "]")
        return True
    elif isinstance(value, dict) and all(isinstance(k, str) for k in value):
        for sep, k in zip(chain(["{" + inner], repeat("," + inner)), sorted(value)):
            out += (sep, _encode_str(k), ": ")
            held = _render(value[k], inner, step, memo, out) or held
        out.append(newline + "}" if value else "{}")
    else:
        # a JSON string never holds a raw newline, so this re-indents safely
        out.append(json.dumps(value, sort_keys=True, indent=len(step)).replace("\n", newline))
    if not held and len(out) > start + 1:   # a finished container is one piece
        out[start:] = ["".join(out[start:])]
    return held


def _int64_rows(value, inner, step):
    """The rows of a non-empty 2-D int64 array, each a JSON list at
    indentation inner, joined by commas: one row template filled by one %."""
    deeper = inner + step
    row = "[" + deeper + ("," + deeper).join(["%d"] * value.shape[1]) + inner + "]"
    return ("," + inner).join([row] * len(value)) % tuple(value.ravel().tolist())


def _emit(args, payload):
    if args.format == "json":
        print(_json(payload))
        return
    for line in _VIEWS[args.command][args.format](args, payload):
        print(line)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status, payload = _HANDLERS[args.command](args)
        _emit(args, payload)
        sys.stdout.flush()
        return status
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
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


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
