"""Command-line front end.

Every computation is exact: all numeric output is integers or fractions
rendered as num/den, never floating point.  Exit codes: 0 success, 1 usage
error, 2 mathematical error (any HeiscurveError: NonIntegerGenus,
SingularCurve, PointNotOnCurve, BadKernelPoint, NoUniqueJZeroCodomain,
ZeroHessian, NotASquare, UnsupportedFactorization, ModulusMismatch,
GroupAxiomFailure), 3
when `audit` finds any inconsistent signature claim (so a CI run can pin
the known discrepancies via an expected-verdicts file),
141, as for a process killed by SIGPIPE, when the reader of stdout closes
it early, and 130, as for a process killed by SIGINT, when it is
interrupted (Ctrl-C).  `group --op enumerate` and `audit` write their
output as it is produced, so their memory does not grow with it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from . import covers, elliptic, heisenberg, quadfield, words
from .errors import HeiscurveError, _int_at_least

USAGE_ERROR = 1
MATH_ERROR = 2
AUDIT_INCONSISTENT = 3
BROKEN_PIPE = 141  # 128 + SIGPIPE, the status of a process killed by it
INTERRUPTED = 130  # 128 + SIGINT
_BATCH = 64  # elements per write of a streamed JSON list


class CliError(Exception):
    def __init__(self, message, code=USAGE_ERROR):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message, USAGE_ERROR)


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError("bad rational %r" % (text,))


# p, [+-]qr or p(+|-)qr, where r stands for sqrt(d) and q may be left out
_QUADNUM = re.compile(
    r"(?P<p>[+-]?\d+(?:/\d+)?(?=[+-]|$))?(?:(?P<sign>[+-]?)(?P<q>\d+(?:/\d+)?)?r)?")


def _parse_quadnum(text, d):
    """Parse p + q*sqrt(d) written 'p', 'qr' or 'p+qr', with r for sqrt(d).

    p and q are integers or fractions n/m.  A bare 'qr' is q*sqrt(d), so
    '12r' is 12*sqrt(d), and a sign may lead it ('-12r'); after a rational
    part the r term needs its sign ('2160-2160r').  q = 1 may be left out:
    'r', '-r', '12+r'.  Spaces are ignored.
    """
    text = text.strip().replace(" ", "")
    m = _QUADNUM.fullmatch(text)
    if not text or not m:
        raise CliError("bad field element %r (use e.g. '2160-2160r')" % (text,))
    p = _parse_fraction(m.group("p")) if m.group("p") else Fraction(0)
    if m.group("sign") is None:  # no r term
        q = Fraction(0)
    else:
        q = _parse_fraction(m.group("q")) if m.group("q") else Fraction(1)
        if m.group("sign") == "-":
            q = -q
    return quadfield.QuadNum(p, q, d)


def _parse_ints(text, flag, form):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise CliError("%s must be %s, got %r" % (flag, form, text))


def _parse_triple(text, n, flag):
    form = "three comma-separated integers x,y,z"
    values = _parse_ints(text, flag, form)
    if len(values) != 3:
        raise CliError("%s must be %s, got %r" % (flag, form, text))
    return heisenberg.HeisenbergElement(n, *values)


def _emit(fmt, payload, text):
    """Print payload() as JSON or text() as plain text; only the requested
    rendering is built."""
    if fmt == "json":
        print(json.dumps(payload(), sort_keys=True))
    else:
        print(text())


def _stream(fmt, items, line, element, head=None):
    """Write items as they are produced: line(item) per line as text, or
    as JSON the list of element(item), bare or as the "elements" entry of
    the dict head.  The JSON bytes equal those of _emit on the whole list.
    Nothing is written before the first item arrives, so an error raised
    by producing it is reported on a clean stdout."""
    write = sys.stdout.write
    if fmt != "json":
        for item in items:
            write(line(item) + "\n")
        return
    document = json.dumps([] if head is None else dict(head, elements=[]),
                          sort_keys=True)
    before, after = document.split("[]")
    encode = json.JSONEncoder(sort_keys=True).encode
    # A list encodes as "[" + ", ".join(encoded elements) + "]", so a batch
    # without its brackets is a run of the elements.  Batches spread the
    # encoder's per-call cost over _BATCH elements.
    items = iter(items)
    sep = before + "["
    for batch in iter(lambda: list(islice(items, _BATCH)), []):
        write(sep + encode([element(item) for item in batch])[1:-1])
        sep = ", "
    if sep != ", ":  # no items, so the opening is still unwritten
        write(sep)
    write("]" + after + "\n")


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser():
    parser = _Parser(prog="heiscurve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="Heisenberg group element operations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--op", required=True,
                   choices=("mul", "pow", "order", "abelianize", "enumerate"))
    p.add_argument("--element", help="x,y,z")
    p.add_argument("--other", help="x,y,z (for mul)")
    p.add_argument("--exp", type=int, help="exponent (for pow)")
    _add_common(p)

    p = sub.add_parser("word", help="free-group word evaluation and lifting")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eval", dest="eval_word", help="word like 'abAB' or 'a^3bA^2'")
    mode.add_argument("--kernel", help="word to test for kernel membership")
    mode.add_argument("--lift", choices=sorted(words.S3_ENDOS),
                      help="test whether the endomorphism lifts")
    mode.add_argument("--nielsen", choices=sorted(words.S3_ENDOS),
                      help="commutator conjugacy witness for the endomorphism")
    _add_common(p)

    p = sub.add_parser("genus", help="genus formulas and Riemann-Hurwitz")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fermat", type=int)
    mode.add_argument("--heisenberg", type=int)
    mode.add_argument("--rh", action="store_true")
    p.add_argument("--base-genus", type=int, help="for --rh (default 0)")
    p.add_argument("--order", type=int)
    p.add_argument("--indices", help="comma-separated ramification indices")
    _add_common(p)

    p = sub.add_parser("audit", help="audit every recorded signature claim")
    p.add_argument("--n-max", type=int, default=12, help="largest n audited")
    _add_common(p)

    p = sub.add_parser("c3", help="full degree-3 isogeny derivation")
    p.add_argument("--d", type=int, default=quadfield.DEFAULT_D)
    _add_common(p)

    p = sub.add_parser("torsion", help="field-rational 3-torsion of a curve")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--d", type=int, default=quadfield.DEFAULT_D)
    _add_common(p)

    p = sub.add_parser("isogeny", help="3-isogeny codomain from a kernel point")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--d", type=int, default=quadfield.DEFAULT_D)
    _add_common(p)

    p = sub.add_parser("j", help="j-invariant of a curve")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--d", type=int, default=quadfield.DEFAULT_D)
    _add_common(p)

    return parser


def _reject_unread(args, dests, mode):
    """A usage error naming each flag of dests that was given, as mode
    does not read it."""
    given = ["--" + dest.replace("_", "-") for dest in dests
             if getattr(args, dest) is not None]
    if given:
        raise CliError("%s does not read %s" % (mode, ", ".join(given)))


# the flags of `group` that each op leaves unread
_GROUP_UNREAD = {
    "mul": ("exp",),
    "pow": ("other",),
    "order": ("other", "exp"),
    "abelianize": ("other", "exp"),
    "enumerate": ("element", "other", "exp"),
}


def _run_group(args):
    n, fmt = args.n, args.format
    _reject_unread(args, _GROUP_UNREAD[args.op], "--op " + args.op)
    if args.op == "enumerate":
        _stream(fmt, heisenberg.enumerate_group(n), str,
                lambda g: [g.x, g.y, g.z], head={"n": n, "count": n**3})
        return 0
    if not args.element:
        raise CliError("--element is required for op %r" % args.op)
    g = _parse_triple(args.element, n, "--element")
    if args.op == "mul":
        if not args.other:
            raise CliError("--other is required for mul")
        result = g * _parse_triple(args.other, n, "--other")
    elif args.op == "pow":
        if args.exp is None:
            raise CliError("--exp is required for pow")
        result = g ** args.exp
    elif args.op == "order":
        order = g.order()
        _emit(fmt, lambda: {"n": n, "order": order}, lambda: str(order))
        return 0
    else:  # abelianize
        image = g.abelianize()
        _emit(fmt, lambda: {"n": n, "image": list(image)}, lambda: str(image))
        return 0
    _emit(fmt, lambda: {"n": n, "result": [result.x, result.y, result.z]},
          lambda: str(result))
    return 0


def _run_word(args):
    n, fmt = args.n, args.format
    _int_at_least(n, 1)  # for every mode, --nielsen too, which reads no n
    if args.lift:
        endo = words.S3_ENDOS[args.lift]
        lifts = words.lifts_to_heisenberg_cover(endo, n)
        _emit(fmt, lambda: {"endomorphism": args.lift, "n": n, "lifts": lifts},
              lambda: "lifts" if lifts else "does not lift")
        return 0
    if args.nielsen:
        endo = words.S3_ENDOS[args.nielsen]
        witness = words.commutator_conjugacy_witness(endo)
        if witness is None:
            _emit(fmt, lambda: {"endomorphism": args.nielsen, "conjugate": False},
                  lambda: "no conjugacy witness")
        else:
            conj, sign = witness
            _emit(fmt,
                  lambda: {"endomorphism": args.nielsen, "conjugate": True,
                           "T": str(conj), "sign": sign},
                  lambda: "T = %s, sign = %+d" % (conj, sign))
        return 0
    if args.kernel is not None:
        w = words.Word.from_str(args.kernel)
        in_phi = words.in_heisenberg_kernel(w, n)
        in_psi = words.in_abelianized_kernel(w, n)
        _emit(fmt,
              lambda: {"word": str(w), "n": n, "in_heisenberg_kernel": in_phi,
                       "in_abelianized_kernel": in_psi},
              lambda: "heisenberg kernel: %s, abelianized kernel: %s"
              % (in_phi, in_psi))
        return 0
    w = words.Word.from_str(args.eval_word)  # --eval, the one mode left
    g = words.eval_in_heisenberg(w, n)
    ab = words.eval_in_abelianization(w, n)
    _emit(fmt,
          lambda: {"word": str(w), "n": n, "heisenberg": [g.x, g.y, g.z],
                   "abelianization": list(ab)},
          lambda: "in H_n: %s; abelianized: %s" % (g, ab))
    return 0


def _run_genus(args):
    fmt = args.format
    if not args.rh:
        _reject_unread(args, ("base_genus", "order", "indices"),
                       "--fermat" if args.fermat is not None else "--heisenberg")
    if args.fermat is not None:
        g = covers.fermat_genus(args.fermat)
        _emit(fmt, lambda: {"curve": "fermat", "n": args.fermat, "genus": g},
              lambda: str(g))
        return 0
    if args.heisenberg is not None:
        g = covers.heisenberg_genus(args.heisenberg)
        _emit(fmt,
              lambda: {"curve": "heisenberg", "n": args.heisenberg, "genus": g},
              lambda: str(g))
        return 0
    # --rh, the one mode left
    if args.order is None:
        raise CliError("--order is required for --rh")
    indices = _parse_ints(
        args.indices, "--indices",
        "comma-separated integers") if args.indices else ()
    base_genus = 0 if args.base_genus is None else args.base_genus
    data = covers.RamificationData(base_genus, args.order, indices)
    g = covers.rh_genus(data)
    _emit(fmt,
          lambda: {"base_genus": base_genus, "order": args.order,
                   "indices": list(indices), "genus": g},
          lambda: str(g))
    return 0


def _audit_line(v):
    status = "consistent  " if v.consistent else "INCONSISTENT"
    return ("%s  signature=%s order=%d expected_genus=%d computed=%s  %s"
            % (status, v.signature, v.order, v.expected_genus,
               v.computed_genus, v.claim))


def _run_audit(args):
    consistent = True

    def verdicts():
        nonlocal consistent
        for v in covers._signature_verdicts(args.n_max):
            consistent = consistent and v.consistent
            yield v

    _stream(args.format, verdicts(), _audit_line, covers.Verdict.to_json_dict)
    return 0 if consistent else AUDIT_INCONSISTENT


def _run_c3(args):
    report = elliptic.derive_isogenous_curves(args.d)
    _emit(args.format, report.to_json_dict, report.to_text)
    return 0


def _curve_from_args(args):
    a = _parse_quadnum(args.A, args.d)
    b = _parse_quadnum(args.B, args.d)
    return elliptic.Curve(a, b)


def _torsion_text(torsion):
    text = "\n".join(str(p) for p in torsion.points) or "(no field-rational points)"
    return text + "\n%d point(s) including the identity" % torsion.count_with_identity()


def _run_torsion(args):
    curve = _curve_from_args(args)
    torsion = elliptic.three_torsion(curve)
    _emit(args.format,
          lambda: {
              "curve": curve.to_json_dict(),
              "points": [{"x": p.x.to_json_dict(), "y": p.y.to_json_dict()}
                         for p in torsion.points],
              "missing_y": torsion.missing_y,
              "missing_x": torsion.missing_x,
              "count_with_identity": torsion.count_with_identity(),
          },
          lambda: _torsion_text(torsion))
    return 0


def _run_isogeny(args):
    curve = _curve_from_args(args)
    p = curve.point(_parse_quadnum(args.x, args.d), _parse_quadnum(args.y, args.d))
    codomain = elliptic.velu3(curve, p)
    _emit(args.format,
          lambda: {"domain": curve.to_json_dict(),
                   "codomain": codomain.to_json_dict(),
                   "j": elliptic.j_invariant(codomain).to_json_dict()},
          lambda: str(codomain))
    return 0


def _run_j(args):
    curve = _curve_from_args(args)
    j = elliptic.j_invariant(curve)
    _emit(args.format,
          lambda: {"curve": curve.to_json_dict(), "j": j.to_json_dict()},
          lambda: str(j))
    return 0


_DISPATCH = {
    "group": _run_group,
    "word": _run_word,
    "genus": _run_genus,
    "audit": _run_audit,
    "c3": _run_c3,
    "torsion": _run_torsion,
    "isogeny": _run_isogeny,
    "j": _run_j,
}

# read by the benchmark's worker, which counts these errors as failed jobs
_MATH_ERRORS = (HeiscurveError,)


def _report(args, exc, prefix, code):
    """Report exc and return code: one JSON line {"error", "message"} on
    stdout when the parsed command asked for --format json, else
    'prefix: message' on stderr."""
    if args is not None and args.format == "json":
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
    else:
        print("%s: %s" % (prefix, exc), file=sys.stderr)
    return code


def main(argv=None):
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except CliError as exc:
        return _report(args, exc, "error", exc.code)
    except HeiscurveError as exc:
        return _report(args, exc, "math error", MATH_ERROR)
    except ValueError as exc:
        return _report(args, exc, "error", USAGE_ERROR)


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (e.g. `| head`).  Point stdout at
        # /dev/null so the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = BROKEN_PIPE
    except KeyboardInterrupt:
        code = INTERRUPTED
    sys.exit(code)


if __name__ == "__main__":
    entry()
