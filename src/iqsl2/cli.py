"""Command-line interface: verification suites, tables, and expansion.

``iqsl2 verify <suite>`` runs one verification suite and exits zero iff
every check passed.  ``iqsl2 table`` emits the structure-constant table.
``iqsl2 expand`` prints a divided power or coproduct in a chosen
presentation.  All output uses the canonical coefficient grammar, so equal
elements serialize byte-identically.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .errors import IqslError
from .verify import (
    SUITES,
    emit_table,
    expand_comult,
    expand_idp,
    run_suite,
)

_FAMILIES = ("ev", "odd")
_WITNESS_STDOUT_LIMIT = 2000


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="iqsl2",
        description=(
            "Exact verification of divided-power multiplication and "
            "comultiplication formulas, structure-constant tables, and "
            "element expansion."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify",
        help="run a verification suite",
        description=(
            "Run one verification suite and print a per-check summary. "
            "Exit status is zero iff every check passed. For element-level "
            "suites --max replaces the default grid bound (subject to the "
            "IQSL2_MAX_N ceiling, default 24); for the qidentities suite "
            "the per-identity grids are fixed caps and --max can only "
            "shrink them."
        ),
    )
    p_verify.add_argument("suite", choices=SUITES, metavar="suite",
                          help="one of: " + ", ".join(SUITES))
    p_verify.add_argument("--max", type=int, default=None, metavar="N",
                          help="grid bound (default: per-suite)")
    p_verify.add_argument("--varsigma", choices=("generic", "q-inverse"),
                          default="generic",
                          help="coefficient mode (default: generic)")
    p_verify.add_argument("--json", metavar="PATH", default=None,
                          help="also write the full report as JSON")

    p_table = sub.add_parser(
        "table",
        help="emit the structure-constant table",
        description=(
            "Emit one family's multiplication structure constants for all "
            "m + n <= N as CSV or JSON."
        ),
    )
    p_table.add_argument("--family", choices=_FAMILIES, required=True)
    p_table.add_argument("--max", type=int, required=True, metavar="N",
                         help="maximum total degree m + n")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", metavar="PATH", default=None,
                         help="output file (default: stdout)")

    p_expand = sub.add_parser(
        "expand",
        help="print a divided power or coproduct",
        description=(
            "Serialize one element canonically. 'idp' prints a divided "
            "power (--basis B for the polynomial presentation, pbw for the "
            "normal form); 'comult' prints a coproduct (--form theorem for "
            "the closed formula, fhy for its reversed-order variant, direct "
            "for the coproduct of the normal form). Equal presentations "
            "serialize byte-identically."
        ),
    )
    p_expand.add_argument("kind", choices=("idp", "comult"))
    p_expand.add_argument("--family", choices=_FAMILIES, required=True)
    p_expand.add_argument("--n", type=int, required=True)
    p_expand.add_argument("--basis", choices=("B", "pbw"), default=None,
                          help="presentation for 'idp' (default: B)")
    p_expand.add_argument("--form", choices=("theorem", "fhy", "direct"),
                          default=None,
                          help="presentation for 'comult' (default: theorem)")
    return parser


def _print_report(report, out=None):
    """Print the summary of ``report`` and return whether it passed, from
    one walk over its checks."""
    out = out if out is not None else sys.stdout
    failures = report.failures()
    total = len(report.checks)
    params = ", ".join(f"{k}={v}" for k, v in report.parameters.items())
    print(
        f"suite {report.suite}: {total - len(failures)}/{total} checks passed "
        f"({params}) [{report.wall_time_s}s]",
        file=out,
    )
    for c in failures[:20]:
        witness = c.witness or ""
        if len(witness) > _WITNESS_STDOUT_LIMIT:
            witness = witness[:_WITNESS_STDOUT_LIMIT] + " ... (truncated; use --json for the full witness)"
        print(f"FAIL {c.id} {c.params}: {witness}", file=out)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures", file=out)
    print("FAIL" if failures else "PASS", file=out)
    return not failures


def _write_file(path, write, newline=None):
    """Open ``path`` as a text file and pass it to ``write``; an unwritable
    path is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _output_path(path):
    """Check that ``path`` (if any) opens for writing before the body runs,
    so that an unwritable path is a usage error before any work. Opening
    for appending leaves an existing file as it is; a file that the check
    created is removed again when the body raises."""
    if not path:
        yield
        return
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        yield
    except BaseException:
        if not existed:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _cmd_verify(args):
    mode = "specialized" if args.varsigma == "q-inverse" else "generic"
    with _output_path(args.json):
        report = run_suite(args.suite, args.max, mode)
        passed = _print_report(report)
        if args.json:
            _write_file(args.json, report.write_json)
    return 0 if passed else 1


def _cmd_table(args):
    with _output_path(args.out):
        text = emit_table(args.family, args.max, args.format)
        if args.out:
            _write_file(args.out, lambda fh: fh.write(text), newline="")
        else:
            sys.stdout.write(text)
    return 0


def _cmd_expand(args, parser):
    if args.kind == "idp":
        if args.form is not None:
            parser.error("--form applies only to 'expand comult'")
        text = expand_idp(args.family, args.n, args.basis or "B")
    else:
        if args.basis is not None:
            parser.error("--basis applies only to 'expand idp'")
        text = expand_comult(args.family, args.n, args.form or "theorem")
    print(text)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_expand(args, parser)
    except (IqslError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
