"""Command line front end: gen, classify, table, hilbert.

Exit codes: 0 success, 2 argument or validation problems, 3 violated
mathematical preconditions (non-homogeneous generators, non-artinian
quotients, ideals with a degree-1 minimal generator).  Identical invocations
produce byte-identical output.  The Koszul layer is imported only by the
commands that classify (classify, table), and csv only for CSV output, so
gen and hilbert never load them.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from .errors import PreconditionError
from .fields import DEFAULT_CHAR, field_of_characteristic
from .ideals import Ideal, trim
from .pfaffians import (
    PfaffianFamily,
    TrimChoice,
    check_family_size,
    family_hilbert,
    gorenstein_ideal,
    selector_index,
    trimmed_ideal,
)
from .poly import parse_polynomial


class CliError(Exception):
    """Bad arguments detected after parsing; mapped to exit code 2."""


def _field(args):
    try:
        return field_of_characteristic(args.char)
    except ValueError as exc:
        raise CliError(str(exc))


def _integer(text: str, message: str) -> int:
    """int(text) in ASCII digits: int() alone also takes non-ASCII digits and
    `_` separators, which the selectors and the polynomial reader refuse."""
    if text.strip().isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(message)


def _positive_int(text: str) -> int:
    value = _integer(text, f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"m must be >= 1, got {value}")
    return value


def _m_range(text: str) -> tuple:
    lo, sep, hi = text.partition("..")
    bad = f"bad range {text!r}; expected N or A..B"
    a = _integer(lo, bad)
    b = _integer(hi, bad) if sep else a
    if a < 2 or b < a:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; need 2 <= A <= B")
    return (a, b)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--char", default=DEFAULT_CHAR,
                        type=lambda text: _integer(text, f"invalid int value: {text!r}"),
                        help="coefficient field characteristic; 0 means the rationals "
                             f"(default {DEFAULT_CHAR})")
    common.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        dest="output_format", help="output format (default json)")
    common.add_argument("--out", help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="gtrim",
        description="Pfaffian families of Gorenstein ideals in k[x,y,z], their trims, "
                    "Koszul homology and Tor-algebra classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common],
                           help="emit the m-th family instance (matrices, Pfaffians, generators)")
    p_gen.add_argument("--m", type=_positive_int, required=True)

    p_cls = sub.add_parser("classify", parents=[common],
                           help="classify a quotient: the family ideal, one of its trims, "
                                "or an ideal loaded from JSON")
    p_cls.add_argument("--m", type=_positive_int)
    p_cls.add_argument("--trim", metavar="SEL",
                       help="trim selector: x0 (x^m), y0 (y^m), d (d_m), xI or yI")
    p_cls.add_argument("--ideal", metavar="PATH",
                       help="JSON file bearing a \"generators\" list")

    p_tab = sub.add_parser("table", parents=[common],
                           help="classification table over every trim selector")
    p_tab.add_argument("--m", type=_m_range, required=True, metavar="A..B")

    p_hil = sub.add_parser("hilbert", parents=[common],
                           help="Hilbert function of the m-th family quotient")
    p_hil.add_argument("--m", type=_positive_int, required=True)

    return parser


def _json_block(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _kv_text(pairs) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def _csv_text(header, rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_gen(args) -> str:
    data = PfaffianFamily.build(args.m, _field(args)).to_json_dict()
    if args.output_format == "json":
        return _json_block(data)
    if args.output_format == "text":
        lines = [f"m = {data['m']}", f"d = {data['d']}", "U:"]
        lines += ["  " + "  ".join(row) for row in data["U"]]
        lines.append("V:")
        lines += ["  " + "  ".join(row) for row in data["V"]]
        lines.append("pfaffians: " + ", ".join(data["pfaffians"]))
        lines.append("generators: " + ", ".join(data["generators"]))
        return "\n".join(lines) + "\n"
    raise CliError("gen emits matrices; use --format json or text")


def _load_ideal(path: str, args) -> tuple:
    """The ideal a JSON file bears, and its generators as listed, zeros kept."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"bad JSON in {path}: {exc}")
    if not isinstance(data, dict) or "generators" not in data:
        raise CliError(f"{path} has no \"generators\" list")
    spec = data.get("field", {})
    if not isinstance(spec, dict):
        raise CliError(f"bad field in {path}: expected {{\"char\": N}}, got {spec!r}")
    char = spec.get("char")
    try:
        field = field_of_characteristic(char) if char is not None else _field(args)
    except ValueError as exc:
        raise CliError(f"bad field in {path}: {exc}")
    gens = data["generators"]
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise CliError(f"bad generators in {path}: expected a list of strings, got {gens!r}")
    try:
        listed = [parse_polynomial(s, field) for s in gens]
        return Ideal(listed, field), listed
    except PreconditionError:
        raise
    except ValueError as exc:
        raise CliError(f"bad generators in {path}: {exc}")


def _classify_target(args) -> Ideal:
    if (args.ideal is None) == (args.m is None):
        raise CliError("classify needs exactly one of --m or --ideal")
    if args.ideal is not None:
        ideal, listed = _load_ideal(args.ideal, args)
        if args.trim is None:
            return ideal
        count = len(listed)  # as the file lists them: a selector may land on a zero
        if count < 3 or count % 2 == 0:
            raise CliError(f"--trim needs an odd generator count >= 3, found {count}")
        try:
            k = selector_index(args.trim, (count - 1) // 2)
        except ValueError as exc:
            raise CliError(str(exc))
        if listed[k].is_zero():
            raise CliError("cannot trim a zero generator")
        return trim(ideal, sum(not g.is_zero() for g in listed[:k]))
    if args.trim is None:
        return gorenstein_ideal(args.m, _field(args))
    try:
        choice = TrimChoice(args.m, args.trim)
    except ValueError as exc:
        raise CliError(str(exc))
    return trimmed_ideal(choice, _field(args))


def _classified(ideal: Ideal, family=None) -> tuple:
    """The classify record of Q/ideal and its displayed class; the complex is
    freed on return.  A trim derives its homology from `family`, its family's complex."""
    from .koszul import KoszulComplex, report_dict

    kz = KoszulComplex(ideal.quotient_ring(), family)
    return report_dict(kz), kz.classify().display()


def cmd_classify(args) -> str:
    report, display = _classified(_classify_target(args))
    if args.output_format == "json":
        return _json_block(report)
    shown = {k: " ".join(map(str, v)) if isinstance(v, list) else v
             for k, v in report.items() if k != "class_params"}
    shown["class"] = display
    if args.output_format == "text":
        return _kv_text(shown.items())
    return _csv_text(list(shown), [list(shown.values())])


def cmd_table(args) -> str:
    lo, hi = args.m
    field = _field(args)
    check_family_size(hi)
    from .koszul import KoszulComplex

    rows = []
    for m in range(lo, hi + 1):
        family = gorenstein_ideal(m, field)  # every trim's ring is derived from its ring
        family_kz = KoszulComplex(family.quotient_ring())  # the trims derive their homology
        for index, g in enumerate(family.generators):
            report, display = _classified(trim(family, index), family_kz)
            rows.append({"m": m, "g": g.to_text(),
                         **{k: report[k] for k in ("mu", "type", "p", "q", "r")},
                         "class": display})
    if args.output_format == "json":
        return _json_block(rows)
    header = ["m", "g", "mu", "type", "p", "q", "r", "class"]
    if args.output_format == "csv":
        return _csv_text(header, [[row[k] for k in header] for row in rows])
    cells = [header] + [[str(row[k]) for k in header] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines) + "\n"


def cmd_hilbert(args) -> str:
    ideal = gorenstein_ideal(args.m, _field(args))
    computed = list(ideal.quotient_ring().hilbert().coefficients)
    closed = family_hilbert(args.m)
    data = {"m": args.m, "coefficients": computed, "closed_form": closed,
            "match": computed == closed}
    if args.output_format == "json":
        return _json_block(data)
    if args.output_format == "text":
        return _kv_text([("m", args.m),
                         ("coefficients", " ".join(map(str, computed))),
                         ("closed_form", " ".join(map(str, closed))),
                         ("match", data["match"])])
    rows = [[d, computed[d], closed[d]] for d in range(len(computed))]
    return _csv_text(["degree", "computed", "closed_form"], rows)


_COMMANDS = {"gen": cmd_gen, "classify": cmd_classify,
             "table": cmd_table, "hilbert": cmd_hilbert}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    created = False  # an --out file made by the probe below is removed on failure
    if args.out:
        try:  # refuse an unwritable path before any work
            created = not Path(args.out).exists()
            open(args.out, "a").close()
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    try:
        text = _COMMANDS[args.command](args)
    except (CliError, PreconditionError) as exc:
        if created:
            Path(args.out).unlink()
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CliError) else 3
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
