"""Command-line front end.

Commands: eval, transform, check, distribution, verify, enumerate.
Statistics are named by a small spec language:

  inv | maj | kmaj:<k> | fg:<f letters>:<g values, 'inf' allowed>
      | pair:<U.json>:<V.json> | setmaj          (sets via --sets JSON)

Exit codes: 0 success or verdict, 1 usage, argument or I/O error, 2 a
verifier found violations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import mahonian, qseries, relations, statistics, transform
from .words import Composition, Word, _decimal


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, since exit 2 means a verifier found
    violations; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_relation(path: str) -> relations.Relation:
    return relations.Relation.from_json_dict(_load_json(path))


def _int_option(text: str) -> int:
    """argparse type of the integer options: a canonical decimal, signed so
    that the suites, not the parser, refuse a negative size or weight."""
    try:
        return _decimal(text, "integer", signed=True)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _check_stat_alphabet(size: int) -> None:
    """Statistic alphabets share the cap of relation files."""
    cap = relations.JSON_SIZE_CAP
    if size > cap:
        raise UsageError(f"statistic alphabet of {size} letters is capped at {cap}")


def _parse_gmap(f_text: str, g_text: str) -> relations.GMap:
    f = tuple(_decimal(p, "f letter") for p in f_text.split())
    _check_stat_alphabet(len(f))
    g: list[int | float] = []
    for part in g_text.split(","):
        part = part.strip()
        g.append(relations.INF if part == "inf" else _decimal(part, "g value"))
    return relations.GMap(f, tuple(g))


def _parse_stat(
    spec: str, size: int | None, sets_json: str | None
) -> statistics.MajInvStatistic:
    """The MajInvStatistic behind the requested statistic name."""
    if spec == "inv" or spec == "maj" or spec.startswith("kmaj:"):
        if size is None:
            raise UsageError(f"--size is required for stat '{spec}'")
        _check_stat_alphabet(size)
        if spec == "inv":
            return statistics.inv_stat(size)
        if spec == "maj":
            return statistics.maj_stat(size)
        try:
            k = _decimal(spec.split(":", 1)[1], "k")
        except ValueError as exc:
            raise UsageError(f"bad kmaj spec '{spec}'") from exc
        return statistics.k_maj_stat(size, k)
    if spec.startswith("fg:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError("fg spec needs 'fg:<f letters>:<g values>'")
        return statistics.gmap_stat(_parse_gmap(parts[1], parts[2]))
    if spec.startswith("pair:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError("pair spec needs 'pair:<U.json>:<V.json>'")
        u = _load_relation(parts[1])
        v = _load_relation(parts[2])
        if u.size != v.size:
            raise UsageError("relation files use different alphabet sizes")
        return statistics.MajInvStatistic(u, v)
    if spec == "setmaj":
        if sets_json is None:
            raise UsageError("--sets is required for stat 'setmaj'")
        try:
            sets = json.loads(sets_json)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad --sets JSON: {exc}") from exc
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise UsageError("--sets must be a JSON list of integer lists")
        _check_stat_alphabet(len(sets))
        return statistics.set_maj_stat(
            [[relations.json_int(v, "--sets entry") for v in s] for s in sets]
        )
    raise UsageError(f"unknown stat spec '{spec}'")


def _cmd_eval(args) -> int:
    stat = _parse_stat(args.stat, args.size, args.sets)
    if args.size is not None and args.size != stat.size:
        raise UsageError(f"--size {args.size} conflicts with stat alphabet {stat.size}")
    value = stat.evaluate(Word.parse(args.word, stat.size))
    print(json.dumps({"value": value}) if args.json else value)
    return 0


def _cmd_transform(args) -> int:
    rel = _load_relation(args.relation)
    word = Word.parse(args.word, rel.size)
    image = (
        transform.psi_inverse(rel, word) if args.inverse else transform.psi(rel, word)
    )
    print(json.dumps({"word": image.text()}) if args.json else image.text())
    return 0


# check kind -> the deciding function of the relations module, looked up by
# name at call time so that a wrapper installed on the module is seen
CHECK_KINDS = {
    "transitive": "is_transitive",
    "total-order": "is_total_order",
    "bipartitional": "is_bipartitional",
    "kappa-extensible": "is_kappa_extensible",
    "kappa-extension": "is_kappa_extension",
}


def _cmd_check(args) -> int:
    decide = getattr(relations, CHECK_KINDS[args.kind])
    extra = {}
    if args.kind == "kappa-extension":
        if not args.u or not args.s:
            raise UsageError("check kappa-extension needs --u and --s")
        s = _load_relation(args.s)
        u = _load_relation(args.u)
        verdict = decide(s, u)
    else:
        if not args.relation:
            raise UsageError(f"check {args.kind} needs --relation")
        rel = _load_relation(args.relation)
        verdict = decide(rel)
        if args.kind == "bipartitional" and verdict:
            extra["bipartition"] = relations.extract_bipartition(rel).to_json_dict()
    if args.json:
        print(json.dumps({"verdict": verdict, **extra}))
    else:
        print("true" if verdict else "false")
        if "bipartition" in extra:
            print(json.dumps(extra["bipartition"]))
    return 0


def _cmd_distribution(args) -> int:
    comp = Composition.parse(args.composition)
    stat = _parse_stat(args.stat, comp.size, args.sets)
    if stat.size != comp.size:
        raise UsageError(
            f"stat alphabet [{stat.size}] does not match composition over [{comp.size}]"
        )
    poly = qseries.distribution(stat, comp)
    if args.json:
        print(json.dumps(poly.to_json_dict()))
    else:
        print(poly.text())
        print(json.dumps(poly.to_json_dict()))
    return 0


# suite -> (mahonian verifier, looked up at call time, and the options it reads)
VERIFY_SUITES = {
    "macmahon": ("verify_macmahon", ("size", "max_weight")),
    "theorem-majinv": ("verify_theorem_majinv", ("size", "max_weight")),
    "classification": ("verify_classification", ("size", "max_weight")),
    "distinctness": ("verify_distinctness", ("size", "max_len")),
    "closure": ("verify_kappa_machinery", ("size",)),
    "product-formula": ("verify_product_formula", ("size", "max_weight")),
    "applications": ("verify_applications", ("max_weight",)),
    "psi": ("verify_psi", ("size", "max_len")),
}


def _cmd_verify(args) -> int:
    verifier, options = VERIFY_SUITES[args.suite]
    if "size" in options and args.size < 1:
        raise UsageError(f"--size must be >= 1, got {args.size}")
    report = getattr(mahonian, verifier)(*(getattr(args, o) for o in options))
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.ok else 2


def _cmd_enumerate(args) -> int:
    order = _load_relation(args.order)
    entries = []
    for stat in mahonian.enumerate_mahonian_stats(order):
        m = relations.relation_to_gmap(stat.maj_relation, order)
        entries.append(
            {
                "u": stat.maj_relation.to_json_dict(),
                "v": stat.inv_relation.to_json_dict(),
                "f": list(m.f),
                "g": ["inf" if gy == relations.INF else gy for gy in m.g],
            }
        )
    if args.json:
        print(json.dumps({"statistics": entries}))
    else:
        for entry in entries:
            print(json.dumps(entry))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="majinv",
        description="Graphical maj/inv statistics on words: evaluation, "
        "transformation, relation checks, exact distributions and "
        "exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a statistic on a word")
    p.add_argument("--stat", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--size", type=_int_option)
    p.add_argument("--sets", help="JSON list of integer lists for setmaj")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("transform", help="apply the word transformation")
    p.add_argument("--relation", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("check", help="decide a relation property")
    p.add_argument("kind", choices=list(CHECK_KINDS))
    p.add_argument("--relation")
    p.add_argument("--u")
    p.add_argument("--s")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("distribution", help="distribution polynomial on a class")
    p.add_argument("--stat", required=True)
    p.add_argument("--composition", required=True)
    p.add_argument("--sets")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("suite", choices=list(VERIFY_SUITES))
    p.add_argument("--size", type=_int_option, default=3)
    p.add_argument("--max-weight", type=_int_option, default=4)
    p.add_argument("--max-len", type=_int_option, default=3)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="list the mahonian statistics of an order")
    p.add_argument("--order", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
