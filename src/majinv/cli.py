"""Command-line front end.

Commands: eval, transform, check, distribution, verify, enumerate.
Statistics are named by a small spec language:

  inv | maj | kmaj:<k> | fg:<f letters>:<g values, 'inf' allowed>
      | pair:<U.json>:<V.json> | setmaj          (sets via --sets JSON)

Exit codes: 0 success or verdict, 1 usage or I/O error, 2 a verifier found
violations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import mahonian, qseries, statistics, transform
from .relations import GMap, INF, Relation, is_bipartitional, extract_bipartition
from .words import Composition, Word


class UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_relation(path: str) -> Relation:
    return Relation.from_json_dict(_load_json(path))


def _parse_gmap(f_text: str, g_text: str) -> GMap:
    f = tuple(int(p) for p in f_text.split())
    g: list[int | float] = []
    for part in g_text.split(","):
        part = part.strip()
        g.append(INF if part == "inf" else int(part))
    return GMap(f, tuple(g))


def _parse_stat(spec: str, size: int | None, sets_json: str | None):
    """Return (evaluate, size, stat); stat is the MajInvStatistic behind the
    requested statistic name."""
    if spec == "inv" or spec == "maj" or spec.startswith("kmaj:"):
        if size is None:
            raise UsageError(f"--size is required for stat '{spec}'")
        if spec == "inv":
            stat = statistics.inv_stat(size)
        elif spec == "maj":
            stat = statistics.maj_stat(size)
        else:
            try:
                k = int(spec.split(":", 1)[1])
            except ValueError as exc:
                raise UsageError(f"bad kmaj spec '{spec}'") from exc
            stat = statistics.k_maj_stat(size, k)
        return stat.evaluate, size, stat
    if spec.startswith("fg:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError("fg spec needs 'fg:<f letters>:<g values>'")
        m = _parse_gmap(parts[1], parts[2])
        # direct formula for evaluation; the relation pair serves distributions
        return (lambda w: statistics.stat_fg(m, w)), m.size, statistics.gmap_stat(m)
    if spec.startswith("pair:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError("pair spec needs 'pair:<U.json>:<V.json>'")
        u = _load_relation(parts[1])
        v = _load_relation(parts[2])
        if u.size != v.size:
            raise UsageError("relation files use different alphabet sizes")
        stat = statistics.MajInvStatistic(u, v)
        return stat.evaluate, stat.size, stat
    if spec == "setmaj":
        if sets_json is None:
            raise UsageError("--sets is required for stat 'setmaj'")
        try:
            sets = json.loads(sets_json)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad --sets JSON: {exc}") from exc
        if not isinstance(sets, list) or not all(
            isinstance(s, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in s)
            for s in sets
        ):
            raise UsageError("--sets must be a JSON list of integer lists")
        stat = statistics.set_maj_stat(sets)
        return stat.evaluate, stat.size, stat
    raise UsageError(f"unknown stat spec '{spec}'")


def _cmd_eval(args) -> int:
    evaluate, size, _ = _parse_stat(args.stat, args.size, args.sets)
    if args.size is not None and args.size != size:
        raise UsageError(f"--size {args.size} conflicts with stat alphabet {size}")
    word = Word.parse(args.word, size)
    value = evaluate(word)
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


def _cmd_check(args) -> int:
    from . import relations as rel_mod

    if args.kind == "kappa-extension":
        if not args.u or not args.s:
            raise UsageError("check kappa-extension needs --u and --s")
        s = _load_relation(args.s)
        u = _load_relation(args.u)
        verdict = rel_mod.is_kappa_extension(s, u)
        extra = {}
    else:
        if not args.relation:
            raise UsageError(f"check {args.kind} needs --relation")
        rel = _load_relation(args.relation)
        kinds = {
            "transitive": rel_mod.is_transitive,
            "total-order": rel_mod.is_total_order,
            "bipartitional": is_bipartitional,
            "kappa-extensible": rel_mod.is_kappa_extensible,
        }
        verdict = kinds[args.kind](rel)
        extra = {}
        if args.kind == "bipartitional" and verdict:
            extra["bipartition"] = extract_bipartition(rel).to_json_dict()
    if args.json:
        print(json.dumps({"verdict": verdict, **extra}))
    else:
        print("true" if verdict else "false")
        if "bipartition" in extra:
            print(json.dumps(extra["bipartition"]))
    return 0


def _cmd_distribution(args) -> int:
    comp = Composition.parse(args.composition)
    _, size, stat = _parse_stat(args.stat, args.size or comp.size, args.sets)
    if size != comp.size:
        raise UsageError(
            f"stat alphabet [{size}] does not match composition over [{comp.size}]"
        )
    poly = qseries.distribution(stat, comp)
    if args.json:
        print(json.dumps(poly.to_json_dict()))
    else:
        print(poly.text())
        print(json.dumps(poly.to_json_dict()))
    return 0


def _cmd_verify(args) -> int:
    suites = {
        "macmahon": lambda: mahonian.verify_macmahon(args.size, args.max_weight),
        "theorem-majinv": lambda: mahonian.verify_theorem_majinv(
            args.size, args.max_weight
        ),
        "classification": lambda: mahonian.verify_classification(
            args.size, args.max_weight
        ),
        "distinctness": lambda: mahonian.verify_distinctness(args.size, args.max_len),
        "closure": lambda: mahonian.verify_kappa_machinery(args.size),
        "product-formula": lambda: mahonian.verify_product_formula(
            args.size, args.max_weight
        ),
        "applications": lambda: mahonian.verify_applications(args.max_weight),
    }
    report = suites[args.suite]()
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.ok else 2


def _cmd_enumerate(args) -> int:
    from .relations import relation_to_gmap

    order = _load_relation(args.order)
    entries = []
    for stat in mahonian.enumerate_mahonian_stats(order):
        m = relation_to_gmap(stat.maj_relation, order)
        entries.append(
            {
                "u": stat.maj_relation.to_json_dict(),
                "v": stat.inv_relation.to_json_dict(),
                "f": list(m.f),
                "g": ["inf" if gy == INF else gy for gy in m.g],
            }
        )
    if args.json:
        print(json.dumps({"statistics": entries}))
    else:
        for entry in entries:
            print(json.dumps(entry))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majinv",
        description="Graphical maj/inv statistics on words: evaluation, "
        "transformation, relation checks, exact distributions and "
        "exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a statistic on a word")
    p.add_argument("--stat", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--size", type=int)
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
    p.add_argument(
        "kind",
        choices=[
            "transitive",
            "total-order",
            "bipartitional",
            "kappa-extensible",
            "kappa-extension",
        ],
    )
    p.add_argument("--relation")
    p.add_argument("--u")
    p.add_argument("--s")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("distribution", help="distribution polynomial on a class")
    p.add_argument("--stat", required=True)
    p.add_argument("--composition", required=True)
    p.add_argument("--size", type=int)
    p.add_argument("--sets")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument(
        "suite",
        choices=[
            "macmahon",
            "theorem-majinv",
            "classification",
            "distinctness",
            "closure",
            "product-formula",
            "applications",
        ],
    )
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-len", type=int, default=3)
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
