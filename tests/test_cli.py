import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from majinv.cli import VERIFY_SUITES, main
from majinv import (
    INF,
    GMap,
    Word,
    gmap_stat,
    inv_stat,
    k_maj_stat,
    maj_stat,
)
from majinv.qseries import BYTE_BUDGET
from majinv.relations import JSON_SIZE_CAP, Relation, natural_order
from majinv.words import Composition, class_size


@pytest.fixture()
def relation_files(tmp_path):
    def write(name, size, pairs):
        path = tmp_path / name
        path.write_text(json.dumps({"size": size, "pairs": pairs}))
        return str(path)

    return {
        "gt2": write("gt2.json", 2, [[2, 1]]),
        "gt3": write("gt3.json", 3, [[2, 1], [3, 1], [3, 2]]),
        "empty3": write("empty3.json", 3, []),
        "chain": write("chain.json", 3, [[1, 2], [2, 3]]),
        "ex_u": write("ex_u.json", 3, [[1, 2]]),
        "ex_s": write("ex_s.json", 3, [[1, 2], [1, 3]]),
        "notorder": write("notorder.json", 3, [[1, 2], [2, 1]]),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_maj(capsys):
    code, out, _ = run(capsys, "eval", "--stat", "maj", "--word", "3 1 2", "--size", "3")
    assert code == 0 and out.strip() == "1"


def test_eval_setmaj_worked_example(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--stat",
        "setmaj",
        "--sets",
        "[[3,9],[2],[1,4,8],[7],[5,6]]",
        "--word",
        "1 2 3 4 5",
    )
    assert code == 0 and out.strip() == "7"


def test_eval_empty_word(capsys):
    code, out, _ = run(capsys, "eval", "--stat", "kmaj:1", "--word", "", "--size", "3")
    assert code == 0 and out.strip() == "0"


def test_eval_fg_spec(capsys):
    code, out, _ = run(
        capsys, "eval", "--stat", "fg:1 2 3:2,3,inf", "--word", "3 1 2"
    )
    assert code == 0 and out.strip() == "1"  # successor g-map gives maj


def test_eval_pair_spec(capsys, relation_files):
    spec = f"pair:{relation_files['gt3']}:{relation_files['empty3']}"
    code, out, _ = run(capsys, "eval", "--stat", spec, "--word", "3 1 2")
    assert code == 0 and out.strip() == "1"  # (natural order, empty) is maj


def test_distribution_fg_spec(capsys):
    code, out, _ = run(
        capsys,
        "distribution",
        "--stat",
        "fg:1 2 3:inf,inf,inf",
        "--composition",
        "1,1,1",
        "--json",
    )
    assert code == 0 and json.loads(out) == {"coeffs": [1, 2, 2, 1]}


def test_eval_requires_size(capsys):
    code, _, err = run(capsys, "eval", "--stat", "inv", "--word", "1 2")
    assert code == 1 and "size" in err


def test_eval_json_flag(capsys):
    code, out, _ = run(
        capsys, "eval", "--stat", "inv", "--word", "2 1", "--size", "2", "--json"
    )
    assert code == 0 and json.loads(out) == {"value": 1}


def test_transform_and_inverse(capsys, relation_files):
    code, out, _ = run(
        capsys, "transform", "--relation", relation_files["gt3"], "--word", "3 1 2"
    )
    assert code == 0 and out.strip() == "1 3 2"
    code, out, _ = run(
        capsys,
        "transform",
        "--relation",
        relation_files["gt3"],
        "--word",
        "1 3 2",
        "--inverse",
    )
    assert code == 0 and out.strip() == "3 1 2"
    code, out, _ = run(
        capsys, "transform", "--relation", relation_files["empty3"], "--word", "2 1"
    )
    assert code == 0 and out.strip() == "2 1"


def test_transform_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "transform", "--relation", str(bad), "--word", "1")
    assert code == 1 and "bad.json" in err


def test_check_bipartitional_with_witness(capsys, relation_files):
    code, out, _ = run(capsys, "check", "bipartitional", "--relation", relation_files["gt3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "true"
    witness = json.loads(lines[1])
    assert witness == {"blocks": [[3], [2], [1]], "betas": [0, 0, 0]}


def test_check_kappa_extensible_false_still_exits_zero(capsys, relation_files):
    code, out, _ = run(
        capsys, "check", "kappa-extensible", "--relation", relation_files["chain"]
    )
    assert code == 0 and out.strip() == "false"


def test_check_kappa_extension(capsys, relation_files):
    code, out, _ = run(
        capsys,
        "check",
        "kappa-extension",
        "--u",
        relation_files["ex_u"],
        "--s",
        relation_files["ex_s"],
    )
    assert code == 0 and out.strip() == "true"
    code, _, err = run(capsys, "check", "kappa-extension", "--u", relation_files["ex_u"])
    assert code == 1 and "--s" in err


def test_check_json_flag(capsys, relation_files):
    code, out, _ = run(
        capsys, "check", "transitive", "--relation", relation_files["chain"], "--json"
    )
    assert code == 0 and json.loads(out) == {"verdict": False}


def test_distribution_inv(capsys):
    code, out, _ = run(capsys, "distribution", "--stat", "inv", "--composition", "1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 + 2*q + 2*q^2 + q^3"
    assert json.loads(lines[1]) == {"coeffs": [1, 2, 2, 1]}


def test_distribution_trivial_class(capsys):
    code, out, _ = run(capsys, "distribution", "--stat", "maj", "--composition", "0,0")
    assert code == 0 and out.strip().splitlines()[0] == "1"


def test_distribution_kmaj_matches_q_multinomial(capsys):
    code, out, _ = run(
        capsys, "distribution", "--stat", "kmaj:2", "--composition", "1,1,1", "--json"
    )
    assert code == 0 and json.loads(out) == {"coeffs": [1, 2, 2, 1]}


def test_distribution_setmaj_factorial(capsys):
    code, out, _ = run(
        capsys,
        "distribution",
        "--stat",
        "setmaj",
        "--sets",
        "[[3,9],[2],[1,4,8],[7]]",
        "--composition",
        "1,1,1,1",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"coeffs": [1, 3, 5, 6, 5, 3, 1]}  # [4]_q!


def test_bad_stat_specs(capsys):
    code, _, err = run(capsys, "eval", "--stat", "kmaj:x", "--word", "1", "--size", "2")
    assert code == 1 and "kmaj" in err
    code, _, err = run(capsys, "eval", "--stat", "median", "--word", "1", "--size", "2")
    assert code == 1 and "unknown" in err
    code, _, err = run(capsys, "eval", "--stat", "setmaj", "--word", "1")
    assert code == 1 and "--sets" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--word", "1", "--size", "2"],  # missing --stat
        ["verify", "nosuch"],
        ["verify", "macmahon", "--size", "x"],
        ["eval", "--stat", "maj", "--word", "1", "--size", "2", "--bogus"],
        ["distribution", "--stat", "inv", "--composition", "1,1", "--size", "2"],
    ],
)
def test_usage_errors_exit_1_not_the_violation_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert "error:" in captured.err and captured.out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "--composition" in out and "--size" not in out


def test_distribution_size_mismatch(capsys, relation_files):
    spec = f"pair:{relation_files['gt2']}:{relation_files['gt2']}"
    code, _, err = run(
        capsys, "distribution", "--stat", spec, "--composition", "1,1,1"
    )
    assert code == 1 and "match" in err


def test_verify_macmahon(capsys):
    code, out, _ = run(
        capsys, "verify", "macmahon", "--size", "3", "--max-weight", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["checked"] == 56


def test_verify_theorem_majinv_r2(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem-majinv", "--size", "2", "--max-weight", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["checked"] == 256 and report["violations"] == []


def test_verify_classification_r2(capsys):
    code, out, _ = run(
        capsys, "verify", "classification", "--size", "2", "--max-weight", "4"
    )
    assert code == 0
    assert json.loads(out)["witnesses"]["mahonian_pairs"] == 4


def test_verify_classification_r3_reports_cyclic_splits(capsys):
    # the r=3 sweep finds the six cyclic-split statistics beyond the
    # order-based classification, so the verifier signals violations
    code, out, _ = run(
        capsys, "verify", "classification", "--size", "3", "--max-weight", "4"
    )
    assert code == 2
    report = json.loads(out)
    assert report["witnesses"]["mahonian_pairs"] == 42


def test_verify_remaining_suites_run_clean(capsys):
    for argv in (
        ["verify", "distinctness", "--size", "2", "--max-len", "3"],
        ["verify", "closure", "--size", "2"],
        ["verify", "product-formula", "--size", "2", "--max-weight", "4"],
        ["verify", "applications", "--max-weight", "3"],
    ):
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert code == 0 and report["violations"] == [], argv


def test_verify_pair_sweeps_refuse_vacuous_weights(capsys):
    for suite in ("theorem-majinv", "classification"):
        for weight in ("-1", "0", "1"):
            code, out, err = run(
                capsys, "verify", suite, "--size", "2", "--max-weight", weight
            )
            assert code == 1 and out == "", (suite, weight)
            assert err.startswith("error:") and "vacuous" in err, (suite, weight)


def test_verify_size_cap(capsys):
    code, _, err = run(capsys, "verify", "theorem-majinv", "--size", "4")
    assert code == 1 and "capped" in err


def test_verify_psi_runs_at_size_4_and_is_capped_there(capsys):
    # psi walks 2**(r*r) relations, not pairs, so it shares the cap of 4
    code, out, _ = run(capsys, "verify", "psi", "--size", "4", "--max-len", "4")
    report = json.loads(out)
    assert code == 0 and report["violations"] == []
    assert report["witnesses"]["kappa_extension_pairs"] == 180715
    code, out, err = run(capsys, "verify", "psi", "--size", "5", "--max-len", "1")
    assert code == 1 and out == "" and "capped at 4" in err


def test_verify_pair_sweep_at_size_1_refuses_a_large_weight_quickly(capsys):
    # the tabled letters grow as W**2 at size 1, and nothing else binds there
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "theorem-majinv", "--size", "1", "--max-weight", "8000"
    )
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error:") and "budget" in err


@pytest.mark.parametrize(
    "suite", sorted(s for s, (_, options) in VERIFY_SUITES.items() if "size" in options)
)
def test_verify_refuses_sizes_below_one(capsys, suite):
    for size in ("0", "-1"):
        code, out, err = run(capsys, "verify", suite, "--size", size)
        assert code == 1 and out == "", size
        assert err.startswith("error:") and "--size" in err, size


def test_statistic_alphabets_are_capped_before_building(capsys):
    def argvs(n):
        fg = f"fg:{' '.join(map(str, range(1, n + 1)))}:{','.join(['inf'] * n)}"
        sets = json.dumps([[x] for x in range(1, n + 1)])
        composition = ",".join(["0"] * (n - 1) + ["1"])
        return [
            *(
                ["eval", "--stat", s, "--size", str(n), "--word", "1"]
                for s in ("inv", "maj", "kmaj:2")
            ),
            ["eval", "--stat", fg, "--word", "1"],
            ["eval", "--stat", "setmaj", "--sets", sets, "--word", "1"],
            ["distribution", "--stat", "inv", "--composition", composition],
        ]

    for argv in argvs(JSON_SIZE_CAP):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv[:3]
    for argv in argvs(JSON_SIZE_CAP + 1):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv[:3]
        assert err.startswith("error:") and "capped" in err, argv[:3]


def test_verify_distinctness_refuses_word_lists_beyond_the_memory_budget(capsys):
    # listing the words up to length 16 over [3] would take about 9.6 GB
    for length in ("16", str(10**9)):
        code, out, err = run(
            capsys, "verify", "distinctness", "--size", "3", "--max-len", length
        )
        assert code == 1 and out == "", length
        assert err.startswith("error:") and "budget" in err, length


def test_verify_pair_sweep_refuses_tables_beyond_the_memory_budget(capsys):
    # weight 12 over [3] needs three 2.2 GB tables; it is refused before any
    # stage runs, while weight 5 still certifies
    for weight in ("12", str(10**9)):
        code, out, err = run(
            capsys, "verify", "theorem-majinv", "--size", "3", "--max-weight", weight
        )
        assert code == 1 and out == "", weight
        assert err.startswith("error:") and "budget" in err, weight
    code, out, _ = run(
        capsys, "verify", "theorem-majinv", "--size", "3", "--max-weight", "5"
    )
    assert code == 0 and json.loads(out)["witnesses"]["max_weight"] == 5


# Reports of the eight suites at small sizes, elapsed_ms left out, as they
# were before the verifiers shared their checks, stopwatch and class list (psi:
# before its cube check).
GOLDEN_REPORTS = [
    (
        ["theorem-majinv", "--size", "2", "--max-weight", "3"],
        0,
        {
            "checked": 256,
            "violations": [],
            "witnesses": {
                "equidistributed_pairs": 43,
                "kappa_extension_pairs": 43,
                "max_weight": 3,
                "survivors_by_weight": {"2": 81, "3": 43},
                "scored_by_weight": {"2": 144, "3": 81},
            },
        },
    ),
    (
        ["classification", "--size", "2", "--max-weight", "3"],
        0,
        {
            "checked": 256,
            "violations": [],
            "witnesses": {
                "expected_count": 4,
                "mahonian_pairs": 4,
                "max_weight": 3,
                "survivors_by_weight": {"2": 4, "3": 4},
                "scored_by_weight": {"2": 16, "3": 4},
            },
        },
    ),
    (
        ["classification", "--size", "3", "--max-weight", "3"],
        2,
        {
            "checked": 262144,
            "violations": [
                {
                    "u": {"size": 3, "pairs": [[1, 2]]},
                    "v": {"size": 3, "pairs": [[2, 3], [3, 1]]},
                    "mahonian": True,
                    "classified": False,
                },
                {
                    "u": {"size": 3, "pairs": [[1, 3]]},
                    "v": {"size": 3, "pairs": [[2, 1], [3, 2]]},
                    "mahonian": True,
                    "classified": False,
                },
                {
                    "u": {"size": 3, "pairs": [[2, 1]]},
                    "v": {"size": 3, "pairs": [[1, 3], [3, 2]]},
                    "mahonian": True,
                    "classified": False,
                },
                {
                    "u": {"size": 3, "pairs": [[2, 3]]},
                    "v": {"size": 3, "pairs": [[1, 2], [3, 1]]},
                    "mahonian": True,
                    "classified": False,
                },
                {
                    "u": {"size": 3, "pairs": [[3, 1]]},
                    "v": {"size": 3, "pairs": [[1, 2], [2, 3]]},
                    "mahonian": True,
                    "classified": False,
                },
                {
                    "u": {"size": 3, "pairs": [[3, 2]]},
                    "v": {"size": 3, "pairs": [[1, 3], [2, 1]]},
                    "mahonian": True,
                    "classified": False,
                },
                {"count": 42, "expected_count": 36},
            ],
            "witnesses": {
                "expected_count": 36,
                "mahonian_pairs": 42,
                "max_weight": 3,
                "survivors_by_weight": {"2": 64, "3": 42},
                "scored_by_weight": {"2": 0, "3": 64},
            },
        },
    ),
    (
        ["closure", "--size", "2"],
        0,
        {
            "checked": 18,
            "violations": [],
            "witnesses": {"bipartitional": 10, "kappa_extensible": 12},
        },
    ),
    (
        ["distinctness", "--size", "2", "--max-len", "3"],
        0,
        {
            "checked": 6,
            "violations": [],
            "witnesses": {
                "first_separators": {
                    "0,1": "1 2 2",
                    "0,2": "1 2",
                    "0,3": "1 2",
                    "1,2": "1 2",
                    "1,3": "1 2",
                    "2,3": "1 2 1",
                },
                "statistics": [
                    {"u": {"size": 2, "pairs": [[1, 2]]}, "v": {"size": 2, "pairs": []}},
                    {"u": {"size": 2, "pairs": []}, "v": {"size": 2, "pairs": [[1, 2]]}},
                    {"u": {"size": 2, "pairs": [[2, 1]]}, "v": {"size": 2, "pairs": []}},
                    {"u": {"size": 2, "pairs": []}, "v": {"size": 2, "pairs": [[2, 1]]}},
                ],
            },
        },
    ),
    (
        ["product-formula", "--size", "2", "--max-weight", "3"],
        0,
        {
            "checked": 120,
            "violations": [],
            "witnesses": {"kappa_extensible": 12, "max_weight": 3},
        },
    ),
    (
        ["psi", "--size", "2", "--max-len", "4"],
        0,
        {
            "checked": 55,
            "violations": [],
            "witnesses": {
                "kappa_extensible": 12,
                "kappa_extension_pairs": 43,
                "words": 31,
                "max_len": 4,
            },
        },
    ),
    (
        ["macmahon", "--size", "3", "--max-weight", "4"],
        0,
        {"checked": 35, "violations": [], "witnesses": {"max_weight": 4}},
    ),
    (
        ["applications", "--max-weight", "2"],
        0,
        {
            "checked": 4120,
            "violations": [],
            "witnesses": {"alphabet": 4, "max_weight": 2},
        },
    ),
]


@pytest.mark.parametrize(
    "argv, exit_code, expected",
    GOLDEN_REPORTS,
    ids=[" ".join(argv) for argv, _, _ in GOLDEN_REPORTS],
)
def test_verify_reports_match_golden(capsys, argv, exit_code, expected):
    code, out, _ = run(capsys, "verify", *argv)
    report = json.loads(out)
    assert isinstance(report.pop("elapsed_ms"), int)
    assert code == exit_code
    assert report == expected


def test_enumerate(capsys, relation_files):
    code, out, _ = run(capsys, "enumerate", "--order", relation_files["gt2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert set(first) == {"u", "v", "f", "g"}
    code, out, _ = run(capsys, "enumerate", "--order", relation_files["gt3"], "--json")
    assert code == 0 and len(json.loads(out)["statistics"]) == 6
    code, _, err = run(capsys, "enumerate", "--order", relation_files["notorder"])
    assert code == 1 and "total order" in err


def test_verify_distribution_suites_refuse_vacuous_weights(capsys):
    for suite in ("macmahon", "product-formula", "applications"):
        for weight in ("-1", "0", "1"):
            code, out, err = run(
                capsys, "verify", suite, "--size", "2", "--max-weight", weight
            )
            assert code == 1 and out == "", (suite, weight)
            assert err.startswith("error:") and "vacuous" in err, (suite, weight)


def test_malformed_relation_and_sets_are_usage_errors(capsys, tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"size": 2, "pairs": [[2, 1]]}))
    for i, pairs in enumerate(([1, 2], None, [[1, None]], [[1, 2, 3]], "12")):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps({"size": 3, "pairs": pairs}))
        for argv in (
            ["check", "transitive", "--relation", str(bad)],
            ["distribution", "--stat", f"pair:{ok}:{bad}", "--composition", "1,1"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", (pairs, argv)
            assert err.startswith("error:"), (pairs, argv)
    for i, data in enumerate(
        (
            {"size": 2.9, "pairs": [[True, 1.5]]},
            {"size": 2, "pairs": [[2.0, 1]]},
            {"size": False, "pairs": []},
            {"size": 10**9, "pairs": []},
        )
    ):
        bad = tmp_path / f"strict{i}.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", "transitive", "--relation", str(bad))
        assert code == 1 and out == "", data
        assert err.startswith("error:"), data
    for sets in (
        "[1,2]",
        "null",
        '[[1],"2"]',
        "[[1.5]]",
        "[[2.0]]",
        "[[true]]",
        '{"a": [1]}',
    ):
        code, out, err = run(
            capsys, "eval", "--stat", "setmaj", "--sets", sets, "--word", "1"
        )
        assert code == 1 and out == "", sets
        assert err.startswith("error:"), sets


json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["size", "pairs", "x"]), inner, max_size=3),
    ),
    max_leaves=12,
)
# Floats and bools near the valid range would load as the integers int()
# makes of them if they were coerced, so they are drawn beside the integers.
near_int = st.one_of(
    st.booleans(), st.floats(min_value=-1, max_value=5), st.integers(-1, 5)
)
pair_entry = st.one_of(near_int, json_leaf)
relation_json = st.one_of(
    json_value,
    st.fixed_dictionaries(
        {
            "size": st.one_of(
                near_int, st.integers(JSON_SIZE_CAP - 1, 10**12), json_value
            ),
            "pairs": st.one_of(
                st.lists(st.lists(pair_entry, max_size=3), max_size=4), json_value
            ),
        }
    ),
)


def _is_relation_json(data) -> bool:
    """The relation file format, read strictly: integer size in 1..cap and
    distinct [x, y] pairs of integer letters in [size]."""

    def is_int(v):
        return type(v) is int

    if not (isinstance(data, dict) and is_int(data.get("size"))):
        return False
    r, pairs = data["size"], data.get("pairs")
    return (
        1 <= r <= JSON_SIZE_CAP
        and isinstance(pairs, list)
        and all(
            isinstance(p, list)
            and len(p) == 2
            and all(is_int(v) and 1 <= v <= r for v in p)
            for p in pairs
        )
        and len({tuple(p) for p in pairs}) == len(pairs)
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=relation_json,
    sets=st.one_of(json_value.map(json.dumps), st.text(max_size=8)),
)
def test_fuzzed_relation_json_and_sets_never_trace_back(capsys, tmp_path, data, sets):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    rel = str(path)
    for argv in (
        ["check", "transitive", "--relation", rel],
        ["check", "kappa-extension", "--u", rel, "--s", rel],
        ["transform", "--relation", rel, "--word", "1 2"],
        ["distribution", "--stat", f"pair:{rel}:{rel}", "--composition", "1,1"],
        ["eval", "--stat", "setmaj", "--sets", sets, "--word", "1"],
        ["distribution", "--stat", "setmaj", "--sets", sets, "--composition", "1,1"],
    ):
        # an exception escaping main fails the test; argparse exits with 1
        try:
            code, _, err = run(capsys, *argv)
        except SystemExit as exc:
            code, err = exc.code, capsys.readouterr().err
        assert code in (0, 1), argv
        assert "Traceback" not in err, argv
        if argv[0] == "check" and argv[1] == "transitive":
            assert (code == 0) == _is_relation_json(data), err


word_token = st.one_of(
    st.integers(1, 4).map(str),
    st.integers(-2, 9).map(str),
    st.sampled_from(["", "0", "x", "1.5", "+2", "02", "\u0663", "-", "--"]),
    st.text(max_size=3),
)


def _is_decimal(token: str) -> bool:
    """Canonical ASCII decimal: digits only, and no leading zero but in "0"."""
    return token.isascii() and token.isdigit() and (token == "0" or token[0] != "0")


def _word_or_none(text: str, r: int):
    """The letters of a word over [r] written as text, or None if malformed."""
    tokens = text.split()
    if not all(_is_decimal(t) for t in tokens):
        return None
    letters = [int(t) for t in tokens]
    return letters if all(1 <= x <= r for x in letters) else None


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    r=st.integers(1, 4),
    mask=st.integers(0, (1 << 16) - 1),
    tokens=st.lists(word_token, max_size=8),
    sep=st.sampled_from([" ", "  ", "\t"]),
    inverse=st.booleans(),
    as_json=st.booleans(),
)
def test_fuzzed_transform_argv(capsys, tmp_path, r, mask, tokens, sep, inverse, as_json):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(Relation.from_mask(r, mask % (1 << (r * r))).to_json_dict()))
    text = sep.join(tokens)
    flags = ["--inverse"] if inverse else []
    flags += ["--json"] if as_json else []
    try:
        code, out, err = run(capsys, "transform", "--relation", str(path), "--word", text, *flags)
    except SystemExit as exc:  # argparse refuses e.g. a word written as an option
        code, out, err = exc.code, "", capsys.readouterr().err
    assert "Traceback" not in err
    expected = _word_or_none(text, r)
    if expected is None:
        assert code == 1 and "error:" in err
        return
    assert code == 0, err
    image = json.loads(out)["word"] if as_json else out.rstrip("\n")
    back_flags = [] if inverse else ["--inverse"]
    code, out, _ = run(capsys, "transform", "--relation", str(path), "--word", image, *back_flags)
    assert code == 0 and [int(t) for t in out.split()] == expected


count_token = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(-3, -1).map(str),
    st.sampled_from(
        ["", "+1", "02", "1_0", " 1", "\u0663", "1.0", "10000000", "11586", "9" * 20]
    ),
    st.text(max_size=2),
)


def _counts_or_none(text: str):
    """The counts of a composition written as text, or None if malformed."""
    tokens = text.split(",")
    return [int(t) for t in tokens] if all(_is_decimal(t) for t in tokens) else None


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    tokens=st.lists(count_token, min_size=1, max_size=3),
    spec=st.sampled_from(["inv", "maj", "kmaj:2", "kmaj:0", "pair"]),
    pair_size=st.integers(1, 3),
    masks=st.tuples(st.integers(0, 511), st.integers(0, 511)),
)
def test_fuzzed_distribution_argv(capsys, tmp_path, tokens, spec, pair_size, masks):
    text = ",".join(tokens)
    if spec == "pair":
        paths = []
        for name, mask in zip("uv", masks):
            path = tmp_path / f"{name}.json"
            rel = Relation.from_mask(pair_size, mask % (1 << (pair_size * pair_size)))
            path.write_text(json.dumps(rel.to_json_dict()))
            paths.append(str(path))
        spec = f"pair:{paths[0]}:{paths[1]}"
    try:
        code, out, err = run(
            capsys, "distribution", "--stat", spec, "--composition", text, "--json"
        )
    except SystemExit as exc:  # argparse refuses e.g. a composition written as an option
        code, out, err = exc.code, "", capsys.readouterr().err
    assert "Traceback" not in err
    counts = _counts_or_none(text)
    n = sum(counts) if counts else 0
    malformed = (
        counts is None
        or spec == "kmaj:0"
        or (spec.startswith("pair:") and pair_size != len(counts))
        or 8 * (n * (n - 1) + 1) > BYTE_BUDGET  # the coefficient list is refused
    )
    if malformed:
        assert code == 1 and "error:" in err
        return
    assert code == 0, err
    assert sum(json.loads(out)["coeffs"]) == class_size(Composition(tuple(counts)))


def _is_integer(token: str) -> bool:
    """A canonical ASCII decimal, or "-" followed by a non-zero one."""
    digits = token[1:] if token.startswith("-") else token
    return _is_decimal(digits) and (digits == token or digits != "0")


def _loose_int(token: str) -> int:
    """int(token), or 0 where int() refuses it too."""
    try:
        return int(token)
    except ValueError:
        return 0


# argv integers the CLI must refuse as written: int() alone takes several
malformed_int = st.one_of(
    st.sampled_from(
        ["", "+1", "02", "-02", "0_2", "-0", "\u0663", "-\u0663", "1.0", " 2", "2 ", "x"]
        + ["--", "-x"]  # argparse reads these as options
    ),
    # int() maps what it takes of these to small numbers, so a parser that
    # fell back to int() runs small sweeps and fails, instead of a long one
    st.text(max_size=2).filter(lambda t: not _is_integer(t) and abs(_loose_int(t)) <= 3),
)


def _run_argv(capsys, *argv):
    """(exit code, stdout, stderr) of main, argparse exits included."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def _eval_value(spec: str, size_token, word: str):
    """The value eval must print, or None when it must refuse the argv: a
    token that is not a canonical integer (a sign only on --size), or
    numbers the library refuses."""
    parts = spec.split(":")
    if spec.startswith("kmaj:"):
        spec_ok = _is_decimal(parts[1]) and len(parts) == 2
    elif spec.startswith("fg:"):
        spec_ok = (
            len(parts) == 3
            and all(_is_decimal(t) for t in parts[1].split())
            and all(p.strip() == "inf" or _is_decimal(p.strip()) for p in parts[2].split(","))
        )
    else:
        spec_ok = True
    if not (
        spec_ok
        and (size_token is None or _is_integer(size_token))
        and all(_is_decimal(t) for t in word.split())
    ):
        return None
    size = None if size_token is None else int(size_token)
    try:
        if spec.startswith("fg:"):
            f = tuple(int(t) for t in parts[1].split())
            g = tuple(INF if p.strip() == "inf" else int(p) for p in parts[2].split(","))
            stat = gmap_stat(GMap(f, g))
        elif size is None:
            return None
        elif spec.startswith("kmaj:"):
            stat = k_maj_stat(size, int(parts[1]))
        else:
            stat = (inv_stat if spec == "inv" else maj_stat)(size)
        if size is not None and size != stat.size:
            return None
        return stat.evaluate(Word(tuple(int(t) for t in word.split()), stat.size))
    except ValueError:
        return None


def _mostly(valid):
    """Tokens from ``valid`` about three times in four, else malformed ones;
    one_of(valid, valid, valid, malformed_int) would not weight them so."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else malformed_int)


letter = st.integers(1, 3).map(str)
FG_SPECS = ["fg:1:inf", "fg:2 1:inf,inf", "fg:1 2 3:2,3,inf", "fg:3 1 2:3, inf,inf"]


def _respell(spec: str, i: int, how: int) -> str:
    """``spec`` with its i-th digit (mod their count) spelled so that int()
    still reads it: "+3", "03" or an Arabic-Indic digit."""
    places = [k for k, ch in enumerate(spec) if ch.isdigit()]
    k = places[i % len(places)]
    digit = spec[k]
    spelled = ("+" + digit, "0" + digit, chr(0x660 + int(digit)))[how]
    return spec[:k] + spelled + spec[k + 1 :]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    size=st.one_of(st.none(), _mostly(st.integers(-1, 3).map(str))),
    spec=st.one_of(
        st.sampled_from(["inv", "maj"]),
        st.sampled_from(FG_SPECS),
        st.tuples(st.sampled_from(FG_SPECS), st.integers(0, 8), st.integers(0, 2)).map(
            lambda a: _respell(*a)
        ),
        _mostly(st.sampled_from(["0", "1", "2", "3", "9" * 20])).map(lambda k: f"kmaj:{k}"),
        st.tuples(
            st.integers(1, 3).flatmap(lambda r: st.permutations([str(x + 1) for x in range(r)]))
            | st.lists(_mostly(letter), max_size=3),
            st.lists(
                _mostly(st.sampled_from(["2", "3", "4", "inf", " 3", "inf "])),
                min_size=1,
                max_size=3,
            ),
        ).map(lambda fg: f"fg:{' '.join(fg[0])}:{','.join(fg[1])}"),
    ),
    tokens=st.lists(st.integers(0, 3).flatmap(lambda i: letter if i else word_token), max_size=4),
)
def test_fuzzed_eval_argv(capsys, size, spec, tokens):
    word = " ".join(tokens)
    argv = ["eval", "--stat", spec, "--word", word]
    argv += [] if size is None else ["--size", size]
    code, out, err = _run_argv(capsys, *argv)
    assert "Traceback" not in err
    expected = _eval_value(spec, size, word)
    if expected is None:
        assert code == 1 and "error:" in err and out == "", err
    else:
        assert code == 0 and out == f"{expected}\n", err


WEIGHT_SUITES = {
    "macmahon", "theorem-majinv", "classification", "product-formula", "applications"
}


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    suite=st.sampled_from(sorted(VERIFY_SUITES)),
    # numbers stay small, or are ones every suite reading them refuses up
    # front: no example runs a large sweep
    size=st.one_of(st.none(), _mostly(st.sampled_from(["-1", "0", "1", "2", "3", "5", "10" * 6]))),
    weight=_mostly(st.sampled_from(["-1", "0", "1", "2", "3"])),
    length=st.one_of(st.none(), _mostly(st.sampled_from(["2", "3"]))),
)
def test_fuzzed_verify_argv(capsys, suite, size, weight, length):
    argv = ["verify", suite, "--max-weight", weight]
    argv += [] if size is None else ["--size", size]
    argv += [] if length is None else ["--max-len", length]
    code, out, err = _run_argv(capsys, *argv)
    assert "Traceback" not in err
    tokens = [t for t in (size, weight, length) if t is not None]
    refused = not all(_is_integer(t) for t in tokens)
    if not refused:
        r = 3 if size is None else int(size)
        cap = 4 if suite in ("macmahon", "psi") else 3
        refused = (suite != "applications" and not 1 <= r <= cap) or (
            suite in WEIGHT_SUITES and int(weight) < 2
        )
    if refused:
        assert code == 1 and "error:" in err and out == "", err
    else:
        report = json.loads(out)
        assert code == (2 if report["violations"] else 0) and err == ""


def test_distribution_refuses_an_oversized_class_before_allocating(capsys):
    # at weight n the walk holds n(n-1)+1 coefficient slots of 8 bytes, and
    # 11586 is the least weight whose list passes the 1 GiB budget
    assert 8 * (11585 * 11584 + 1) <= BYTE_BUDGET < 8 * (11586 * 11585 + 1)
    for text in ("11586", "10000000", "5000,6586"):
        code, out, err = run(
            capsys, "distribution", "--stat", "inv", "--composition", text
        )
        assert code == 1 and out == "" and err.startswith("error:") and "budget" in err, text


def test_check_kappa_extensible_on_256_letters(capsys, tmp_path):
    # 1 and 2 are minimal and unrelated, 3..254 lie above both in a chain, and
    # 255 U 1, 256 U 2: transitive, and only the rows of 255 and 256 are
    # incomparable, so a scan over quadruples would find them last
    pairs = [[x, y] for x in range(3, 255) for y in range(1, x)] + [[255, 1], [256, 2]]
    cases = {
        "order": (natural_order(256).to_json_dict(), "true"),
        "split": ({"size": 256, "pairs": pairs}, "false"),
    }
    for name, (data, verdict) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", "transitive", "--relation", str(path))
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "check", "kappa-extensible", "--relation", str(path))
        assert code == 0 and out.strip() == verdict
        assert time.perf_counter() - start < 10


def test_verify_theorem_majinv_at_a_weight_past_the_recursion_limit(capsys):
    # a class of 1200 letters: enumerating it once recursed per letter
    code, out, err = run(
        capsys, "verify", "theorem-majinv", "--size", "1", "--max-weight", "1200"
    )
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error:") and out == ""
    else:
        report = json.loads(out)
        assert code == 0 and report["violations"] == []
        assert report["witnesses"]["survivors_by_weight"]["1200"] == 3


def test_walks_past_the_recursion_depth_or_word_budget_are_refused_quickly(capsys):
    # a class of 1,201 words whose walk would recurse 1,200 letters deep, and
    # a certificate over the 2**41 - 1 words of weight <= 40 over [2]
    for argv, reason in (
        (("distribution", "--stat", "inv", "--composition", "1200,1"), "recurse"),
        (("verify", "macmahon", "--size", "2", "--max-weight", "40"), "budget"),
        (("distribution", "--stat", "maj", "--composition", "6,6,6"), "budget"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and reason in err, argv


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "majinv", "verify", "closure", "--size", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["violations"] == []


def test_verify_macmahon_at_weight_100_ends_quickly(capsys):
    # [n; n] is 1: the q-binomial product takes no step, where q-factorials
    # of degree 4950 were divided
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "macmahon", "--size", "1", "--max-weight", "100")
    assert time.perf_counter() - start < 5
    report = json.loads(out)
    assert code == 0 and report["checked"] == 101 and report["violations"] == []
