import json
import subprocess
import sys
from pathlib import Path

import pytest

from eqzeta.cli import run_command
from eqzeta.documents import parse_document, parse_document_file
from eqzeta.errors import DocumentError
from test_groups import oracle_normalizer

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths ---------------------------------------------------------------


def test_classify_swap_output(capsys):
    code, out, err = run(capsys, "classify", fx("gperm_c2_swap.json"))
    assert code == 0 and err == ""
    assert out == "1 * [ZxG / (H=e, m=1, a=g1)]\n(1-t^2)\n"


def test_classify_three_cycle_output(capsys):
    code, out, _ = run(capsys, "classify", fx("gperm_trivial_3cycle.json"))
    assert code == 0
    assert out == "1 * [ZxG / (H=G, m=3, a=e)]\n(1-t^3)\n"


def test_group_reference_by_path(capsys):
    code, out, _ = run(capsys, "classify", fx("gperm_c2_swap_by_path.json"))
    assert code == 0
    assert out.splitlines()[0] == "1 * [ZxG / (H=e, m=1, a=g1)]"


def test_acampo_matches_classify(capsys):
    _, out_classify, _ = run(capsys, "classify", fx("gperm_c2_swap.json"))
    code, out_acampo, _ = run(capsys, "acampo", fx("strata_x2_c2.json"))
    assert code == 0
    assert out_acampo == out_classify


def test_acampo_power_germ(capsys):
    code, out, _ = run(capsys, "acampo", fx("strata_xk_trivial.json"))
    assert code == 0
    assert out.splitlines()[1] == "(1-t^4)"


def test_forget_zero_element(capsys):
    code, out, _ = run(capsys, "forget", fx("expr_zero_trivial.json"))
    assert code == 0
    assert out == "1\n"


def test_st_desk_check(capsys):
    code, out, _ = run(capsys, "st", fx("expr_m2_trivial.json"), fx("expr_m2_trivial.json"))
    assert code == 0
    assert out == "0\n1\n"


def test_mul_and_add(capsys):
    code, out, _ = run(capsys, "mul", fx("expr_m2_trivial.json"), fx("expr_m2_trivial.json"))
    assert code == 0
    assert out.splitlines()[0] == "2 * [ZxG / (H=G, m=2, a=e)]"
    code, out, _ = run(capsys, "add", fx("expr_m2_trivial.json"), fx("expr_m2_trivial.json"))
    assert code == 0
    assert out.splitlines()[0] == "2 * [ZxG / (H=G, m=2, a=e)]"


def test_mul_and_st_at_a_large_period(capsys):
    big = fx("expr_large_m_c2.json")
    code, out, err = run(capsys, "mul", big, big)
    assert (code, err) == (0, "")
    assert out == "2000000 * [ZxG / (H=e, m=1000000, a=g1)]\n(1-t^2000000)^2000000\n"
    code, out, err = run(capsys, "st", big, big)
    assert (code, err) == (0, "")
    assert out == "-1999998 * [ZxG / (H=e, m=1000000, a=g1)]\n(1-t^2000000)^-1999998\n"


def test_zeta_solve_three_cycle(capsys):
    code, out, _ = run(capsys, "zeta-solve", fx("lefschetz_3cycle.json"))
    assert code == 0
    assert out == "1 * [ZxG / (H=G, m=3, a=e)]\n(1-t^3)\n"


def test_subgroups_and_marks(capsys):
    code, out, _ = run(capsys, "subgroups", fx("group_s3.json"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("e: order=1, count=1")
    assert lines[-1].startswith("G: order=6, count=1")
    code, out, _ = run(capsys, "marks", fx("group_s3.json"))
    assert code == 0
    assert out.splitlines()[1] == "e: 6 0 0 0"


def test_chi_square_reflection(capsys):
    code, out, _ = run(capsys, "chi", fx("complex_square_reflection.json"))
    assert code == 0
    assert out == "2*[G/G] - 1*[G/e]\n"


def test_zeta_command_on_complex(capsys):
    code, out, _ = run(capsys, "zeta", fx("complex_square_c2.json"))
    assert code == 0
    assert out == "0\n1\n"


def test_lefschetz_text_output(capsys):
    code, out, _ = run(capsys, "lefschetz", fx("gperm_trivial_3cycle.json"))
    assert code == 0
    assert out == "m_max: 3\nH=G m=3 a=e: 3\n"


# -- structured format and round trips -----------------------------------------


def test_structured_classify_parses_back(capsys):
    code, out, _ = run(capsys, "classify", fx("gperm_c2_swap.json"), "--format", "structured")
    assert code == 0
    doc = parse_document(out)
    assert doc.kind == "expr"
    reference = parse_document_file(fx("expr_twisted_c2.json"))
    assert doc.payload.coeffs == reference.payload.coeffs


def test_structured_lefschetz_feeds_zeta_solve(capsys, tmp_path):
    code, out, _ = run(
        capsys, "lefschetz", fx("gperm_s3_regular_twist.json"), "--format", "structured"
    )
    assert code == 0
    table_file = tmp_path / "table.json"
    table_file.write_text(out)
    code, solved, _ = run(capsys, "zeta-solve", str(table_file))
    assert code == 0
    _, classified, _ = run(capsys, "classify", fx("gperm_s3_regular_twist.json"))
    assert solved == classified


def test_structured_chi_is_valid_json(capsys):
    code, out, _ = run(capsys, "chi", fx("complex_square_reflection.json"), "--format", "structured")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"][0]["label"] == "G"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "gperm_s3_regular_twist.json"),
        ("acampo", "strata_x2_c2.json"),
        ("zeta-solve", "lefschetz_3cycle.json"),
        ("st", "expr_m2_trivial.json", "expr_m2_trivial.json"),
        ("mul", "expr_twisted_c2.json", "expr_twisted_c2.json"),
    ],
)
def test_structured_element_outputs_parse_back(capsys, argv):
    command, *files = argv
    code, out, _ = run(capsys, command, *(fx(f) for f in files), "--format", "structured")
    assert code == 0
    doc = parse_document(out)
    assert doc.kind == "expr"
    # the text render of the reparsed element matches the text command output
    code, text_out, _ = run(capsys, command, *(fx(f) for f in files))
    assert code == 0
    assert doc.payload.render() == text_out.splitlines()[0]


# -- determinism ---------------------------------------------------------------

ALL_RUNS = [
    ("subgroups", "group_c2.json"),
    ("subgroups", "group_s3.json"),
    ("subgroups", "group_d4.json"),
    ("subgroups", "group_c2xc2.json"),
    ("subgroups", "group_s3_gens.json"),
    ("subgroups", "group_table_c2.json"),
    ("marks", "group_s3.json"),
    ("marks", "group_d4.json"),
    ("classify", "gperm_c2_swap.json"),
    ("classify", "gperm_trivial_3cycle.json"),
    ("classify", "gperm_s3_regular_twist.json"),
    ("lefschetz", "gperm_c2_swap.json"),
    ("lefschetz", "gperm_s3_regular_twist.json"),
    ("zeta-solve", "lefschetz_3cycle.json"),
    ("chi", "complex_square_reflection.json"),
    ("chi", "complex_point_c2.json"),
    ("zeta", "complex_square_c2.json"),
    ("zeta", "complex_point_c2.json"),
    ("acampo", "strata_x2_c2.json"),
    ("acampo", "strata_x2y2_trivial.json"),
    ("forget", "expr_m2_trivial.json"),
    ("forget", "expr_zero_trivial.json"),
    ("st", "expr_m2_trivial.json", "expr_m2_trivial.json"),
    ("mul", "expr_twisted_c2.json", "expr_twisted_c2.json"),
    ("add", "expr_twisted_c2.json", "expr_twisted_c2.json"),
]


def test_structured_subgroups_list_each_class_normalizer(capsys):
    for path in sorted(FIXTURES.glob("group_*.json")):
        code, out, _ = run(capsys, "subgroups", str(path), "--format", "structured")
        assert code == 0, path.name
        group = parse_document_file(str(path)).group
        classes = json.loads(out)["classes"]
        assert len(classes) == len(group.subgroup_classes), path.name
        for c in classes:
            assert c["normalizer"] == list(oracle_normalizer(group, c["elements"])), path.name


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_all_commands_are_deterministic(capsys, fmt):
    for command, *files in ALL_RUNS:
        argv = [command] + [fx(f) for f in files] + ["--format", fmt]
        code1, out1, err1 = run(capsys, *argv)
        code2, out2, err2 = run(capsys, *argv)
        assert code1 == code2 == 0, (command, err1)
        assert out1 == out2
        assert err1 == err2 == ""


# -- failure modes ---------------------------------------------------------------


def test_bad_commutation_names_generator_and_point(capsys):
    code, out, err = run(capsys, "classify", fx("gperm_bad_commutation.json"))
    assert code == 1
    assert out == ""
    assert "commute" in err and "generator" in err and "point" in err


def test_bad_strata_names_the_stratum(capsys):
    code, _, err = run(capsys, "acampo", fx("strata_bad_n.json"))
    assert code == 1
    assert "strata[0]" in err and "divide" in err


def test_stratum_with_a_repeated_kernel_element_names_the_stratum(capsys, tmp_path):
    path = tmp_path / "strata.json"
    path.write_text(json.dumps({
        "kind": "strata", "group": {"type": "cyclic", "n": 2},
        "strata": [{"chi": 1, "m": 2, "n": 2, "H": [0, 0], "alpha": 1}],
    }))
    code, out, err = run(capsys, "acampo", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: strata[0]: (0, 0) is not a subgroup\n"


def test_zeta_of_a_map_with_a_long_period(capsys):
    """129 vertices whose map has cycles of the primes 2 .. 29, so its period
    is 6469693230; regularity reads one first-return level per cycle."""
    code, out, err = run(capsys, "zeta", fx("complex_period_129.json"))
    assert (code, err) == (0, "")
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert out == (
        " + ".join(f"1 * [ZxG / (H=G, m={p}, a=e)]" for p in primes) + "\n"
        + " ".join(f"(1-t^{p})" for p in primes) + "\n"
    )


def test_unknown_subcommand_exits_two(capsys):
    code = run_command(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_missing_file_is_a_validation_error(capsys):
    code, _, err = run(capsys, "classify", fx("no_such_file.json"))
    assert code == 1
    assert "cannot read" in err


def test_kind_mismatch_detected(capsys):
    code, _, err = run(capsys, "classify", fx("group_c2.json"))
    assert code == 1
    assert "expected a 'gperm' document" in err


def test_mismatched_groups_in_binary_op(capsys):
    code, _, err = run(capsys, "st", fx("expr_m2_trivial.json"), fx("expr_twisted_c2.json"))
    assert code == 1
    assert "common group" in err


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "classify",
            {"kind": "gperm", "group": {"type": "cyclic", "n": 2}, "points": 2,
             "action": [[1, 0.5]], "sigma": [0, 1]},
            "action[0][1]: expected an integer, got 0.5",
        ),
        (
            "forget",
            {"kind": "expr", "group": {"type": "cyclic", "n": 2},
             "terms": [{"coeff": 1, "H": [0, 1], "m": 1, "alpha": 0},
                       {"coeff": 2, "H": [0, 1, 2], "m": 1, "alpha": 0}]},
            "terms[1].H[2]: element index 2 out of range 0..1",
        ),
        (
            # one reader for every H array: all items are type-checked first
            "zeta-solve",
            {"kind": "lefschetz", "group": {"type": "cyclic", "n": 2}, "m_max": 2,
             "entries": [{"H": [99, "x"], "g": 0, "m": 1, "value": 1}]},
            "entries[0].H[1]: expected an integer, got 'x'",
        ),
    ],
)
def test_document_errors_name_the_failing_item(capsys, tmp_path, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (1, "", f"error: {path}: {message}\n")


def _expr_doc(group, h, alpha):
    return {"kind": "expr", "group": group,
            "terms": [{"coeff": 1, "H": h, "m": 1, "alpha": alpha}]}


@pytest.mark.parametrize("command", ["add", "mul", "st"])
def test_same_group_path_naming_different_groups_is_rejected(capsys, tmp_path, command):
    # both files say "group": "g.json", but the two g.json differ
    for sub, group_fixture, expr in (
        ("a", "group_c2.json", _expr_doc("g.json", [0], 1)),
        ("b", "group_s3.json", _expr_doc("g.json", [0, 1, 2, 3, 4, 5], 0)),
    ):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "g.json").write_text(Path(fx(group_fixture)).read_text())
        (tmp_path / sub / "x.json").write_text(json.dumps(expr))
    code, out, err = run(
        capsys, command, str(tmp_path / "a" / "x.json"), str(tmp_path / "b" / "x.json")
    )
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "common group" in err


@pytest.mark.parametrize("command", ["add", "mul", "st"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_inline_and_path_reference_to_one_group_agree(capsys, tmp_path, command, fmt):
    (tmp_path / "g.json").write_text(Path(fx("group_c2.json")).read_text())
    by_path = tmp_path / "by_path.json"
    by_path.write_text(json.dumps(_expr_doc("g.json", [0], 0)))
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps(_expr_doc({"type": "cyclic", "n": 2}, [0], 0)))
    first = fx("expr_twisted_c2.json")
    code, mixed, err = run(capsys, command, first, str(by_path), "--format", fmt)
    assert code == 0 and err == ""
    _, both_inline, _ = run(capsys, command, first, str(inline), "--format", fmt)
    assert mixed == both_inline


def test_empty_lefschetz_document_parses_to_no_entries():
    doc = parse_document(
        '{"kind": "lefschetz", "group": {"type": "cyclic", "n": 2}, '
        '"m_max": 1000, "entries": []}'
    )
    assert doc.payload.m_max == 1000
    assert doc.payload.entries == {}


def test_zeta_solve_cost_follows_entries_not_m_max(capsys, tmp_path):
    table = tmp_path / "empty.json"
    table.write_text(
        '{"kind": "lefschetz", "group": {"type": "cyclic", "n": 2}, '
        '"m_max": 3000000, "entries": []}'
    )
    code, out, err = run(capsys, "zeta-solve", str(table))
    assert (code, out, err) == (0, "0\n1\n", "")


_C1, _C2 = {"type": "cyclic", "n": 1}, {"type": "cyclic", "n": 2}
_HUGE = 10**12


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("classify", {"kind": "gperm", "group": _C2, "points": _HUGE,
                      "action": [[0]], "sigma": [0]}, "is not a bijection"),
        ("classify", {"kind": "gperm", "group": _C1, "points": _HUGE,
                      "action": [], "sigma": []}, "sigma has 0 entries"),
        ("chi", {"kind": "complex", "group": _C2, "cells": [_HUGE],
                 "boundary": [[]], "action": [[[0]]]}, "exceeds 10000 cells"),
        ("chi", {"kind": "complex", "group": _C1, "cells": [_HUGE],
                 "boundary": [[]], "action": []}, "exceeds 10000 cells"),
    ],
    ids=["gperm_c2", "gperm_c1", "complex_c2", "complex_c1"],
)
def test_declared_size_is_checked_before_anything_of_that_size_is_built(
    capsys, tmp_path, command, doc, message
):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert message in err


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "cyclic", "n": _HUGE},
        {"type": "dihedral", "n": _HUGE},
        {"type": "symmetric", "n": 13},
    ],
    ids=["cyclic", "dihedral", "symmetric"],
)
def test_group_order_is_checked_before_the_group_is_built(capsys, tmp_path, spec):
    path = tmp_path / "huge_group.json"
    path.write_text(json.dumps({"kind": "group", **spec}))
    code, out, err = run(capsys, "subgroups", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "exceeds the bound 5040" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "cyclic", "n": [1]}, "group: n: expected an integer, got [1]"),
        ({"type": "cyclic", "n": None}, "group: n: expected an integer, got None"),
        ({"type": "cyclic", "n": 3.7}, "group: n: expected an integer, got 3.7"),
        ({"type": "cyclic", "n": "3"}, "group: n: expected an integer, got '3'"),
        ('{"kind": "group", "type": "dihedral", "n": 1e400}',
         "group: n: expected an integer, got inf"),
        ({"type": "symmetric", "n": True}, "group: n: expected an integer, got True"),
        ({"type": "product", "factors": 5}, "group: factors: expected an array"),
        ({"type": "product", "factors": [1, 2]}, "group: factors[0]: expected an object"),
        ({"type": "perm-gens", "points": 2, "generators": "ab"},
         "group: generators: expected an array"),
        ({"type": "perm-gens", "points": 3, "generators": [[0, 1, "x"]]},
         "group: generators[0][2]: expected an integer, got 'x'"),
        ({"type": "perm-gens", "points": -1, "generators": []},
         "group: points: must be nonnegative"),
        ({"type": "table", "mul": 5}, "group: mul: expected an array"),
        ({"type": "table", "mul": [[0]], "labels": 5}, "group: labels: expected an array"),
        ({"type": "table", "mul": [[0]], "generators": 5}, "group: generators: expected an array"),
        ({"type": "table", "mul": [[0, 1], [1, 0]], "generators": [None]},
         "group: generators[0]: expected an integer, got None"),
        ({"type": "table", "mul": [["a"]]}, "group: mul[0][0]: expected an integer, got 'a'"),
        ("self", "group: referenced document is not a group"),
        ("mutual", "group: referenced document is not a group"),
        ("[" * 100000 + "]" * 100000, "doc.json: document is nested too deeply"),
    ],
)
def test_malformed_documents_end_in_one_error_line(capsys, tmp_path, spec, message):
    """No document ends in a traceback: each names its field or reference."""
    path = tmp_path / "doc.json"
    if spec in ("self", "mutual"):  # gperm documents whose group path loops
        other = path if spec == "self" else tmp_path / "other.json"
        gperm = {"kind": "gperm", "points": 0, "action": [], "sigma": []}
        path.write_text(json.dumps({**gperm, "group": other.name}))
        other.write_text(json.dumps({**gperm, "group": path.name}))
    elif isinstance(spec, str):
        path.write_text(spec)
    else:
        path.write_text(json.dumps({"kind": "group", **spec}))
    code, out, err = run(capsys, "subgroups", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert err.rstrip("\n").endswith(message)


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "group",\n  "type": }\n')
    code, _, err = run(capsys, "subgroups", str(bad))
    assert code == 1
    assert "line 2" in err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "eqzeta.cli", "classify", fx("gperm_c2_swap.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "1 * [ZxG / (H=e, m=1, a=g1)]\n(1-t^2)\n"


def test_commands_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process and reused by later commands
    sequence = [
        ["subgroups", fx("group_s3.json")],
        ["frobnicate"],
        ["mul", fx("expr_twisted_c2.json"), fx("expr_twisted_c2.json"), "--format", "structured"],
        ["subgroups", fx("group_s3.json")],
    ]
    for argv in sequence:
        fresh = subprocess.run(
            [sys.executable, "-m", "eqzeta", *argv], capture_output=True, text=True
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


_C2_WITH_IDENTITY = {"type": "perm-gens", "points": 2, "generators": [[0, 1], [1, 0]]}
_C2_TWICE = {"type": "perm-gens", "points": 2, "generators": [[1, 0], [1, 0]]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"kind": "gperm", "group": _C2_WITH_IDENTITY, "points": 2,
          "action": [[1, 0], [1, 0]], "sigma": [0, 1]},
         "gperm: generator 0 is the identity element, but its image is not trivial"),
        ({"kind": "gperm", "group": _C2_TWICE, "points": 2,
          "action": [[1, 0], [0, 1]], "sigma": [0, 1]},
         "gperm: image of generator 1 differs from that of generator 0, the same element"),
        ({"kind": "complex", "group": _C2_WITH_IDENTITY, "cells": [2], "boundary": [[[], []]],
          "action": [[[1, 0]], [[1, 0]]], "sigma": [[0, 1]]},
         "complex: generator 0 is the identity element, but its image is not trivial"),
        ({"kind": "complex", "group": _C2_TWICE, "cells": [2], "boundary": [[[], []]],
          "action": [[[1, 0]], [[0, 1]]], "sigma": [[0, 1]]},
         "complex: image of generator 1 differs from that of generator 0, the same element"),
    ],
    ids=["gperm_identity", "gperm_repeated", "complex_identity", "complex_repeated"],
)
def test_image_of_an_identity_or_repeated_generator_is_checked(capsys, tmp_path, doc, message):
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(doc))
    assert str(info.value) == message
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    command = "classify" if doc["kind"] == "gperm" else "chi"
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (1, "", f"error: {path}: {message}\n")


# -- the command table's loader and parser ------------------------------------

# a fixture of each kind
_OF_KIND = {
    "group": "group_c2.json",
    "gperm": "gperm_c2_swap.json",
    "strata": "strata_x2_c2.json",
    "lefschetz": "lefschetz_3cycle.json",
    "expr": "expr_twisted_c2.json",
    "complex": "complex_square_c2.json",
}
_READS = {
    "subgroups": ["group"], "marks": ["group"], "chi": ["complex"], "classify": ["gperm"],
    "lefschetz": ["gperm"], "zeta-solve": ["lefschetz"], "zeta": ["complex"],
    "st": ["expr", "expr"], "acampo": ["strata"], "forget": ["expr"],
    "mul": ["expr", "expr"], "add": ["expr", "expr"],
}


@pytest.mark.parametrize(
    "command, position",
    [(c, i) for c, kinds in _READS.items() for i in range(len(kinds))],
)
def test_every_command_names_a_document_of_the_wrong_kind(capsys, command, position):
    kinds = _READS[command]
    wanted = kinds[position]
    for other in _OF_KIND:
        if other == wanted:
            continue
        argv = [fx(_OF_KIND[k]) for k in kinds]
        argv[position] = fx(_OF_KIND[other])
        assert run(capsys, command, *argv) == (
            1, "", f"error: {argv[position]}: expected a '{wanted}' document, got '{other}'\n"
        )


def test_zeta_of_a_complex_without_sigma_is_an_error(capsys):
    path = fx("complex_square_reflection.json")
    assert run(capsys, "zeta", path) == (1, "", f"error: {path}: document has no sigma field\n")


@pytest.mark.parametrize("command", ["add", "mul", "st"])
def test_differing_groups_message(capsys, command):
    first, second = fx("expr_m2_trivial.json"), fx("expr_twisted_c2.json")
    assert run(capsys, command, first, second) == (
        1,
        "",
        f"error: {second}: group differs from {first}; binary operations need a common group\n",
    )


_FORMAT = "[-h] [--format {text,structured}]"


_USAGES = [
    (
        [],
        "usage: eqzeta [-h]\n"
        "              {subgroups,marks,chi,classify,lefschetz,zeta-solve,zeta,st,acampo,"
        "forget,mul,add}\n"
        "              ...",
    ),
    (["subgroups"], f"usage: eqzeta subgroups {_FORMAT} group_file"),
    (["marks"], f"usage: eqzeta marks {_FORMAT} group_file"),
    (["chi"], f"usage: eqzeta chi {_FORMAT} complex_file"),
    (["classify"], f"usage: eqzeta classify {_FORMAT} gperm_file"),
    (
        ["lefschetz"],
        "usage: eqzeta lefschetz [-h] [--m-max M_MAX] [--format {text,structured}] gperm_file",
    ),
    (["zeta-solve"], f"usage: eqzeta zeta-solve {_FORMAT} lefschetz_file"),
    (["zeta"], f"usage: eqzeta zeta {_FORMAT} complex_file"),
    (["st"], f"usage: eqzeta st {_FORMAT} expr_file1 expr_file2"),
    (["acampo"], f"usage: eqzeta acampo {_FORMAT} strata_file"),
    (["forget"], f"usage: eqzeta forget {_FORMAT} expr_file"),
    (["mul"], f"usage: eqzeta mul {_FORMAT} expr_file1 expr_file2"),
    (["add"], f"usage: eqzeta add {_FORMAT} expr_file1 expr_file2"),
]


@pytest.mark.parametrize("argv, usage", _USAGES, ids=[" ".join(a) or "top" for a, _ in _USAGES])
def test_help_usage_lines(capsys, monkeypatch, argv, usage):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps usage at the terminal width
    code, out, err = run(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    assert out.split("\n\n")[0] == usage


def test_integer_past_the_conversion_limit_in_a_document_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "long_coeff.json"
    path.write_text(
        '{"kind": "expr", "group": {"type": "cyclic", "n": 1}, '
        '"terms": [{"coeff": ' + "7" * 5000 + ', "H": [0], "m": 1, "alpha": 0}]}'
    )
    code, out, err = run(capsys, "forget", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: an integer has more than {sys.get_int_max_str_digits()} digits\n"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_answer_past_the_conversion_limit_is_one_error_line(capsys, tmp_path, fmt):
    # the square of a 2201-digit coefficient has 4402 digits
    path = tmp_path / "long_coeff.json"
    path.write_text(
        '{"kind": "expr", "group": {"type": "cyclic", "n": 1}, '
        '"terms": [{"coeff": ' + "9" * 2201 + ', "H": [0], "m": 1, "alpha": 0}]}'
    )
    code, out, err = run(capsys, "mul", str(path), str(path), "--format", fmt)
    assert (code, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: the answer holds an integer of more than {limit} digits, too long to print\n"
    )
