"""Command-line surface: exit codes, formats, and the worked example."""

import json

import pytest

from vdiam.cli import run


def out_of(capsys):
    return capsys.readouterr().out


# ---------------------------------------------------------------------------
# validate


def test_validate_hyperbola_ok(capsys):
    assert run(["validate"]) == 0
    text = out_of(capsys)
    assert "valid" in text and "true" in text


def test_validate_verdict_failures_exit_3(capsys):
    assert run(["validate", "--variety", "nondistinct"]) == 3
    assert run(["validate", "--variety", "cross-terms"]) == 3


def test_validate_missing_file_exits_1(capsys):
    assert run(["validate", "--variety", "/nowhere/else.var"]) == 1


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# basis / counts output formats


def test_basis_json_parses(capsys):
    assert run(["basis", "--k", "2", "--kind", "cm", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert len(doc) == 5
    assert [row["degree"] for row in doc] == [0, 1, 1, 2, 2]


def test_basis_cm_on_degenerate_variety_exits_2(capsys):
    assert run(["basis", "--kind", "cm", "--variety", "nondistinct"]) == 2


def test_counts_csv_has_header_and_rows(capsys):
    assert run(["counts", "--k-max", "6", "--format", "csv"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0].startswith("k,")
    assert len(lines) == 8  # header + k = 0..6


def test_counts_json_round_trip(capsys):
    assert run(["counts", "--k-max", "4", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc[-1]["k"] == 4
    assert doc[-1]["N"] == 9


# ---------------------------------------------------------------------------
# compliance


def test_compliance_monomial_cm(capsys):
    assert run(["compliance"]) == 0
    assert "compliant" in out_of(capsys)


def test_compliance_scaled_family_exits_3(capsys):
    assert run(["compliance", "--right", "family:scaled2"]) == 3


def test_compliance_unknown_family_exits_1(capsys):
    assert run(["compliance", "--right", "family:nope"]) == 1


# ---------------------------------------------------------------------------
# numeric commands


def test_gram_runs(capsys):
    assert run(["gram", "--k", "2", "--kind", "bb", "--n", "128"]) == 0
    assert "max_offdiag" in out_of(capsys) or "G" in out_of(capsys)


def test_fekete_json(capsys):
    assert run([
        "fekete", "--k", "2", "--sampler", "torus:24", "--format", "json",
    ]) == 0
    doc = json.loads(out_of(capsys))
    got = {row["field"]: row["value"] for row in doc}
    assert got["candidates"] == 48
    assert got["tuple_size"] == 5
    assert len(got["indices"].split()) == 5


def test_fekete_too_few_candidates_exits_2(capsys):
    assert run(["fekete", "--k", "3", "--sampler", "torus:2"]) == 2


@pytest.mark.parametrize("spec", ["torus:0", "torus:-3", "segment:0"])
def test_fekete_grid_sampler_needs_a_node_exits_1(spec, capsys):
    assert run(["fekete", "--k", "3", "--sampler", spec]) == 1
    assert "need at least 1 node" in capsys.readouterr().err


def test_fekete_file_sampler_rejects_nan_row(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text("[[NaN, 1.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.4142135623730951]]")
    assert run(["fekete", "--k", "1", "--sampler", f"file:{f}"]) == 1
    assert "leave the variety" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[[[1.0]]]", "[1, 2]", "5", '[[[1.0, "x"], 1.0]]'])
def test_fekete_file_sampler_rejects_malformed_rows(text, tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(text)
    assert run(["fekete", "--k", "1", "--sampler", f"file:{f}"]) == 1
    assert capsys.readouterr().err.startswith("error: point file ")


@pytest.mark.parametrize(
    "doc, field",
    [
        ([1, 2], "JSON object"),
        ({"M": 1, "N": 2, "generators": 5}, "'generators'"),
        ({"M": 1, "N": 2, "generators": [5]}, "'generators'"),
        ({"M": 1, "N": 2, "generators": ["y1*x1 - 1"], "v_polys": 5}, "'v_polys'"),
    ],
)
def test_validate_malformed_variety_file_exits_1(doc, field, tmp_path, capsys):
    f = tmp_path / "bad.var"
    f.write_text(json.dumps(doc))
    assert run(["validate", "--variety", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--k-max", "1", "--sampler", "torus:4", "--n", "16"],
        ["fekete", "--k", "1", "--sampler", "torus:4"],
        ["basis", "--kind", "monomial"],
    ]
    + [
        [command, "--kind", kind, "--k", "1", *extra]
        for command, extra in (("basis", []), ("gram", ["--n", "16"]), ("fekete", ["--sampler", "torus:4"]))
        for kind in ("monomial", "cm", "bb", "bb_structured")
    ],
)
def test_invalid_presentation_exits_1_for_every_command(argv, capsys):
    assert run(argv + ["--variety", "cross-terms"]) == 1
    assert "error: invalid presentation: " in capsys.readouterr().err


INTEGER_FLAG_CASES = [
    (["fekete", "--k", "0"], 1),
    (["fekete", "--k", "-1"], 1),
    (["compare", "--k-max", "-2"], 1),
    (["compare", "--k-max", "0"], 1),
    (["fekete", "--starts", "0"], 1),
    (["fekete", "--starts", "-5"], 1),
    (["compare", "--starts", "0"], 1),
    (["reproduce-example", "--n", "0"], 1),
    (["gram", "--n", "0"], 1),
    (["gram", "--kind", "bb", "--n", "-4"], 1),
    (["compliance", "--right", "bb", "--n", "0"], 1),
    (["basis", "--k", "-1"], 1),
    (["gram", "--k", "-1"], 1),
    (["counts", "--k-max", "-1"], 1),
    # the smallest accepted values
    (["basis", "--k", "0"], 0),
    (["gram", "--k", "0", "--n", "1"], 0),
    (["counts", "--k-max", "0"], 0),
    (["fekete", "--k", "1", "--starts", "1", "--sampler", "torus:4"], 0),
    (["compare", "--k-max", "1", "--sampler", "torus:4", "--n", "16"], 0),
]


@pytest.mark.parametrize(
    "argv, code", INTEGER_FLAG_CASES, ids=[" ".join(argv) for argv, _ in INTEGER_FLAG_CASES]
)
def test_integer_flags_are_checked_at_parse_time(argv, code, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code:
        assert captured.out == ""
        assert "must be at least" in captured.err
    else:
        assert captured.out


def test_fekete_csv_deterministic(capsys):
    args = ["fekete", "--k", "2", "--sampler", "torus:16", "--seed", "7",
            "--format", "csv"]
    assert run(args) == 0
    first = out_of(capsys)
    assert run(args) == 0
    assert out_of(capsys) == first


@pytest.mark.parametrize("k, seed", [(3, 90), (3, 242886307), (16, 90)])
def test_fekete_prints_compares_est_cm(k, seed, capsys):
    # the benchmark's fekete/compare pair check; at k = 3 these seeds are
    # where searches of each basis's own ended apart
    common = ["--sampler", "torus:256", "--starts", "4", "--seed", str(seed), "--format", "csv"]
    assert run(["compare", "--k-max", str(k), *common]) == 0
    lines = out_of(capsys).strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert row["k"] == str(k)
    assert run(["fekete", "--kind", "cm", "--k", str(k), *common]) == 0
    fields = dict(line.split(",", 1) for line in out_of(capsys).strip().splitlines()[1:])
    assert fields["est_lk"] == row["est_cm"]
    # the hyperbola's cm change of basis has determinant of modulus 1
    assert abs(float(row["est_cm"]) - float(row["est_monomial"])) <= 1e-12


def test_compare_small(capsys):
    assert run([
        "compare", "--k-max", "2", "--sampler", "torus:16", "--n", "128",
        "--starts", "2", "--format", "csv",
    ]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0].split(",")[:2] == ["k", "est_monomial"]
    assert len(lines) == 3


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["validate", "--format", "json", "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert any(row["field"] == "valid" for row in doc)


# ---------------------------------------------------------------------------
# the bundled walkthrough


def test_reproduce_example_passes(capsys):
    assert run(["reproduce-example"]) == 0
    text = out_of(capsys)
    assert "RESULT: PASS" in text
    for name in ("sheet_generators", "star_products", "moment_y", "scale_bounds"):
        assert f"CHECK {name}: PASS" in text


def test_determinant_ratio_line_names_its_conditioning(capsys):
    # seed 106 draws a tuple whose VDM condition number puts the LU-based
    # identity outside the library's 1e-10 tolerance but inside N*eps*cond
    assert run(["reproduce-example", "--seed", "106"]) == 3
    line = next(ln for ln in out_of(capsys).splitlines() if ln.startswith("CHECK determinant_ratio:"))
    assert line.startswith("CHECK determinant_ratio: FAIL (")
    assert line.endswith("worst tuple: VDM condition 2.16e+07, N*eps*cond = 6.2e-08))")
    rel_err = float(line.split("rel err <= ")[1].split(";")[0])
    assert 1e-10 < rel_err <= 6.2e-08
