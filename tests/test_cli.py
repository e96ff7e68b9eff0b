"""Command-line surface: exit codes, formats, and the worked example."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vdiam import cli
from vdiam.cli import _build_parser, run


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


@pytest.mark.parametrize(
    "argv",
    [["validate", "--variety", "{dir}"], ["fekete", "--sampler", "file:{dir}", "--k", "1"], ["counts", "--out", "{dir}"]],
    ids=lambda argv: argv[0],
)
def test_a_directory_for_a_file_exits_1(argv, tmp_path, capsys):
    # IsADirectoryError is an OSError, not a FileNotFoundError
    assert run([a.format(dir=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


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


# y^3 - x^2 y - 1: roots at infinity 1, 0, -1, exact and distinct, but the
# sheet y = 0 * x has normalizer zero
ZERO_NORMALIZER = {"M": 1, "N": 2, "generators": ["y1^3 - x1^2*y1 - 1"]}


def test_basis_cm_with_zero_normalizer_exits_2(tmp_path, capsys):
    f = tmp_path / "cubic.var"
    f.write_text(json.dumps(ZERO_NORMALIZER))
    assert run(["basis", "--kind", "cm", "--variety", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: the sheet generator for the root 0 at infinity")


def test_basis_cm_with_roots_outside_the_field_exits_2(tmp_path, capsys):
    f = tmp_path / "quartic.var"
    f.write_text(json.dumps({"M": 1, "N": 2, "generators": ["y1^4 - x1^4 - 1"]}))
    assert run(["basis", "--kind", "cm", "--variety", str(f)]) == 2
    assert capsys.readouterr().err == "error: points at infinity are not expressible in the exact scalar field\n"


# sha256 of `validate` stdout on the two files above, recorded when roots at
# infinity above degree 2 were still found by a scan over divisors
VALIDATE_SHA256 = {
    "cubic": ("y1^3 - x1^2*y1 - 1", "a4ea5623f89aebf46652e70598943f34e36b0d1147ea7390cad7d8ae369bae04"),
    "quartic": ("y1^4 - x1^4 - 1", "c46cad2a9deeddefe1cda461e46d62bc526dd302fd897f7208abebcca10481cb"),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_SHA256))
def test_validate_of_higher_degree_files_is_byte_identical(name, tmp_path, capsys):
    generator, digest = VALIDATE_SHA256[name]
    f = tmp_path / f"{name}.var"
    f.write_text(json.dumps({"M": 1, "N": 2, "generators": [generator]}))
    assert run(["validate", "--variety", str(f)]) == 0
    assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == digest


def test_validate_prints_imaginary_points_at_infinity_exactly(tmp_path, capsys):
    # y^2 + x^2 - 1: the points at infinity +-i come from the exact roots,
    # where numpy's roots printed the second as 2.77555756156e-17-1j
    f = tmp_path / "circle.var"
    f.write_text(json.dumps({"M": 1, "N": 2, "generators": ["y1^2 + x1^2 - 1"]}))
    assert run(["validate", "--variety", str(f), "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in out_of(capsys).splitlines()[1:])
    assert (rows["point_1"], rows["point_2"]) == ("[0 : 1+0j : 0+1j]", "[0 : 1+0j : 0-1j]")


@pytest.mark.parametrize("power, code", [(18, 0), (30, 3)], ids=["10^18", "10^30"])
def test_validate_with_a_large_constant_at_infinity(power, code, tmp_path, capsys):
    # mu^3 = 10^power has one rational root; the three points at infinity
    # lie at chordal distance sqrt3 * 10^(-power/3), below the 1e-8 guard at
    # power 30, so that file is refused as not distinct
    f = tmp_path / "large.var"
    f.write_text(json.dumps({"M": 1, "N": 2, "generators": [f"y1^3 - {10 ** power}*x1^3 - 1"]}))
    assert run(["validate", "--variety", str(f), "--format", "csv"]) == code
    rows = dict(line.split(",", 1) for line in out_of(capsys).splitlines()[1:])
    assert rows["infinity_points"] == "3"
    assert float(rows["min_chordal"]) == pytest.approx(3 ** 0.5 * 10 ** (-power / 3), rel=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("degree, chordal", [(2, "2e-150"), (3, "1.73205080757e-100")])
def test_validate_keeps_the_chordal_distance_of_far_points_at_infinity(degree, chordal, tmp_path, capsys):
    # mu^degree = 10^300: the points at infinity lie near 10^(300/degree),
    # where (1 + |u|^2)(1 + |v|^2) overflowed, with a warning, to a distance 0
    f = tmp_path / "far.var"
    f.write_text(json.dumps({"M": 1, "N": 2, "generators": [f"y1^{degree} - {10 ** 300}*x1^{degree} - 1"]}))
    assert run(["validate", "--variety", str(f), "--format", "csv"]) == 3
    rows = dict(line.split(",", 1) for line in out_of(capsys).splitlines()[1:])
    assert rows["min_chordal"] == chordal


def test_validate_with_a_coefficient_beyond_the_float_range_exits_1(tmp_path, capsys):
    # 10^400 has no float; `Exact.to_complex` raised OverflowError out of run
    f = tmp_path / "huge.var"
    f.write_text(json.dumps({"M": 1, "N": 2, "generators": [f"y1^3 - {10 ** 400}*x1^3 - 1"]}))
    assert run(["validate", "--variety", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the top form's coefficients or roots at infinity lie beyond the float range\n"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_validate_prints_infinity_distinct_as_a_boolean(fmt, capsys):
    # the chordal test decides nondistinct, whose numpy bool printed "False"
    assert run(["validate", "--variety", "nondistinct", "--format", fmt]) == 3
    text = out_of(capsys)
    if fmt == "json":
        rows = {r["field"]: r["value"] for r in json.loads(text)}
        assert rows["infinity_distinct"] is False and rows["xM_nonzero"] is True
    else:
        assert "infinity_distinct  false\n" in text


# cm refusals only a variety file reaches: its own sheet generators of two
# degrees, and y^2 + x y - 2 x^2 - 1, whose sheet y - x at the root 1 at
# infinity has the normalizer sqrt(3)
CM_REFUSALS = {
    "mixed-degrees": (
        {"M": 1, "N": 2, "generators": ["y1^2 - x1^2 - 1"], "v_polys": ["y1", "x1^2"]},
        "sheet generators must share one degree, got [1, 2]",
    ),
    "empty-v-polys": (
        {"M": 1, "N": 2, "generators": ["y1^2 - x1^2 - 1"], "v_polys": []},
        "expected d=2 sheet generators, got 0",
    ),
    "sqrt3-normalizer": (
        {"M": 1, "N": 2, "generators": ["y1^2 + x1*y1 - 2*x1^2 - 1"]},
        "normalizer sqrt(3) does not exist in the exact scalar field",
    ),
}


@pytest.mark.parametrize("name", sorted(CM_REFUSALS))
def test_cm_refusals_exit_2_and_compare_drops_cm(name, tmp_path, capsys):
    doc, message = CM_REFUSALS[name]
    f = tmp_path / f"{name}.var"
    f.write_text(json.dumps(doc))
    for argv in (["basis", "--kind", "cm"], ["compliance", "--left", "monomial", "--right", "cm"]):
        assert run([*argv, "--variety", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    argv = ["compare", "--variety", str(f), "--k-max", "2", "--sampler", "torus:8", "--n", "16", "--format", "csv"]
    assert run(argv) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "k,est_monomial,est_bb,spread"
    assert len(lines) == 3


def test_compare_drops_cm_with_zero_normalizer(tmp_path, capsys):
    f = tmp_path / "cubic.var"
    f.write_text(json.dumps(ZERO_NORMALIZER))
    argv = ["compare", "--variety", str(f), "--k-max", "2", "--sampler", "torus:8", "--n", "16", "--format", "csv"]
    assert run(argv) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "k,est_monomial,est_bb,spread"
    assert len(lines) == 3


def test_basis_bb_drops_rounding_dust(capsys):
    # the raw bb elements carry coefficients near 1e-17 on lower monomials
    assert run(["basis", "--kind", "bb", "--k", "2", "--n", "64", "--format", "json"]) == 0
    elements = [row["element"] for row in json.loads(out_of(capsys))]
    assert elements[0] == "1" and elements[1] == "x1" and elements[3] == "x1^2"
    assert re.fullmatch(r"0\.8865\d*\*y1", elements[2])
    assert re.fullmatch(r"0\.8865\d*\*x1\*y1", elements[4])


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


# sha256 of `basis --k 3 --format csv` as printed before the monomial, cm and
# bb_structured bases became their families expanded to degree k; any
# reordered or reprinted element changes it
BASIS_CSV_SHA256 = {
    ("hyperbola", "monomial"): "5166f21ab7adb26fe5168b35d3aa80ebffbf604d678eaadd6a5a4ffb19193f43",
    ("hyperbola", "cm"): "506e70700b08f02a0846b2f05289e50f2bc492145d3c504e7ced9dcebb75dd30",
    ("hyperbola", "bb_structured"): "715e5436423fa324b618fb890aef7c414ebcd924f2faa6a7837512bf7dccdbef",
    ("cone2d", "monomial"): "19c2e2058c82b97d7d419976e4cb4fd790224fd228aee1302e0b05660db7ebf5",
    ("cone2d", "cm"): "306db512ae323be6fe559a356268f6642b354b7959caebe3037d847f7f98bf68",
    ("cone2d", "bb_structured"): "d7340fc4bed73270e74940cb266143be42b2dc65f83657d84d4786321f040cc6",
}


@pytest.mark.parametrize("variety, kind", sorted(BASIS_CSV_SHA256))
def test_basis_csv_is_byte_identical(variety, kind, capsys):
    assert run(["basis", "--variety", variety, "--kind", kind, "--k", "3", "--format", "csv"]) == 0
    assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == BASIS_CSV_SHA256[variety, kind]


# sha256 of stdout for commands that print estimates, determinants and
# scale bounds, recorded before `vdm_matrix` shared one power table per call
# (numpy 2.4, searches in one BLAS thread); a speed-up that moves a printed
# digit changes one of them
PRINTED_SHA256 = {
    "compare --variety hyperbola --k-max 6 --sampler torus:64 --starts 4 --seed 0 --format csv":
        "8624e74c49f9c49780e0ed58d754083036c50ce709aa931fc440b72dfbdc138a",
    "compare --variety cone2d --k-max 3 --sampler torus:12 --n 32 --starts 4 --seed 0 --format csv":
        "86c87c965f5893ee4c02aa15007a42ceadd574a0af41918ec77d835a81126681",
    "fekete --kind cm --k 6 --sampler torus:64 --starts 4 --seed 0 --format csv":
        "63d9e61b9fc38da3f8a9f9692e9de16c8bdf362bd7f8b19f523efdc37652fc67",
    "fekete --kind bb --k 6 --sampler torus:64 --starts 4 --seed 0 --format csv":
        "fb68b5bcc66a3f23dbee205f880c1961837797660e584b98c9cadaa31a8b6b1b",
    # the benchmark's compare-cone2d pass at seed 0; re-recorded when bb's Gram
    # came from the sheet symbols: bb's start at k = 4 moved with the last bits
    # of E_bb, and the shared search found a larger maximum, so the k = 4 row
    # rose from 0.560451138552,0.560451138552,0.545739107634 to
    # 0.560589330182,0.560589330182,0.545877299264 (spread unchanged)
    "compare --variety cone2d --k-max 4 --sampler torus:16 --n 128 --starts 4 --seed 0 --format csv":
        "0c33cb1801d269432f11cd1e96982173e9922650e151c92efb953573965f2952",
    # re-recorded when bb became the inverse of the Gram matrix's Cholesky
    # factor ("CHECK normalized_y" |err| 8.68907650275e-08 to
    # 8.68907652496e-08, "CHECK orthonormality" max |G - I| 2.8778116143e-16
    # to 4.4408920985e-16 at k=3), and again when its Gram came from the sheet
    # symbols: |err| back to 8.68907650275e-08, max |G - I| 8.881784197e-16
    "reproduce-example --seed 0": "ed88ec899945bff2bbf7f1ef203387b042ac77d2e08d0711c4d1177d96cc92ea",
    # the benchmark's compare-hyperbola commands at seed 0 and exact-hyperbola's
    # cm compliance, recorded before candidate sets became quadrature rules
    "compare --variety hyperbola --k-max 16 --sampler torus:256 --starts 4 --seed 0 --format csv":
        "c096d67a9cf4f8f7851fe5dd584d595c45888bcaff875923d86550499e9fb24f",
    "fekete --kind cm --k 16 --sampler torus:256 --starts 4 --seed 0 --format csv":
        "59304f7abf3420bb9d0b46f6019c24141e69dc137d9ea09cd134f4f7b286faa2",
    "compliance --variety hyperbola --left monomial --right cm --format csv":
        "c28b00405eef442e0a5e6dddd98ca91e8517cf8a1aba1315b96efad91e0c957f",
    # monomials on [-1, 1]: ill-conditioned tuples (cond(E) about 9e11 at
    # k = 32), where the exchange's certificate leaves many slots to the
    # solve; recorded before the slot ratios were read in single precision
    "fekete --kind monomial --k 24 --sampler segment:120 --starts 3 --seed 0 --format csv":
        "0f2b8a942ffa637b6a4c252400a9209890a2487fc5eda3a69b7cf0d25ba6e1d4",
    "fekete --kind monomial --k 32 --sampler segment:120 --starts 3 --seed 0 --format csv":
        "a82a221874fd62e376f4f179f8f53c989c68758175adc25df633569de10ab3f6",
}


@pytest.mark.parametrize("argv", sorted(PRINTED_SHA256))
def test_printed_numbers_are_byte_identical(argv, capsys):
    assert run(argv.split()) == 0
    assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == PRINTED_SHA256[argv]


# ---------------------------------------------------------------------------
# compliance


def test_compliance_monomial_cm(capsys):
    assert run(["compliance"]) == 0
    assert "compliant" in out_of(capsys)


def test_compliance_scaled_family_exits_3(capsys):
    assert run(["compliance", "--right", "family:scaled2"]) == 3


@pytest.mark.parametrize("left, right", [("bb", "family:scaled2"), ("family:scaled2", "bb")])
def test_compliance_of_bb_against_the_scaled_family_gives_a_verdict(capsys, left, right):
    # 0.8862 y1 x1^a never equals y1 (2 x1)^a, so each y-coset is left whole
    argv = ["compliance", "--left", left, "--right", right, "--n", "256", "--format", "csv"]
    assert run(argv) == 3
    rows = dict(line.split(",", 1) for line in out_of(capsys).splitlines()[1:])
    assert rows["compliant"] == "false"
    assert "(0.886249170545*y1) * monomials in {x1}" in rows.values()
    assert "(y1) * monomials in {x1} with scalings x1->2" in rows.values()


@pytest.mark.parametrize(
    "left, right, field",
    [("monomial", "bb", "right_minus_left_coset_1"), ("bb", "monomial", "left_minus_right_coset_1")],
)
def test_compliance_prints_bb_coefficients_without_rounding_dust(capsys, left, right, field):
    # the constant's imaginary part is rounding (about 2e-17), so it is not printed
    argv = ["compliance", "--variety", "nondistinct", "--left", left, "--right", right, "--format", "csv"]
    assert run(argv) == 0
    rows = dict(line.split(",", 1) for line in out_of(capsys).splitlines()[1:])
    assert rows[field] == "(0.666666666667*y1 + 0.333333333333) * monomials in {x1}"


def test_compliance_unknown_family_exits_1(capsys):
    assert run(["compliance", "--right", "family:nope"]) == 1


# cone2d with one-coset families over x1 and over x2, and three malformed ones
CONE_FAMILIES_DOC = {
    "M": 2,
    "N": 3,
    "generators": ["y1^2 - x1^2 - x2^2"],
    "families": {
        "a": {"cosets": [{"multiplier": "1", "variables": ["x1"]}]},
        "b": {"cosets": [{"multiplier": "1", "variables": ["x2"]}]},
        "z": {"cosets": [{"multiplier": "1", "variables": ["z1"]}]},
        "y": {"cosets": [{"multiplier": "1", "variables": ["y1"]}]},
        "s": {"cosets": [{"multiplier": "1", "variables": ["x1"], "scales": [2]}]},
    },
}


def test_compliance_of_cores_over_different_variables_exits_3(tmp_path, capsys):
    f = tmp_path / "cone2d.var"
    f.write_text(json.dumps(CONE_FAMILIES_DOC))
    argv = ["compliance", "--variety", str(f), "--left", "family:a", "--right", "family:b", "--format", "csv"]
    assert run(argv) == 3
    rows = dict(line.split(",", 1) for line in out_of(capsys).strip().splitlines()[1:])
    assert rows["compliant"] == "false"
    assert rows["reason"] == "difference cores use different variable sets"
    assert rows["left_minus_right_coset_1"] == "(x1) * monomials in {x1}"
    assert rows["right_minus_left_coset_1"] == "(x2) * monomials in {x2}"
    assert (rows["left_minus_right_core_vars"], rows["right_minus_left_core_vars"]) == ("x1", "x2")


@pytest.mark.parametrize(
    "left, message",
    [
        ("family:z", "bad variable name 'z1'"),
        ("family:y", "coset variables must be x variables"),
        ("family:s", "family field 'scales' must map variable names to constants"),
        ("nope", "unknown family spec 'nope'; expected monomial, cm, bb, or family:NAME"),
    ],
    ids=["bad-name", "y-variable", "scales-list", "unknown-spec"],
)
def test_compliance_refuses_a_malformed_family_spec_exits_1(left, message, tmp_path, capsys):
    f = tmp_path / "cone2d.var"
    f.write_text(json.dumps(CONE_FAMILIES_DOC))
    assert run(["compliance", "--variety", str(f), "--left", left, "--right", "monomial"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_compliance_shifted_family(tmp_path, capsys):
    # {x1 * x1^a, x1 y1 * x1^a} misses exactly the monomials 1 and y1
    doc = {
        "M": 1,
        "N": 2,
        "generators": ["y1^2 - x1^2 - 1"],
        "families": {
            "shifted": {
                "cosets": [
                    {"multiplier": "x1", "variables": ["x1"]},
                    {"multiplier": "x1*y1", "variables": ["x1"]},
                ]
            }
        },
    }
    f = tmp_path / "hyperbola.var"
    f.write_text(json.dumps(doc))
    argv = ["compliance", "--variety", str(f), "--left", "monomial", "--right", "family:shifted", "--format", "csv"]
    assert run(argv) == 0
    rows = dict(line.split(",", 1) for line in out_of(capsys).strip().splitlines()[1:])
    assert rows["left_minus_right_extra_1"] == "1"
    assert rows["left_minus_right_extra_2"] == "y1"
    assert rows["right_minus_left"] == "empty"
    assert "left_minus_right_coset_1" not in rows and "right_minus_left_coset_1" not in rows


# The bb family carries its pure-y block unrounded and trims rounding dust
# only to print it, so these lines read as they did when the family held the
# trimmed block.
BB_COMPLIANCE = {
    ("hyperbola", "cm"): (
        "field                       value\n"
        "compliant                   true\n"
        "reason                      both differences admit cores\n"
        "left_minus_right_coset_1    (x1) * monomials in {x1}\n"
        "left_minus_right_coset_2    (0.886583101752*y1) * monomials in {x1}\n"
        "left_minus_right_core_t     1\n"
        "left_minus_right_core_vars  x1\n"
        "right_minus_left_coset_1    (1/2*sqrt2*y1 - 1/2*sqrt2*x1) * monomials in {x1}\n"
        "right_minus_left_coset_2    (1/2*sqrt2*y1 + 1/2*sqrt2*x1) * monomials in {x1}\n"
        "right_minus_left_core_t     1\n"
        "right_minus_left_core_vars  x1\n"
    ),
    ("hyperbola", "monomial"): (
        "field                       value\n"
        "compliant                   true\n"
        "reason                      both differences admit cores\n"
        "left_minus_right_coset_1    (0.886583101752*y1) * monomials in {x1}\n"
        "left_minus_right_core_t     1\n"
        "left_minus_right_core_vars  x1\n"
        "right_minus_left_coset_1    (y1) * monomials in {x1}\n"
        "right_minus_left_core_t     1\n"
        "right_minus_left_core_vars  x1\n"
    ),
    ("cone2d", "cm"): (
        "field                       value\n"
        "compliant                   true\n"
        "reason                      both differences admit cores\n"
        "left_minus_right_coset_1    (x2) * monomials in {x1, x2}\n"
        "left_minus_right_coset_2    (0.886583101752*y1) * monomials in {x1, x2}\n"
        "left_minus_right_core_t     1\n"
        "left_minus_right_core_vars  x1 x2\n"
        "right_minus_left_coset_1    (1/2*sqrt2*y1 + 1/2*sqrt2*x2) * monomials in {x1, x2}\n"
        "right_minus_left_coset_2    (1/2*sqrt2*y1 - 1/2*sqrt2*x2) * monomials in {x1, x2}\n"
        "right_minus_left_core_t     1\n"
        "right_minus_left_core_vars  x1 x2\n"
    ),
    ("cone2d", "monomial"): (
        "field                       value\n"
        "compliant                   true\n"
        "reason                      both differences admit cores\n"
        "left_minus_right_coset_1    (0.886583101752*y1) * monomials in {x1, x2}\n"
        "left_minus_right_core_t     1\n"
        "left_minus_right_core_vars  x1 x2\n"
        "right_minus_left_coset_1    (y1) * monomials in {x1, x2}\n"
        "right_minus_left_core_t     1\n"
        "right_minus_left_core_vars  x1 x2\n"
    ),
}


@pytest.mark.parametrize("variety, right", sorted(BB_COMPLIANCE))
def test_compliance_of_the_bb_family_prints_the_trimmed_block(variety, right, capsys):
    assert run(["compliance", "--variety", variety, "--left", "bb", "--right", right, "--n", "64"]) == 0
    assert out_of(capsys) == BB_COMPLIANCE[variety, right]


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


@pytest.mark.parametrize(
    "spec, message",
    [
        ("file:", "file sampler needs a path: file:PATH"),
        ("grid:4", "unknown sampler 'grid:4'; expected torus[:n], segment[:n], or file:PATH"),
    ],
    ids=["file-without-path", "unknown-kind"],
)
def test_fekete_refuses_a_malformed_sampler_spec_exits_1(spec, message, capsys):
    assert run(["fekete", "--k", "1", "--sampler", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fekete_file_sampler_rejects_nan_row(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text("[[NaN, 1.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.4142135623730951]]")
    assert run(["fekete", "--k", "1", "--sampler", f"file:{f}"]) == 1
    assert "leave the variety" in capsys.readouterr().err


def test_fekete_file_sampler_of_repeated_nodes_exits_2(tmp_path, capsys):
    # the two points over x = 1, three times each: rank 2 for the 3 monomials
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([[1.0, 2**0.5], [1.0, -(2**0.5)]] * 3))
    assert run(["fekete", "--k", "1", "--sampler", f"file:{f}"]) == 2
    assert "does not span" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "[[[1.0]]]",
        "[1, 2]",
        "5",
        '[[[1.0, "x"], 1.0]]',
        # integers too large for a float
        pytest.param("[[1" + "0" * 400 + ", 1.0]]", id="huge-number"),
        pytest.param("[[[1.0, -1" + "0" * 400 + "], 1.0]]", id="huge-pair"),
        # JSON booleans are not numbers, though Python reads them as 1 and 0
        pytest.param("[[true, 1.4142135623730951], [true, -1.4142135623730951], [0, 1], [0, -1]]", id="bool-entry"),
        pytest.param("[[[1.0, false], 1.4142135623730951], [1, -1.4142135623730951], [0, 1], [0, -1]]", id="bool-pair-part"),
    ],
)
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
        ({"M": None, "N": 2, "generators": ["y1*x1 - 1"]}, "'M'"),
        ({"M": [1], "N": 2, "generators": ["y1*x1 - 1"]}, "'M'"),
        ({"M": 1, "N": None, "generators": ["y1*x1 - 1"]}, "'N'"),
        ({"M": 1, "N": 2.5, "generators": ["y1*x1 - 1"]}, "'N'"),
        ({"M": 1, "N": 2, "generators": ["y1*x1 - 1"], "d": [2]}, "'d'"),
    ],
)
def test_validate_malformed_variety_file_exits_1(doc, field, tmp_path, capsys):
    f = tmp_path / "bad.var"
    f.write_text(json.dumps(doc))
    assert run(["validate", "--variety", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_validate_deeply_nested_generator_exits_1(tmp_path, capsys):
    f = tmp_path / "deep.var"
    f.write_text(json.dumps({"M": 1, "N": 2, "generators": ["(" * 3000 + "y1^2 - x1^2 - 1" + ")" * 3000]}))
    assert run(["validate", "--variety", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parentheses nest too deeply to parse\n"


HYPERBOLA_DOC = {"M": 1, "N": 2, "generators": ["y1^2 - x1^2 - 1"]}


@pytest.mark.parametrize(
    "command",
    [["validate"], ["basis", "--kind", "cm"], ["compare", "--k-max", "1", "--sampler", "torus:4", "--n", "16"]],
    ids=lambda argv: argv[0],
)
def test_a_files_d_must_match_the_sheets_exits_1(command, tmp_path, capsys):
    f = tmp_path / "hyperbola.var"
    f.write_text(json.dumps({**HYPERBOLA_DOC, "d": 3}))
    assert run(command + ["--variety", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: variety field 'd' is 3")


@pytest.mark.parametrize(
    "families, field",
    [
        (["f"], "'families'"),
        ({"f": {"cosets": 5}}, "'cosets'"),
        ({"f": {"cosets": [{"multiplier": 1, "variables": ["x1"]}]}}, "'multiplier'"),
        ({"f": {"cosets": [{"variables": ["x1"]}]}}, "'multiplier'"),
    ],
    ids=["families-list", "cosets-number", "multiplier-number", "multiplier-missing"],
)
def test_compliance_malformed_family_exits_1(families, field, tmp_path, capsys):
    f = tmp_path / "hyperbola.var"
    f.write_text(json.dumps({**HYPERBOLA_DOC, "families": families}))
    assert run(["compliance", "--variety", str(f), "--right", "family:f"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"field {field}" in err


# fields that change no element of the family are refused, where they used
# to flip a verdict (a scale on y1 made the family "scaled") or give one for
# a family holding the zero polynomial
@pytest.mark.parametrize(
    "family, field",
    [
        ({"cosets": [{"multiplier": "1", "variables": ["x1"], "scales": {"y1": "2"}}, {"multiplier": "y1", "variables": ["x1"]}]}, "'scales'"),
        ({"cosets": [{"multiplier": "1", "variables": ["x1"]}, {"multiplier": "y1", "variables": ["x1"]}, {"multiplier": "0", "variables": ["x1"]}]}, "'multiplier'"),
        ({"cosets": [{"multiplier": "1", "variables": ["x1"]}, {"multiplier": "y1", "variables": ["x1"]}], "finite": ["0"]}, "'finite'"),
    ],
    ids=["scale-off-the-coset", "zero-multiplier", "zero-finite"],
)
@pytest.mark.parametrize("right", ["family:y", "monomial"])
def test_compliance_family_with_a_field_that_changes_nothing_exits_1(family, field, right, tmp_path, capsys):
    f = tmp_path / "hyperbola.var"
    families = {"f": family, "y": {"cosets": [{"multiplier": "y1", "variables": ["x1"]}]}}
    f.write_text(json.dumps({**HYPERBOLA_DOC, "families": families}))
    assert run(["compliance", "--variety", str(f), "--left", "family:f", "--right", right]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: family field {field} ")


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


# flags that these commands do not read; a prefix of a declared flag is one too
REMOVED_FLAGS = [
    (command, flag)
    for command, flags in (
        ("validate", ["--n", "--seed", "--starts"]),
        ("counts", ["--n", "--seed", "--starts", "--k"]),
        ("basis", ["--seed", "--starts"]),
        ("gram", ["--seed", "--starts"]),
        ("compliance", ["--seed", "--starts"]),
        ("reproduce-example", ["--variety", "--format", "--starts"]),
        ("compare", ["--k"]),
    )
    for flag in flags
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS, ids=[f"{c} {f}" for c, f in REMOVED_FLAGS])
def test_a_command_rejects_a_flag_it_does_not_read(command, flag, capsys):
    value = {"--variety": "cone2d", "--format": "json"}.get(flag, "2")
    assert run([command, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def _flag_table(readme: str) -> dict[str, set[str]]:
    """The README's per-command flag table: command -> flags."""
    section = readme.split("| command | flags |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in section.strip().splitlines()[1:]]
    return {cmd.strip(" `"): set(re.findall(r"--[a-z-]+", flags)) for cmd, flags in rows}


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {opt for action in p._actions for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
        for name, p in sub.choices.items()
    }
    assert _flag_table(readme) == parsed
    assert sum(map(len, parsed.values())) == 45


def test_run_builds_no_parser(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or argparse.ArgumentParser())
    assert run(["counts", "--k-max", "1"]) == 0
    assert run(["validate", "--format", "csv"]) == 0
    assert run(["fekete", "--k", "0"]) == 1
    capsys.readouterr()
    assert built == []


def test_shared_parser_carries_nothing_between_runs(tmp_path, monkeypatch, capsys):
    # one process running the sequence prints what one process per command prints
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def sequence(out):
        return [
            ["fekete", "--k", "0"],
            ["--help"],
            ["counts", "--format", "csv"],
            ["compare", "--k-max", "2", "--sampler", "torus:16", "--n", "64", "--format", "csv", "--out", str(out)],
            ["counts", "--format", "csv"],
        ]

    results = []
    for argv, argv_each in zip(sequence(tmp_path / "one.csv"), sequence(tmp_path / "each.csv")):
        code = run(argv)
        results.append((code, capsys.readouterr().out))
        proc = subprocess.run(
            [sys.executable, "-m", "vdiam.cli", *argv_each], env=env, capture_output=True, text=True
        )
        assert results[-1] == (proc.returncode, proc.stdout), argv
    assert [code for code, _ in results] == [1, 0, 0, 0, 0]
    assert results[0][1] == "" and results[3][1] == ""
    assert (tmp_path / "one.csv").read_text() == (tmp_path / "each.csv").read_text()
    # --out closed its file: the next command prints to stdout again
    assert results[4][1] == results[2][1] != ""


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
