"""A corrupted output must count as a failed operation."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checker  # noqa: E402
import workloads  # noqa: E402

workloads.import_vdiam()


def _failed(outcomes):
    return [o.op for o in outcomes if not o.ok]


def test_lowered_estimate_fails_against_its_reference():
    code, text = workloads.cli(
        ["compare", "--variety", "hyperbola", "--k-max", "3", "--sampler", "torus:32", "--starts", "2", "--format", "csv"]
    )
    rows = checker.parse_csv(text)
    ref = {f"est_{kind}": [float(r[f"est_{kind}"]) for r in rows] for kind in ("monomial", "cm", "bb")}
    kw = dict(k_max=3, kinds=("monomial", "cm", "bb"), unitary=True, reference=ref)
    assert _failed(checker.check_compare(code, text, **kw)) == []

    value = rows[1]["est_bb"]
    lowered = text.replace(value, repr(float(value) - 1e-6), 1)
    assert _failed(checker.check_compare(code, lowered, **kw)) == ["est_bb[k=2]"]
    raised = text.replace(value, repr(float(value) + 1e-6), 1)
    assert _failed(checker.check_compare(code, raised, **kw)) == []


def test_cm_monomial_split_fails_on_the_hyperbola():
    code, text = workloads.cli(
        ["compare", "--variety", "hyperbola", "--k-max", "2", "--sampler", "torus:32", "--format", "csv"]
    )
    row = checker.parse_csv(text)[0]
    corrupted = text.replace(f",{row['est_cm']},", f",{float(row['est_cm']) + 1e-9!r},", 1)
    kw = dict(k_max=2, kinds=("monomial", "cm", "bb"), unitary=True)
    assert _failed(checker.check_compare(code, corrupted, **kw)) == ["est_cm[k=1]"]
    assert len(_failed(checker.check_compare(2, text, **kw))) == 6


def test_flipped_check_line_fails():
    code, text = workloads.cli(["reproduce-example", "--seed", "0"])
    assert _failed(checker.check_reproduce(code, text)) == []
    flipped = text.replace("CHECK orthonormality: PASS", "CHECK orthonormality: FAIL")
    assert _failed(checker.check_reproduce(code, flipped)) == ["check_orthonormality"]
    assert len(_failed(checker.check_reproduce(code, text.replace("CHECK noether: PASS", "")))) == 1
    assert _failed(checker.check_reproduce(3, flipped)) == ["check_orthonormality"]
    assert len(_failed(checker.check_reproduce(3, text))) == len(checker.REPRODUCE_CHECKS)


def test_changed_fekete_byte_fails():
    argv = ["fekete", "--kind", "cm", "--k", "4", "--sampler", "torus:32", "--starts", "2", "--format", "csv"]
    first, second = workloads.cli(argv), workloads.cli(argv)
    est = {r["field"]: r["value"] for r in checker.parse_csv(first[1])}["est_lk"]
    assert checker.check_fekete_pair(first, second, est).ok
    code, text = second
    i = text.index("sweeps")
    changed = (code, text[:i] + "S" + text[i + 1:])
    assert not checker.check_fekete_pair(first, changed, est).ok
    assert not checker.check_fekete_pair(first, second, est + "1").ok


def test_compliance_verdict_and_exit_code():
    argv = ["compliance", "--variety", "hyperbola", "--left", "monomial", "--format", "csv"]
    code, text = workloads.cli(argv + ["--right", "family:scaled2"])
    assert checker.check_compliance("scaled2", code, text, compliant=False).ok
    assert not checker.check_compliance("scaled2", code, text, compliant=True).ok
    assert not checker.check_compliance("scaled2", 0, text, compliant=False).ok


def test_scale_bound_identity_tolerance():
    vdiam = sys.modules["vdiam"]
    pres, _ = vdiam.load_variety("hyperbola")
    cm, mono = vdiam.cm_basis(pres, 4), vdiam.monomial_graded_basis(pres, 4)
    tuples = [vdiam.random_variety_points(pres, len(mono), seed=j).points for j in range(2)]
    report = vdiam.row_scale_bound(cm, mono, tuples)
    assert _failed(checker.check_scale_bound(report, len(mono), [1.0, 1.0])) == []
    off = report.__class__(**{**report.__dict__, "identity_rel_errors": (0.0, 1e-6)})
    assert _failed(checker.check_scale_bound(off, len(mono), [1.0, 1.0])) == ["pivot_tuple[1]"]
    assert len(_failed(checker.check_scale_bound(None, len(mono), [1.0, 1.0]))) == 2
