"""Acceptance tests: the ten headline guarantees of the package.

Each test prints one ``criterion N PASS/FAIL`` line directly to the
terminal (bypassing capture) and then asserts, so a full ``pytest -v`` run
shows exactly ten verdict lines.  All comparisons are exact — symbolic
equality of rational functions, byte equality of golden files — with zero
tolerance.
"""

import pathlib

import pytest

from iqsl2.idp import PARITIES, idp_closed, idp_recursive
from iqsl2.verify import run_suite
from oracles import golden_comult_lines, golden_mult_lines

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _emit(capsys, num, label, ok):
    with capsys.disabled():
        print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} FAIL: {label}"


@pytest.fixture(scope="module")
def pbw_core_report():
    return run_suite("pbw-core", 12)


def test_criterion_1_oracle_equivalence(capsys):
    ok = all(
        idp_recursive(p, n) == idp_closed(p, n)
        for p in PARITIES
        for n in range(17)
    )
    _emit(capsys, 1,
          "recursive and closed divided powers agree "
          "(both families, n <= 16)", ok)


def test_criterion_2_multiplication_theorems(capsys):
    ok = all(
        run_suite(suite, bound, mode).passed
        for suite in ("mult-even", "mult-odd")
        for bound, mode in ((12, "generic"), (16, "specialized"))
    )
    _emit(capsys, 2,
          "closed multiplication formulas match expanded products "
          "(m+n <= 12 generic, <= 16 at the inverse-q value)", ok)


def test_criterion_3_golden_examples(capsys):
    ok = True
    for family in ("ev", "odd"):
        mult = "".join(s + "\n" for s in golden_mult_lines(family))
        comult = "".join(s + "\n" for s in golden_comult_lines(family))
        stored_mult = (GOLDEN_DIR / f"mult_{family}.txt").read_text(
            encoding="utf-8")
        stored_comult = (GOLDEN_DIR / f"comult_{family}.txt").read_text(
            encoding="utf-8")
        ok = ok and mult == stored_mult and comult == stored_comult
    _emit(capsys, 3, "golden example files regenerate bit-exactly", ok)


def test_criterion_4_comultiplication_theorems(capsys):
    ok = all(
        run_suite(suite, bound, mode).passed
        for suite in ("comult-even", "comult-odd")
        for bound, mode in ((8, "generic"), (8, "specialized"))
    )
    _emit(capsys, 4,
          "closed coproduct formulas equal the coproduct of the normal "
          "form, exactly in the tensor square (both families, n <= 8)", ok)


def test_criterion_5_reversed_forms(capsys):
    ok = run_suite("fhy-forms", 6).passed
    _emit(capsys, 5,
          "reversed-order coproduct legs equal the direct legs after "
          "normalization (n <= 6)", ok)


def test_criterion_6_leg_recurrences(capsys):
    ok = run_suite("proof-recurrences", 8).passed
    _emit(capsys, 6,
          "order recursions for coproduct legs hold as exact algebra "
          "identities (orders <= 8)", ok)


def test_criterion_7_scalar_identities(capsys, pbw_core_report):
    qid = run_suite("qidentities", 20)
    kpoly = [c for c in pbw_core_report.checks
             if c.id.startswith("kpoly-")]
    ok = qid.passed and bool(kpoly) and all(c.passed for c in kpoly)
    _emit(capsys, 7,
          "quantum-integer identity grids and the four rational "
          "identities in K^-2 hold exactly", ok)


def test_criterion_8_integrality_positivity(capsys):
    report = run_suite("positivity", 16)
    constants = [c for c in report.checks
                 if c.id == "structure-positivity"]
    ok = len(constants) == 306 and all(c.passed for c in constants)
    _emit(capsys, 8,
          "every structure constant at the inverse-q value is a Laurent "
          "polynomial with nonnegative integer coefficients (m+n <= 16)",
          ok)


def test_criterion_9_anti_involution(capsys):
    ok = run_suite("chi", 10).passed
    _emit(capsys, 9,
          "anti-involution suite: involution, anti-multiplicativity, "
          "binomial images, fixedness of divided powers (n <= 10)", ok)


def test_criterion_10_hopf_sanity(capsys, pbw_core_report):
    ok = pbw_core_report.passed
    _emit(capsys, 10,
          "normal-form and coproduct sanity: homomorphism property, "
          "coassociativity, merge and splitting formulas", ok)
