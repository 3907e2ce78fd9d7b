"""Tests for the verification suites, table emitter, and expansion helpers."""

import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import iqsl2
from iqsl2 import coeff, cyclo, idp, pbw, qcomb, tensor, verify
from iqsl2.errors import NegativeInput, ResourceLimit, UnknownSuite
from iqsl2.pbw import UElement
from iqsl2.tensor import TensorElement
from iqsl2.verify import (
    SUITES,
    TABLE_COLUMNS,
    CheckResult,
    SuiteReport,
    emit_table,
    expand_comult,
    expand_idp,
    resource_ceiling,
    run_suite,
    table_rows,
)
from oracles import golden_comult_lines, golden_mult_lines

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# small bounds keep the full-suite smoke grid fast while still exercising
# every check family inside each suite
SMALL_BOUNDS = {
    "qidentities": 4,
    "pbw-core": 4,
    "mult-even": 3,
    "mult-odd": 3,
    "comult-even": 2,
    "comult-odd": 2,
    "fhy-forms": 3,
    "proof-recurrences": 4,
    "chi": 3,
    "positivity": 4,
}


class TestRunSuite:
    @pytest.mark.parametrize("name", SUITES)
    def test_small_bound_passes(self, name):
        report = run_suite(name, SMALL_BOUNDS[name])
        assert report.suite == name
        assert report.passed
        good, total = report.counts
        assert good == total == len(report.checks)
        assert total > 0
        assert isinstance(report.parameters, dict)
        assert isinstance(report.wall_time_s, float)
        # compared as lists of lines: pytest's diff of two long strings
        # that differ on many lines takes minutes
        assert report.to_json().splitlines(True) == json.dumps(
            report.to_json_dict(), ensure_ascii=False, indent=2
        ).splitlines(True)

    @pytest.mark.parametrize("name", ["mult-even", "comult-odd"])
    def test_specialized_mode_passes(self, name):
        report = run_suite(name, SMALL_BOUNDS[name], "specialized")
        assert report.passed
        assert "specialized" in str(report.parameters)

    def test_qidentities_check_ids(self):
        report = run_suite("qidentities", 3)
        ids = {c.id for c in report.checks}
        assert ids == {
            "qint-pair-sum",
            "qint-pair-product",
            "qint-cross-difference",
            "qint-doubling",
            "qint-product-balance",
        }

    def test_pbw_core_check_ids(self):
        report = run_suite("pbw-core", 4)
        ids = {c.id for c in report.checks}
        expected = {
            "k-inverse",
            "associativity",
            "confluence",
            "merge-f",
            "merge-e",
            "cross-relation",
            "hbinom-past-f",
            "hbinom-past-echeck",
            "kpoly-even-even",
            "kpoly-even-odd",
            "kpoly-odd-even",
            "kpoly-odd-odd",
            "delta-homomorphism",
            "coassociativity",
            "comult-divided-f",
        }
        assert ids == expected

    def test_mult_check_ids(self):
        report = run_suite("mult-even", 3)
        ids = {c.id for c in report.checks}
        assert ids == {"divided-power-oracle", "mult-closed", "mult-symmetry"}

    def test_positivity_check_ids_and_witnesses(self):
        report = run_suite("positivity", 4)
        ids = {c.id for c in report.checks}
        assert ids == {"structure-positivity", "weight-sign-profile"}
        # sign profiles carry their witness even on success
        profiled = [c for c in report.checks if c.id == "weight-sign-profile"]
        assert profiled
        assert all(c.witness for c in profiled)

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nonsense")

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            run_suite("chi", 0)
        with pytest.raises(ValueError):
            run_suite("qidentities", 0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_suite("chi", 3, "sometimes")

    def test_resource_ceiling_default(self):
        assert resource_ceiling() == 24
        with pytest.raises(ResourceLimit):
            run_suite("mult-even", 25)

    def test_resource_ceiling_env(self, monkeypatch):
        monkeypatch.setenv("IQSL2_MAX_N", "4")
        assert resource_ceiling() == 4
        with pytest.raises(ResourceLimit):
            run_suite("chi", 5)
        assert run_suite("chi", 4).passed

    def test_qidentities_bound_is_a_cap(self, monkeypatch):
        # identity grids have fixed caps, so a huge bound is not a resource
        # request and must not trip the ceiling
        monkeypatch.setenv("IQSL2_MAX_N", "4")
        report = run_suite("qidentities", 1000)
        assert report.passed
        assert report.parameters["pair_grid"] == 20

    def test_report_json_schema(self):
        report = run_suite("fhy-forms", 3)
        payload = json.loads(report.to_json())
        assert set(payload) == {"suite", "parameters", "checks",
                                "wall_time_s"}
        assert payload["suite"] == "fhy-forms"
        assert payload["checks"]
        for check in payload["checks"]:
            assert {"id", "params", "pass"} <= set(check)
            assert set(check) <= {"id", "params", "pass", "witness"}
            assert isinstance(check["id"], str)
            assert isinstance(check["params"], list)
            assert check["pass"] is True
            if "witness" in check:
                assert isinstance(check["witness"], str)

    @pytest.mark.parametrize("name,bound", [("qidentities", 5), ("chi", 3)])
    def test_determinism(self, name, bound):
        a = run_suite(name, bound).to_json_dict()
        b = run_suite(name, bound).to_json_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b


def _kmul_calls(monkeypatch):
    """Count the kernel products from here on; returns the one-item count."""
    calls = [0]
    kmul = coeff._k.kmul

    def spy(a, b):
        calls[0] += 1
        return kmul(a, b)

    monkeypatch.setattr(coeff._k, "kmul", spy)
    return calls


def _digest(payload):
    """sha256 in perfbench's digest form."""
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestQidentities:
    """The suite decides each check on int images of its factors and
    reruns on LaurentPolys, forming each distinct product once per side of
    an identity, only where the images differ; its report and its failures
    stay those of LaurentPolys alone with one product per check."""

    def test_report_is_byte_identical(self):
        # the laurent-identities digest of perfbench/expected.json
        report = run_suite("qidentities").to_json_dict()
        report.pop("wall_time_s")
        assert _digest(report) == (
            "7744625f9be9c7be8c6099dca13aa4b27034c68c3d00bf7a096fe618e2e9106e")

    def test_memo_hides_no_failure(self, monkeypatch):
        qint = verify.qint

        def corrupt(n):
            # [5] + 1 and [-5] - 1 keep [-n] = -[n]
            p = qint(n)
            if abs(n) == 5:
                p = p + coeff.LaurentPoly.from_int(1 if n > 0 else -1)
            return p

        monkeypatch.setattr(verify, "qint", corrupt)
        failures = run_suite("qidentities").failures()
        counts = {}
        for c in failures:
            counts[c.id] = counts.get(c.id, 0) + 1
        assert counts == {
            "qint-pair-sum": 212,
            "qint-pair-product": 280,
            "qint-cross-difference": 4544,
            "qint-product-balance": 115,
        }
        # the failing checks with their witnesses, as produced when every
        # check formed its own products
        assert _digest([c.to_json_dict() for c in failures]) == (
            "9ce2cdcc5f917b6d5406504ea0eb480d7a081e9ee393734673096c2b1ae1f9c6")

    def test_products_are_qint_products(self, monkeypatch):
        prod = verify._products(qcomb.qint)
        pairs = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
        for a, b in pairs:
            p = prod(a, b)
            expected = qcomb.qint(a) * qcomb.qint(b)
            assert p == expected, (a, b)
            assert str(p) == str(expected), (a, b)
        calls = _kmul_calls(monkeypatch)
        for a, b in pairs:
            prod(a, b)
        assert calls[0] == 0

    def test_int_products_are_packed_qint_products(self):
        pairs = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
        factors = {a: qcomb.qint(a) for a in range(-6, 7)}
        factors.update({(a, b): qcomb.qint(a) * qcomb.qint(b)
                        for a, b in pairs})
        images, unit = verify._kronecker_images(factors)
        prod = verify._products(images.__getitem__)
        for a, b in pairs:
            # a product of two images lies one unit above a packed product
            assert prod(a, b) == images[a, b] * unit, (a, b)

    def test_suite_forms_few_products(self, monkeypatch):
        # 59,431 kernel products when every check formed its own, 6,855
        # with one memo per side of each identity, none when the int
        # images decide every check
        calls = _kmul_calls(monkeypatch)
        assert len(run_suite("qidentities").checks) == 19716
        assert calls[0] == 0

    @staticmethod
    def _rerun_all(monkeypatch):
        """Make every int comparison differ, so that every check reruns
        on LaurentPolys."""

        class Unequal:
            def __add__(self, other):
                return self

            __sub__ = __mul__ = __add__

            def __neg__(self):
                return self

            def __eq__(self, other):
                return False

        x = Unequal()
        monkeypatch.setattr(verify, "_qint_images", lambda *grids: (
            SimpleNamespace(qint=lambda n: x, qint_base=lambda n, m: x,
                            products=lambda: lambda a, b: x, unit=x)))

    @pytest.mark.parametrize("bound", [*range(1, 9), None])
    def test_images_give_the_laurent_report(self, monkeypatch, bound):
        report = run_suite("qidentities", bound)
        self._rerun_all(monkeypatch)
        reran = run_suite("qidentities", bound)
        assert report.parameters == reran.parameters
        assert report.checks == reran.checks
        if bound is None:
            report = report.to_json_dict()
            report.pop("wall_time_s")
            assert _digest(report) == (
                "7744625f9be9c7be8c6099dca13aa4b27034c68c3d00bf7a096fe618e2e9106e")

    def test_width_comes_from_the_factors(self, monkeypatch):
        # 2^32 - q is 0 at q = 2^32, so images at a fixed K = 32 would miss
        # it; K taken from the 1-norms of the factors does not
        qint = verify.qint
        wide = coeff.LaurentPoly({(0, 0): 2 ** 32, (1, 0): -1})

        def corrupt(n):
            p = qint(n)
            if abs(n) == 5:
                p = p + wide if n > 0 else p - wide
            return p

        monkeypatch.setattr(verify, "qint", corrupt)
        failures = run_suite("qidentities").failures()
        counts = {}
        for c in failures:
            counts[c.id] = counts.get(c.id, 0) + 1
        assert counts == {
            "qint-pair-sum": 212,
            "qint-pair-product": 280,
            "qint-cross-difference": 4544,
            "qint-product-balance": 115,
        }
        # the failing checks with their witnesses, as the LaurentPolys
        # alone give them
        assert _digest([c.to_json_dict() for c in failures]) == (
            "34e50e705d0053f0d12914512bb2d2d491207ed349ee307539f57a890f669c37")

    def test_varsigma_factor_is_decided_on_laurent_polys(self, monkeypatch):
        # [5] - 1 + varsigma is [5] at varsigma = 1, where an image that
        # dropped varsigma would find every check equal
        qint = verify.qint
        shift = coeff.LaurentPoly({(0, 1): 1, (0, 0): -1})

        def corrupt(n):
            p = qint(n)
            if abs(n) == 5:
                p = p + shift if n > 0 else p - shift
            return p

        monkeypatch.setattr(verify, "qint", corrupt)
        report = run_suite("qidentities", 6)
        assert not report.passed
        self._rerun_all(monkeypatch)
        assert run_suite("qidentities", 6).checks == report.checks


# any code point but a surrogate, with the characters JSON must escape or
# that the reports carry drawn often
_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\t\n\x00\x1f\x7f\u2028⊗'),
    st.characters(exclude_categories=("Cs",)),
), max_size=12)
_PARAM = st.one_of(st.integers(), _TEXT)


@st.composite
def _reports(draw):
    checks = draw(st.lists(st.builds(
        CheckResult,
        _TEXT,
        st.lists(_PARAM, max_size=4).map(tuple),
        st.booleans(),
        st.one_of(st.none(), st.just(""), _TEXT),
    ), max_size=4))
    wall = draw(st.one_of(
        st.sampled_from([0.0, 1e-05, 123.456]),
        st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    ))
    parameters = draw(st.dictionaries(_TEXT, _PARAM, max_size=4))
    return SuiteReport(draw(_TEXT), parameters, checks, wall)


class TestJsonReport:
    """The streamed report is json.dumps(to_json_dict(), indent=2) to the
    byte, and holds neither the report text nor its dict form in memory."""

    @settings(deadline=None, max_examples=150)
    @given(_reports())
    def test_writer_is_json_dumps(self, report):
        expected = json.dumps(report.to_json_dict(), ensure_ascii=False,
                              indent=2)
        buf = io.StringIO()
        report.write_json(buf)
        assert buf.getvalue() == expected + "\n"
        assert report.to_json() == expected

    def test_largest_report_streams_in_constant_memory(self):
        # the whole-text encoder peaked at 22.6 MB on this report
        report = run_suite("qidentities")
        assert len(report.checks) == 19716
        tracemalloc.start()
        try:
            with open(os.devnull, "w", encoding="utf-8") as fh:
                report.write_json(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_check_result_record(self):
        c = CheckResult("sample-check", (1, "ev"), True)
        assert (c.id, c.params, c.passed, c.witness) == (
            "sample-check", (1, "ev"), True, None)
        assert c == CheckResult(id="sample-check", params=(1, "ev"),
                                passed=True, witness=None)
        assert repr(c) == ("CheckResult(id='sample-check', params=(1, 'ev'), "
                           "passed=True, witness=None)")
        assert hash(c) == hash(("sample-check", (1, "ev"), True, None))
        with pytest.raises(AttributeError):
            c.passed = False
        with pytest.raises(AttributeError):
            c.note = "extra"
        f = CheckResult("sample-check", (2,), False, "difference")
        assert f.to_json_dict() == {"id": "sample-check", "params": [2],
                                    "pass": False, "witness": "difference"}

    def test_suite_report_record(self):
        checks = [CheckResult("sample-check", (0,), False, "difference")]
        r = SuiteReport("chi", {"bound": 1}, checks, 0.001)
        assert r == SuiteReport(suite="chi", parameters={"bound": 1},
                                checks=list(checks), wall_time_s=0.001)
        assert r != SuiteReport("chi", {"bound": 1}, [], 0.001)
        assert repr(r).startswith("SuiteReport(suite='chi', parameters=")
        assert (r.passed, r.counts, r.failures()) == (False, (0, 1), checks)
        with pytest.raises(AttributeError):
            r.note = "extra"


class TestTable:
    def test_trivial_csv(self):
        text = emit_table("odd", 0, "csv")
        assert text == ("family,m,n,l,coefficient,integral,positive\n"
                        "odd,0,0,0,1,true,true\n")

    def test_csv_row_with_drop(self):
        text = emit_table("ev", 3, "csv")
        lines = text.splitlines()
        assert lines[0] == ",".join(TABLE_COLUMNS)
        assert "ev,2,1,1,v + q^2*v,true,true" in lines
        assert "ev,2,1,0,q^-2 + 1 + q^2,true,true" in lines

    def test_json_row(self):
        payload = json.loads(emit_table("ev", 2, "json"))
        assert payload["family"] == "ev"
        assert payload["max_total_degree"] == 2
        match = [r for r in payload["rows"]
                 if (r["m"], r["n"], r["l"]) == (1, 1, 0)]
        assert len(match) == 1
        assert match[0]["coefficient"] == "q^-1 + q"
        assert match[0]["integral"] is True
        assert match[0]["positive"] is True

    def test_row_order(self):
        rows = table_rows("odd", 5)
        keys = [(r[1], r[2], r[3]) for r in rows]
        assert keys == sorted(keys)

    def test_row_degree_consistency(self):
        # l is the drop index, so 0 <= 2l <= m + n on every row
        for fam in ("ev", "odd"):
            for row in table_rows(fam, 6):
                _, m, n, l, coeff, integral, positive = row
                assert 0 <= 2 * l <= m + n
                assert isinstance(coeff, str) and coeff
                if positive:
                    assert integral

    @pytest.mark.parametrize("family", ["ev", "odd"])
    def test_csv_is_the_csv_writer_output(self, family):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for row in table_rows(family, 12):
            writer.writerow([*row[:5], *("true" if flag else "false"
                                         for flag in row[5:])])
        assert emit_table(family, 12, "csv") == buf.getvalue()
        # so no field of the order-24 table needs quoting either
        texts = {row[4] for row in table_rows(family, 24)}
        assert not any(set(text) & set(',"\r\n') for text in texts)

    # sha256 of the whole order-24 CSV tables, as first emitted by the
    # multiply-then-gcd construction of the structure constants
    TABLE_24_SHA256 = {
        "ev": "aa83bd6a7253574471b2d206375485a8c0506f7953fd7111690666a34d8def9a",
        "odd": "a7e907862356772aefc2f72b9a5dda1e3835c6cdeb325fc0e74cacb141f74fd8",
    }

    @pytest.mark.parametrize("family", ["ev", "odd"])
    def test_order_24_table_is_byte_identical(self, family):
        text = emit_table(family, 24, "csv")
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.TABLE_24_SHA256[family]

    # sha256 of the whole order-24 JSON tables, as first pinned with the
    # per-term text formatter
    TABLE_24_JSON_SHA256 = {
        "ev": "37c176b993786ea73b4639a8f10eabd0cc6a58b043d788c5c06fa997baff820c",
        "odd": "e69494d017ef92820206de0f38f39f0b42f1e4a4c5d47fcd44efd5bea0b3d10e",
    }

    @pytest.mark.parametrize("family", ["ev", "odd"])
    def test_order_24_json_table_is_byte_identical(self, family):
        text = emit_table(family, 24, "json")
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.TABLE_24_JSON_SHA256[family]

    # gcd calls at order 24: every coefficient is a sum of ratios built in
    # lowest terms, and only the sums of two ratios (family odd, m and n
    # odd) are reduced by a gcd, in 22 of the 70 distinct pairs, each
    # added once
    TABLE_24_GCDS = {"ev": 0, "odd": 22}

    @pytest.mark.parametrize("family", ["ev", "odd"])
    def test_order_24_table_divides_nothing(self, family, monkeypatch):
        calls = {"gcd": 0, "gcd outside a sum": 0, "div": 0}
        adding = []

        def spy(name, real):
            def call(*args):
                calls[name] += 1
                if name == "gcd" and not adding:
                    calls["gcd outside a sum"] += 1
                return real(*args)
            return call

        def add(a, b):
            adding.append(1)
            try:
                return real_add(a, b)
            finally:
                adding.pop()

        real_add = coeff.Scalar.__add__
        monkeypatch.setattr(coeff, "_uni_gcd", spy("gcd", coeff._uni_gcd))
        monkeypatch.setattr(coeff, "_div_exact_raw",
                            spy("div", coeff._div_exact_raw))
        monkeypatch.setattr(coeff.Scalar, "__add__", add)
        emit_table(family, 24, "csv")
        assert calls == {"gcd": self.TABLE_24_GCDS[family],
                         "gcd outside a sum": 0, "div": 0}

    def test_a_corrupted_pair_of_ratios_changes_only_its_row(self,
                                                             monkeypatch):
        # the rows are keyed on the whole tuple of ratios: the pair of
        # (5, 3) at l = 1 with its second ratio times q^2 is no longer that
        # of (3, 5), and is written on its own
        expected = table_rows("odd", 8)
        terms = verify._mult_closed_terms

        def corrupted(p, m, n):
            out = terms(p, m, n)
            if (m, n) == (5, 3):
                first, second = out[6]
                out[6] = [first, cyclo.vmul(second, (1, 2, 0, 0))]
            return out

        monkeypatch.setattr(verify, "_mult_closed_terms", corrupted)
        rows = table_rows("odd", 8)
        assert len(rows) == len(expected)
        changed = [(a[:4], b[:4]) for a, b in zip(expected, rows) if a != b]
        assert changed == [(("odd", 5, 3, 1), ("odd", 5, 3, 1))]

    def test_determinism(self):
        assert emit_table("ev", 5, "csv") == emit_table("ev", 5, "csv")
        assert emit_table("odd", 5, "json") == emit_table("odd", 5, "json")

    def test_errors(self, monkeypatch):
        with pytest.raises(ValueError):
            table_rows("even", 3)
        with pytest.raises(NegativeInput):
            table_rows("ev", -1)
        with pytest.raises(ValueError):
            emit_table("ev", 2, "xml")
        monkeypatch.setenv("IQSL2_MAX_N", "4")
        with pytest.raises(ResourceLimit):
            table_rows("ev", 5)


def test_bad_format_or_basis_raises_before_any_work(monkeypatch):
    calls = []
    for name in ("mult_closed", "_mult_closed_terms", "idp_closed",
                 "_pbw_closed"):
        monkeypatch.setattr(verify, name, lambda *a, _n=name: calls.append(_n))
    with pytest.raises(ValueError, match="unknown table format"):
        emit_table("odd", 24, "xml")
    with pytest.raises(ValueError, match="unknown basis"):
        expand_idp("odd", 6, basis="x")
    assert calls == []


class TestExpand:
    def test_idp_trivial_pbw(self):
        assert expand_idp("ev", 0, "pbw") == str(UElement.one())

    def test_comult_trivial(self):
        expected = str(TensorElement.one())
        for form in ("theorem", "fhy", "direct"):
            assert expand_comult("ev", 0, form) == expected
            assert expand_comult("odd", 0, form) == expected

    @pytest.mark.parametrize("parity", ["ev", "odd"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_comult_forms_byte_identical(self, parity, n):
        theorem = expand_comult(parity, n, "theorem")
        assert theorem == expand_comult(parity, n, "direct")
        assert theorem == expand_comult(parity, n, "fhy")

    @pytest.mark.parametrize("parity", ["ev", "odd"])
    def test_idp_pbw_is_the_substituted_closed_form(self, parity):
        for n in range(13):
            expected = str(idp.idp_to_pbw(idp.idp_closed(parity, n)))
            assert expand_idp(parity, n, "pbw") == expected, n

    def test_chi_report_is_byte_identical(self):
        # sha256 of the default chi report without its timing, as first
        # produced on the substituted closed form idp_to_pbw(idp_closed)
        report = run_suite("chi").to_json_dict()
        report.pop("wall_time_s")
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c8f377551e5a7404735e3f81fdf9d48dc8dfec6ac82cba206348302e3f14f6a6")

    # sha256 of the text, as produced before the PBW images were built on
    # integral numerators
    TEXT_SHA256 = {
        ("comult", "ev"):
            "5dcb6f76014bfd87d6a386060c58c59ec53ef21cfa78bc67f5057c1ad8ffb9ce",
        ("comult", "odd"):
            "d7c05a5e9a301a341f425fa8e66d168763dd6ee59ac22aeb3db49106e836002f",
        ("idp", "ev"):
            "5c026d8e842ec489185b9105bdc66a3f021366e9ce8f3f9724a30464d86e394c",
        ("idp", "odd"):
            "5d037745703631237fae1b13541643ce4a4b75981d833cbb79e056df367f4d5d",
    }

    @pytest.mark.parametrize("parity", ["ev", "odd"])
    def test_text_is_byte_identical_at_a_nontrivial_order(self, parity):
        texts = {"comult": expand_comult(parity, 8, "theorem"),
                 "idp": expand_idp(parity, 12, "pbw")}
        for kind, text in texts.items():
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == self.TEXT_SHA256[kind, parity], kind

    # sha256 of the text, as produced while the images and the legs had a
    # second construction on Scalars
    HIGH_TEXT_SHA256 = {
        ("direct", "ev"):
            "86e1a62a7350cbbd43a667fb2e3242b6855a1376bb1007f107f6560623b02897",
        ("direct", "odd"):
            "f41ab4c1a2a5fd839fa12d55cb2a6e0185a2f834a3f4cc04d1044cc6097a14db",
        ("idp", "ev"):
            "edfd63dbf4afef3f192c9fc50a150862b062737b7df8ee5ea99dadb83304c806",
        ("idp", "odd"):
            "4d18f5f7a5f414e0e319b7d0b668bc268c9c7b86bd6cc17f6c182705c7875917",
    }

    @pytest.mark.parametrize("parity", ["ev", "odd"])
    def test_text_is_byte_identical_at_a_higher_order(self, parity):
        texts = {"direct": expand_comult(parity, 10, "direct"),
                 "idp": expand_idp(parity, 16, "pbw")}
        for kind, text in texts.items():
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == self.HIGH_TEXT_SHA256[kind, parity], kind

    def test_idp_basis_forms_differ_but_agree_semantically(self):
        b_form = expand_idp("odd", 2, "B")
        pbw_form = expand_idp("odd", 2, "pbw")
        assert b_form != pbw_form
        assert "B" in b_form
        assert "B" not in pbw_form

    def test_errors(self):
        with pytest.raises(NegativeInput):
            expand_idp("ev", -1)
        with pytest.raises(NegativeInput):
            expand_comult("odd", -2)
        with pytest.raises(ValueError):
            expand_idp("ev", 2, "weyl")
        with pytest.raises(ValueError):
            expand_comult("ev", 2, "indirect")

    @pytest.mark.parametrize("basis", ["B", "pbw"])
    def test_idp_checks_family_and_order_in_both_bases(self, basis):
        with pytest.raises(ValueError, match="unknown family 'xx'"):
            expand_idp("xx", 4, basis)
        with pytest.raises(NegativeInput, match="divided power of negative order"):
            expand_idp("ev", -1, basis)


class TestGoldenFiles:
    """The committed golden files regenerate bit-exactly."""

    @pytest.mark.parametrize("family", ["ev", "odd"])
    def test_mult_golden(self, family):
        path = GOLDEN_DIR / f"mult_{family}.txt"
        expected = "".join(line + "\n" for line in golden_mult_lines(family))
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("family", ["ev", "odd"])
    def test_comult_golden(self, family):
        path = GOLDEN_DIR / f"comult_{family}.txt"
        expected = "".join(
            line + "\n" for line in golden_comult_lines(family)
        )
        assert path.read_text(encoding="utf-8") == expected

    def test_mult_golden_linecounts(self):
        assert len(golden_mult_lines("ev")) == 18
        assert len(golden_mult_lines("odd")) == 24
        assert len(golden_comult_lines("ev")) == 2
        assert len(golden_comult_lines("odd")) == 2


# Prints, as JSON, the names of each module-level dict of iqsl2.* that
# grows while the suites given in argv[1] run, one list per dict.
_GROWN_DICTS = """
import importlib, json, pkgutil, sys
import iqsl2
mods = [iqsl2] + [importlib.import_module("iqsl2." + m.name)
                  for m in pkgutil.iter_modules(iqsl2.__path__)]
seen = {}
for mod in mods:
    for name, v in vars(mod).items():
        if isinstance(v, dict) and not name.startswith("__"):
            seen.setdefault(id(v), (v, len(v), []))[2].append(
                mod.__name__ + "." + name)
for suite, bound in json.loads(sys.argv[1]):
    iqsl2.run_suite(suite, bound)
print(json.dumps([names for v, n, names in seen.values() if len(v) > n]))
"""


class TestClearCaches:
    """iqsl2.clear_caches empties every memo cache and changes no result."""

    # chi reads the Scalar images, which the comult suites no longer build
    SUITES_RUN = (("comult-odd", 3), ("mult-even", 4), ("pbw-core", 3),
                  ("chi", 1))
    MEMOS = (
        (pbw, "_MONO_CACHE"), (pbw, "_CDIV_CACHE"), (pbw, "_HBINOM_CACHE"),
        (tensor, "_DELTA_MONO_CACHE"), (tensor, "_DELTA_POW_VEC"),
        (idp, "_NUMERATOR_CACHE"), (idp, "_CLOSED_CACHE"), (idp, "_REC_CACHE"),
        (idp, "_PBW_CLOSED_CACHE"), (idp, "_PBW_VEC_CACHE"),
        (idp, "_HBINOM_VEC_CACHE"),
        (cyclo, "_CYCLOTOMIC_CACHE"), (cyclo, "_DIVISOR_MASKS"),
        (cyclo, "_PHI_VALUES"),
        (coeff, "_QPOW"),
    )
    LRU = (qcomb.qint, qcomb.qfact, qcomb.qbinom)

    def _reports(self):
        out = []
        for name, bound in self.SUITES_RUN:
            report = run_suite(name, bound).to_json_dict()
            report.pop("wall_time_s")
            out.append(json.dumps(report, sort_keys=True))
        # the mult suites build the recursive divided powers only on
        # fallback, so no suite run fills their memo
        out.append(str(idp.idp_recursive(idp.EV, 4)))
        return out

    def _sizes(self):
        sizes = {f"{m.__name__}.{a}": len(getattr(m, a))
                 for m, a in self.MEMOS}
        sizes.update({fn.__name__: fn.cache_info().currsize for fn in self.LRU})
        return sizes

    def test_clear_keeps_reports_and_empties_caches(self):
        objects = [getattr(m, a) for m, a in self.MEMOS]
        first = self._reports()
        assert all(self._sizes().values())
        iqsl2.clear_caches()
        assert not any(self._sizes().values())
        # cleared in place: the module attributes are the same objects
        assert all(getattr(m, a) is o
                   for (m, a), o in zip(self.MEMOS, objects))
        assert self._reports() == first

    def test_cache_info_counts_every_memo(self):
        iqsl2.clear_caches()
        self._reports()
        info = iqsl2.cache_info()
        names = {f"{m.__name__}.{a}" for m, a in self.MEMOS}
        assert set(info) == names | {f"iqsl2.qcomb.{fn.__name__}"
                                     for fn in self.LRU}
        assert all(info.values())
        iqsl2.clear_caches()
        assert iqsl2.cache_info() == dict.fromkeys(info, 0)

    def test_every_memo_that_grows_is_cleared(self):
        # a module-level dict of the package that a run fills is a memo, and
        # clear_caches must empty it: a memo added later cannot escape. A
        # fresh interpreter, since in this one the memos may be full already
        src = str(pathlib.Path(iqsl2.__file__).parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", _GROWN_DICTS, json.dumps(self.SUITES_RUN)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        grown = json.loads(out.stdout)
        cleared = {f"{m.__name__}.{a}" for m, a in self.MEMOS}
        assert grown
        assert [names for names in grown if not cleared & set(names)] == []

    def test_clear_reaches_lru_caches_behind_rebound_names(self, monkeypatch):
        # a profiler may rebind the module names to plain wrappers, which
        # have no cache_clear; the cached functions must still be emptied
        for fn in self.LRU:
            monkeypatch.setattr(qcomb, fn.__name__,
                                lambda *args, _fn=fn: _fn(*args))
        qcomb.qbinom(6, 3)
        qcomb.qfact(4)
        assert all(fn.cache_info().currsize for fn in self.LRU)
        iqsl2.clear_caches()
        assert [fn.cache_info().currsize for fn in self.LRU] == [0, 0, 0]


class TestComultVectors:
    """The comult suites decide their checks on cyclotomic exponent vectors
    and fall back to the Scalar constructions for the rest, with the same
    report bytes."""

    # perfbench digest form; the first is the comult-verify digest of
    # perfbench/expected.json, all as produced on the Scalar path alone
    REPORTS = {
        ("comult-odd", 10, "generic"):
            "a300990313d7390e31a830d52457b55f4bf00e42510b050e3dd6f7862fd68ba5",
        ("comult-even", 10, "generic"):
            "6f05c88addccd21919bea51250dff313ef006f4517f5cd401039752cd6dcc862",
        ("comult-odd", 8, "specialized"):
            "095d96e98f5fc2430cc3dff5ee4e937b0937fa15f29c45f768234d33ab36c206",
        ("comult-odd", 14, "generic"):
            "e29db47cd26941e3a03a6beb9f1d88483cb9aef90dc273ef411e284aa39a66af",
        ("comult-even", 14, "generic"):
            "65c3a8d69793cc939e6dafa714dd9d064f966e6f3a176320b71e792b11e570e3",
        # taken on the exponent vectors before their exponents were packed
        ("comult-odd", 16, "generic"):
            "1fa0f464ae750b79bb043d9b20675d88990a9ae056fa89388cc6e9e216d9b5fa",
        ("comult-even", 16, "generic"):
            "eb19dd33877ef79e81bbc365846f40f6e1e8f8b4a818cf2747f0a3fed782e2fa",
    }

    @staticmethod
    def _report(name, bound, mode="generic"):
        report = run_suite(name, bound, mode).to_json_dict()
        report.pop("wall_time_s")
        return report

    @pytest.mark.parametrize("name,bound,mode", sorted(REPORTS))
    def test_report_is_byte_identical(self, name, bound, mode):
        digest = _digest(self._report(name, bound, mode))
        assert digest == self.REPORTS[name, bound, mode]

    @pytest.mark.parametrize("name", ["comult-odd", "comult-even"])
    def test_vectors_decide_every_check_at_bound_10(self, name, monkeypatch):
        def scalar_path(p, n):
            raise AssertionError(f"Scalar fallback at {p} {n}")

        monkeypatch.setattr(verify, "comult_theorem", scalar_path)
        monkeypatch.setattr(verify, "comult_direct", scalar_path)
        report = run_suite(name, 10)
        assert report.passed and len(report.checks) == 11

    @pytest.mark.parametrize("name", ["comult-odd", "comult-even"])
    def test_unproved_sums_fall_back_to_the_same_report(self, name,
                                                        monkeypatch):
        expected = self._report(name, 8)
        fallbacks = []
        theorem = verify.comult_theorem

        def spy(p, n):
            fallbacks.append(n)
            return theorem(p, n)

        monkeypatch.setattr(idp, "vsum", lambda terms, dmax: None)
        monkeypatch.setattr(verify, "comult_theorem", spy)
        assert self._report(name, 8) == expected
        assert fallbacks == list(range(9))

    @staticmethod
    def _fresh_images(monkeypatch):
        # build the images inside the test, and keep what it patches out of
        # the memos of later tests: the Scalar images are taken from the
        # vector images
        monkeypatch.setattr(idp, "_PBW_VEC_CACHE", {})
        monkeypatch.setattr(idp, "_PBW_CLOSED_CACHE", {})

    @pytest.mark.parametrize("name", ["comult-odd", "comult-even"])
    def test_scalar_images_run_only_at_the_anchor(self, name, monkeypatch):
        # the plain substitution runs once, to check the vector image of
        # order _ANCHOR
        substituted = []
        to_pbw = idp.idp_to_pbw

        def spy(x):
            substituted.append(x.degree())
            return to_pbw(x)

        self._fresh_images(monkeypatch)
        monkeypatch.setattr(idp, "idp_to_pbw", spy)
        report = run_suite(name, 10)
        assert report.passed and len(report.checks) == 11
        assert substituted == [idp._ANCHOR]

    @pytest.mark.parametrize("name", ["comult-odd", "comult-even"])
    def test_a_wrong_b_step_stops_at_the_anchor(self, name, monkeypatch):
        step = idp._rmul_B_vectors

        def wrong_step(terms):
            # drop the terms of one monomial
            out = step(terms)
            del out[max(out)]
            return out

        self._fresh_images(monkeypatch)
        monkeypatch.setattr(idp, "_rmul_B_vectors", wrong_step)
        with pytest.raises(AssertionError, match="is not the PBW image"):
            run_suite(name, 3)

    @pytest.mark.parametrize("name", ["comult-odd", "comult-even"])
    def test_an_unproved_image_falls_back_from_its_order(self, name,
                                                         monkeypatch):
        expected = self._report(name, 10)
        fallbacks = []
        theorem = verify.comult_theorem
        build = idp._pbw_vectors

        def spy(p, n):
            fallbacks.append(n)
            return theorem(p, n)

        self._fresh_images(monkeypatch)
        monkeypatch.setattr(idp, "_pbw_vectors",
                            lambda p, n: None if n == 7 else build(p, n))
        monkeypatch.setattr(verify, "comult_theorem", spy)
        assert self._report(name, 10) == expected
        assert fallbacks == [7, 8, 9, 10]

    def test_reversed_legs_check_the_forward_legs(self, monkeypatch):
        # the forward legs have one construction, from exponent vectors; the
        # reversed legs, built by products in the PBW basis, must catch a
        # wrong coefficient of it, and so must the coproduct check
        h_binom = idp._h_binom_vectors

        def corrupted(a, c):
            vs = list(h_binom(a, c))
            if c >= 1:
                sign, i, j, exps = vs[0]
                vs[0] = (-sign, i, j, exps)
            return vs

        monkeypatch.setattr(idp, "_h_binom_vectors", corrupted)
        assert not run_suite("fhy-forms", 4).passed
        assert not run_suite("comult-odd", 5).passed

    def test_corrupted_leg_keeps_its_witness(self, monkeypatch):
        style = idp._leg_exponent_style
        monkeypatch.setattr(
            idp, "_leg_exponent_style",
            lambda p, n: style(p, n) != (n == 4))
        report = run_suite("comult-odd", 5)
        failures = report.failures()
        assert [(c.id, c.params) for c in failures] == [("comult-theorem", (4,))]
        # as produced on the Scalar path alone
        witness = hashlib.sha256(failures[0].witness.encode()).hexdigest()
        assert witness == (
            "254a0af46a4cea92b707095f6dfd9f0a3860b8316b278d2ac8939b9212beb583")
        report = report.to_json_dict()
        report.pop("wall_time_s")
        assert _digest(report) == (
            "6ebd3e38a59d6be18a775fb2b39b390af97f9d93ea38068bb315ab779e348d79")


class TestMultVectors:
    """The mult suites decide their checks on the cyclotomic exponent
    vectors of both sides at the points X_i = q varsigma [i]^2 and fall
    back to the Scalar constructions for the rest, with the same report
    bytes."""

    # perfbench digest form; the first is the mult-verify digest of
    # perfbench/expected.json, all as produced on the Scalar path alone
    REPORTS = {
        ("mult-even", 16, "specialized"):
            "3df1a979bd2ecc73b6fad9177387b328e96c04dd3c5cc04acdb710c2cd7b5e61",
        ("mult-even", 24, "specialized"):
            "717fde5b48962384ab013e2c7d249f92ec29dc5fd69c75c8e3037d96c56dd793",
        ("mult-odd", 24, "specialized"):
            "a08fa61ee16ae2d96c6dab2830fd84074e06fb9baa4f284e60bf1c80186acd19",
        ("mult-even", 16, "generic"):
            "1c7a98c5771c6d2d51b67e884464d83c0ffa001b3d383e286ba0b481e314fbd2",
        ("mult-odd", 16, "generic"):
            "2a4a9ab97a90431a1d7c46889474f33335ed428bdfab607bb8993d1f66da1be4",
        ("mult-odd", 16, "specialized"):
            "8a8885ddfdaf33cda2f4cbee79e71d35bd4f2f721be373f6192bf4e6e042e505",
        ("mult-even", 12, "generic"):
            "1fc5aaa3bd345af4133cfa8887b93eb50533207e32ad5ca87495ae2f75e296e1",
    }

    _report = staticmethod(TestComultVectors._report)

    @staticmethod
    def _spy(monkeypatch, name):
        seen = []
        fn = getattr(verify, name)

        def spy(p, *orders):
            seen.append(orders)
            return fn(p, *orders)

        monkeypatch.setattr(verify, name, spy)
        return seen

    @pytest.mark.parametrize("name,bound,mode", sorted(REPORTS))
    def test_report_is_byte_identical(self, name, bound, mode):
        digest = _digest(self._report(name, bound, mode))
        assert digest == self.REPORTS[name, bound, mode]

    def test_vectors_decide_every_mult_even_check(self, monkeypatch):
        def scalar_path(p, m, n):
            raise AssertionError(f"Scalar fallback at {p} {m} {n}")

        monkeypatch.setattr(verify, "mult_direct", scalar_path)
        monkeypatch.setattr(verify, "mult_closed", scalar_path)
        report = run_suite("mult-even", 16)
        assert report.passed and len(report.checks) == 251

    @pytest.mark.parametrize("name", ["mult-even", "mult-odd"])
    def test_points_decide_every_check(self, name, monkeypatch):
        # the both-odd pairs of the "odd" family included, whose coefficient
        # is a sum of two ratios
        spies = [self._spy(monkeypatch, fn) for fn in (
            "mult_direct", "mult_closed", "idp_closed", "idp_recursive")]
        digest = _digest(self._report(name, 16))
        assert digest == self.REPORTS[name, 16, "generic"]
        assert spies == [[], [], [], []]

    @pytest.mark.parametrize("name", ["mult-even", "mult-odd"])
    @pytest.mark.parametrize("unproved", ["vsum"])
    def test_unproved_vectors_fall_back_to_the_same_report(
            self, name, unproved, monkeypatch):
        expected = self._report(name, 10, "specialized")
        monkeypatch.setattr(idp, unproved, lambda terms, dmax: None)
        direct = self._spy(monkeypatch, "mult_direct")
        oracle = self._spy(monkeypatch, "idp_recursive")
        assert self._report(name, 10, "specialized") == expected
        # f_0 = f_1 = 1 need no sum
        assert len(direct) == 66 and oracle == [(n,) for n in range(2, 11)]

    def test_symmetry_takes_the_mult_closed_proofs(self, monkeypatch):
        # the closed sides are built at the points once per distinct closed
        # terms, by mult-closed: (n, m) shares the decision of (m, n), whose
        # terms it equals, and no check reaches the Scalars
        agreed, sides = [], []
        agrees = verify._mult_agrees
        points = idp._mult_closed_points

        def spy_agrees(terms, m, n, values):
            agreed.append((m, n))
            return agrees(terms, m, n, values)

        def spy_points(terms, m, n, values):
            sides.append((m, n))
            return points(terms, m, n, values)

        monkeypatch.setattr(verify, "_mult_agrees", spy_agrees)
        monkeypatch.setattr(idp, "_mult_closed_points", spy_points)
        closed = self._spy(monkeypatch, "mult_closed")
        digest = _digest(self._report("mult-even", 16))
        assert digest == self.REPORTS["mult-even", 16, "generic"]
        pairs = [(m, n) for m in range(17) for n in range(m, 17 - m)]
        assert len(pairs) == 81
        assert agreed == pairs and sides == pairs and closed == []

    def test_an_unproved_pair_reruns_its_symmetry_on_scalars(self,
                                                            monkeypatch):
        agrees = verify._mult_agrees
        monkeypatch.setattr(
            verify, "_mult_agrees",
            lambda terms, m, n, values: (m, n) != (3, 5)
            and agrees(terms, m, n, values))
        direct = self._spy(monkeypatch, "mult_direct")
        closed = self._spy(monkeypatch, "mult_closed")
        digest = _digest(self._report("mult-even", 16))
        assert digest == self.REPORTS["mult-even", 16, "generic"]
        # (5, 3) shares the decision of (3, 5), whose closed terms it
        # equals: mult-closed (3, 5) and (5, 3), then both sides of
        # mult-symmetry (3, 5)
        assert direct == [(3, 5), (5, 3)]
        assert closed == [(3, 5), (5, 3), (3, 5), (5, 3)]

    # (_mult_agrees calls, idp.vsum calls) at bound 16, specialized: one
    # decision for each of the 81 distinct closed terms of the 153 pairs,
    # and the sums of the divided-power oracle
    WORK_16 = {"mult-even": (81, 352), "mult-odd": (81, 360)}

    @pytest.mark.parametrize("name", sorted(WORK_16))
    def test_each_distinct_product_is_decided_once(self, name, monkeypatch):
        calls = {"agrees": 0, "vsum": 0}

        def spy(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(verify, "_mult_agrees",
                            spy("agrees", verify._mult_agrees))
        monkeypatch.setattr(idp, "vsum", spy("vsum", idp.vsum))
        digest = _digest(self._report(name, 16, "specialized"))
        assert digest == self.REPORTS[name, 16, "specialized"]
        assert (calls["agrees"], calls["vsum"]) == self.WORK_16[name]

    # mult-even 8 with the top ratio of the closed terms of (5, 3) alone
    # times q^2, as produced with one decision per pair
    CORRUPTED_TERMS = {
        "generic": "0f7ff2edcb4c1d441d40323bc08915de"
                   "1a52bbcb2f311f25d91678963f4472cf",
        "specialized": "fa53514e6aaa73c40c459d295f36fcf1"
                       "5b0927bb3b8b09574d7b9921d6806e08",
    }

    @pytest.mark.parametrize("mode", sorted(CORRUPTED_TERMS))
    def test_corrupted_terms_of_one_pair_are_decided_alone(self, mode,
                                                          monkeypatch):
        # the decision is keyed on the closed terms, so (5, 3), whose terms
        # no longer equal those of (3, 5), cannot take its pass
        terms = idp._mult_closed_terms

        def corrupted(p, m, n):
            out = terms(p, m, n)
            if (m, n) == (5, 3):
                out[8] = [cyclo.vmul(out[8][0], (1, 2, 0, 0))]
            return out

        monkeypatch.setattr(idp, "_mult_closed_terms", corrupted)
        monkeypatch.setattr(verify, "_mult_closed_terms", corrupted)
        report = self._report("mult-even", 8, mode)
        failures = [(c["id"], c["params"]) for c in report["checks"]
                    if not c["pass"]]
        assert failures == [("mult-closed", [5, 3]), ("mult-symmetry", [3, 5])]
        assert _digest(report) == self.CORRUPTED_TERMS[mode]
        monkeypatch.setattr(idp, "vsum", lambda terms, dmax: None)
        assert self._report("mult-even", 8, mode) == report

    def test_decisions_are_kept_by_no_module_cache(self):
        run_suite("mult-even", 16)
        info = iqsl2.cache_info()
        run_suite("mult-even", 16)
        assert iqsl2.cache_info() == info

    def test_a_shifted_factor_index_gives_the_scalar_report(self,
                                                           monkeypatch):
        # the points take the factor indices at call time, as the Scalar
        # constructions do; fresh memos keep the shifted numerators from
        # later tests
        index = idp._factor_index
        monkeypatch.setattr(idp, "_factor_index",
                            lambda p, n: index(p, n) + 2 * (n == 6))
        monkeypatch.setattr(idp, "_NUMERATOR_CACHE", {})
        monkeypatch.setattr(idp, "_CLOSED_CACHE", {})
        report = self._report("mult-odd", 10)
        oracle = [c["params"] for c in report["checks"]
                  if c["id"] == "divided-power-oracle" and not c["pass"]]
        assert oracle == [[6], [8], [10]]
        monkeypatch.setattr(idp, "vsum", lambda terms, dmax: None)
        assert self._report("mult-odd", 10) == report

    def test_corrupted_offsets_keep_their_witnesses(self, monkeypatch):
        monkeypatch.setitem(idp._MULT_OFFSETS, (idp.EV, 1, 0), (2, 3, 4))
        # as produced on the Scalar path alone; the specialized report
        # writes the mult-symmetry witnesses, like those of mult-closed,
        # from the specialized sides
        digests = {
            "generic": "d47138638c1253e332853427750c6097"
                       "d6a5323882b379d954bcf8d68f839c21",
            "specialized": "a191c76d95026d2323193d2c23a7b1c0"
                           "d795a2ab01077d232ed211336b11f2c1",
        }
        reports = {}
        for mode, digest in digests.items():
            report = reports[mode] = self._report("mult-even", 8, mode)
            failures = [(c["id"], c["params"]) for c in report["checks"]
                        if not c["pass"]]
            assert len(failures) == 12
            assert ({cid for cid, _ in failures}
                    == {"mult-closed", "mult-symmetry"})
            assert _digest(report) == digest
        monkeypatch.setattr(idp, "vsum", lambda terms, dmax: None)
        for mode, report in reports.items():
            assert self._report("mult-even", 8, mode) == report

    # (mode, check id, failures) -> digest of mult-even 8 with one closed
    # side times q varsigma where the points are not asked: mult_closed at
    # (5, 3), which mult-closed (5, 3) and mult-symmetry (3, 5) compare, or
    # idp_closed at n = 4, which divided-power-oracle (4) compares.
    # Specialized, both differences vanish at varsigma = q^-1, and the
    # report is the clean one
    CORRUPTED_QVS = {
        ("generic", "mult-symmetry", 2):
            "308ff10cf41f60c48707117a669ea019818793c29d1484f33ca72294bc30ea3e",
        ("generic", "divided-power-oracle", 1):
            "995f5f28035a1959e53608e3d7bfd67f08063ea6545078c2bf27ae980c4d5569",
        ("specialized", "mult-symmetry", 0):
            "325e80a6782f0b401cf449a42df5dc3b2b754ac8ceb6ea97fc5b611913502f50",
        ("specialized", "divided-power-oracle", 0):
            "325e80a6782f0b401cf449a42df5dc3b2b754ac8ceb6ea97fc5b611913502f50",
    }

    @pytest.mark.parametrize("mode,cid,failures", sorted(CORRUPTED_QVS))
    def test_a_difference_vanishing_at_the_specialization(
            self, mode, cid, failures, monkeypatch):
        qvs = coeff.Scalar.vs_power(1, 1)
        if cid == "mult-symmetry":
            agrees, closed = verify._mult_agrees, verify.mult_closed
            monkeypatch.setattr(
                verify, "_mult_agrees",
                lambda terms, m, n, values: (m, n) not in ((3, 5), (5, 3))
                and agrees(terms, m, n, values))
            monkeypatch.setattr(
                verify, "mult_closed",
                lambda p, m, n: {d: s * qvs for d, s in closed(p, m, n).items()}
                if (m, n) == (5, 3) else closed(p, m, n))
        else:
            closed = verify.idp_closed
            monkeypatch.setattr(verify, "_recursive_points", lambda p, b: [])
            monkeypatch.setattr(
                verify, "idp_closed",
                lambda p, n: closed(p, n).scale(qvs) if n == 4
                else closed(p, n))
        report = self._report("mult-even", 8, mode)
        assert sum(not c["pass"] for c in report["checks"]) == failures
        assert _digest(report) == self.CORRUPTED_QVS[mode, cid, failures]


# the factor of a corrupted leg or coproduct side: q^2 differs from 1 in
# both modes, q varsigma only in generic mode, as it is 1 at varsigma = q^-1
_FACTORS = {"q2": coeff.Scalar.q_power(2), "qvs": coeff.Scalar.vs_power(1, 1)}


class TestReferenceRules:
    """The reports of the suites that the Scalar reference code decides:
    the leg recursion, the reversed legs, and a coproduct check the vectors
    do not prove. In specialized mode a difference that vanishes at
    varsigma = q^-1 passes, and any other failure keeps its witness."""

    _report = staticmethod(TestComultVectors._report)

    CLEAN = {
        ("fhy-forms", 6, "generic"):
            "68254022e030108d14db5cee2b36233fa48c68d22baf7a8702b4f5e254f14972",
        ("fhy-forms", 6, "specialized"):
            "23ca8077032f7196e8dcdf7ffc3663c3a4c84cd80a3932de48dc146f09887d39",
        ("proof-recurrences", 8, "generic"):
            "a3881b0889661f6eb40e7ce78bdc6633cf54e75828eccf6e1e0e0a4169f4d6cf",
        ("proof-recurrences", 8, "specialized"):
            "c4b2d0ebf70461c6a8e4a0339f15b69a86b22ff3f361947d7ac9268e4e9945e7",
        ("proof-recurrences", 12, "generic"):
            "0bcbb3e38534c46dd3dc40ca39c689b1bb52c31215a2cd4bf37f2d0b8434fb81",
        ("proof-recurrences", 12, "specialized"):
            "937b18c4cfab3940585807ea66d8ef5e082709f32a915e075a3b06ef5be2a136",
    }

    # (suite, bound, mode, factor of S(4, 2), failures) -> digest
    LEGS = {
        ("fhy-forms", 6, "generic", "q2", 2):
            "0a1630d563f2cfdd71ce85c3d520d98d6fbdb65a49d65aba7458d2e9214dec3e",
        ("fhy-forms", 6, "specialized", "q2", 2):
            "59a2241af68effd4122ba06ab42a01c2178fab02fda5c67c37d3fa214c25d323",
        ("proof-recurrences", 8, "generic", "q2", 4):
            "3623ffa97e0e1880ea7959b2674b180b7e74555254174ed30f1078f90953901e",
        ("proof-recurrences", 8, "specialized", "q2", 4):
            "e8044243b03aafb909f20790e0e72bcdc66e6eb30d46776b0463676d11394cae",
        ("fhy-forms", 6, "generic", "qvs", 2):
            "dd218394e9e61c1191c0df4f0a389cc481b0f88d6b844f53956bba7875bbeebd",
        ("fhy-forms", 6, "specialized", "qvs", 0):
            CLEAN["fhy-forms", 6, "specialized"],
    }

    # (mode, factor of comult_direct(p, 4), failures) -> digest
    COMULT = {
        ("generic", "q2", 1):
            "ea3fb6cfad4d93108c7e343b0f8d34d64dca06428966dc027994f26a2242c480",
        ("specialized", "q2", 1):
            "3ad38b6654824581c46e88ffbe14b73a25eaaca8c92333b53bd2637494439c19",
        ("generic", "qvs", 1):
            "43b3bc6ce149f1450a736097c31d22fd7bd47bff6ed0e995eb3b9efe705fc918",
        # the clean report
        ("specialized", "qvs", 0):
            "624878a32469fc54fdbcda4c37063bde91905f14d9407507a7d9bcc8cdc9b163",
    }

    @staticmethod
    def _failures(report):
        return sum(not c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("name,bound,mode", sorted(CLEAN))
    def test_report_is_byte_identical(self, name, bound, mode):
        report = self._report(name, bound, mode)
        assert self._failures(report) == 0
        assert _digest(report) == self.CLEAN[name, bound, mode]

    @pytest.mark.parametrize("name,bound,mode,factor,failures", sorted(LEGS))
    def test_corrupted_leg_keeps_its_witnesses(self, name, bound, mode,
                                               factor, failures, monkeypatch):
        leg = verify.s_component

        def corrupted(p, n, r):
            s = leg(p, n, r)
            return s.scale(_FACTORS[factor]) if (n, r) == (4, 2) else s

        monkeypatch.setattr(verify, "s_component", corrupted)
        report = self._report(name, bound, mode)
        assert self._failures(report) == failures
        assert _digest(report) == self.LEGS[name, bound, mode, factor,
                                            failures]

    @pytest.mark.parametrize("mode,factor,failures", sorted(COMULT))
    def test_corrupted_coproduct_keeps_its_witness(self, mode, factor,
                                                   failures, monkeypatch):
        agrees, direct = verify._comult_agrees, verify.comult_direct

        def corrupted(p, n):
            d = direct(p, n)
            return d.scale(_FACTORS[factor]) if n == 4 else d

        monkeypatch.setattr(verify, "_comult_agrees",
                            lambda p, n: n != 4 and agrees(p, n))
        monkeypatch.setattr(verify, "comult_direct", corrupted)
        report = self._report("comult-odd", 6, mode)
        assert self._failures(report) == failures
        assert _digest(report) == self.COMULT[mode, factor, failures]


class TestPositivity:
    """The positivity reports, and the sign of a weight coefficient read
    from the coefficients of its numerator times its denominator."""

    # perfbench digest form, taken while the sign search multiplied an
    # undecided coefficient by 1 + q^2 and 1 + q; the report is the same in
    # both modes
    REPORTS = {
        6: (420,
            "9cde0e10101dfa46b97f8d043e0dcf14509d9d260fbb188ec3585ffb1e862e63"),
        24: (1014,
             "d4f95ce72a40253b75d2e800d722d8ac80b9021d79f7b9efcccf36f5cc4cc19c"),
    }

    @pytest.mark.parametrize("mode", ["generic", "specialized"])
    @pytest.mark.parametrize("bound", sorted(REPORTS))
    def test_report_is_byte_identical(self, bound, mode):
        report = TestComultVectors._report("positivity", bound, mode)
        assert (len(report["checks"]), _digest(report)) == self.REPORTS[bound]

    def test_a_mixed_sign_coefficient_is_undecided(self, monkeypatch):
        # the coefficient of E^0 F^0 at weight 1 times q^2 - 1: a root at
        # q = 1 leaves mixed signs after any multiplier with nonnegative
        # coefficients, so the sign search could not decide it either
        weight_eval = verify.weight_eval

        def mixed(leg, m):
            w = weight_eval(leg, m)
            c = w.coeff(0, 0, 0) * (coeff.LaurentPoly.q(2) - 2)
            return w + UElement.monomial(0, 0, 0, c) if m == 1 else w

        monkeypatch.setattr(verify, "weight_eval", mixed)
        for mode in ("generic", "specialized"):
            failures = run_suite("positivity", 2, mode).failures()
            # as produced with the sign search
            assert [(c.id, c.params, c.witness) for c in failures] == [
                ("weight-sign-profile", ("odd", 0, 0, 1), "E^0*F^0:?"),
                ("weight-sign-profile", ("odd", 1, 0, 1), "E^0*F^0:?"),
                ("weight-sign-profile", ("odd", 2, 0, 1), "E^0*F^0:?"),
                ("weight-sign-profile", ("odd", 2, 2, 1),
                 "E^0*F^0:? E^0*F^2:+ E^1*F^1:+ E^2*F^0:+"),
            ]
