"""Tests for the command-line interface: exit codes, output, file writing."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import iqsl2
from iqsl2 import cli, verify
from iqsl2.verify import CheckResult, SuiteReport


def fake_report(n_fail=1, witness="difference"):
    checks = [CheckResult("sample-check", (i,), False, witness)
              for i in range(n_fail)]
    checks.append(CheckResult("sample-check", (n_fail,), True))
    return SuiteReport("chi", {"bound": 1}, checks, 0.001)


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        rc = cli.main(["verify", "qidentities", "--max", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("suite qidentities:")
        assert "checks passed" in out
        assert out.rstrip().endswith("PASS")

    def test_varsigma_flag_maps_to_specialized(self, capsys):
        rc = cli.main(["verify", "mult-even", "--max", "2",
                       "--varsigma", "q-inverse"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "varsigma=specialized" in out

    def test_json_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc = cli.main(["verify", "fhy-forms", "--max", "2",
                       "--json", str(target)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["suite"] == "fhy-forms"
        assert all(c["pass"] for c in payload["checks"])

    def test_json_file_is_the_report_text(self, tmp_path, monkeypatch, capsys):
        reports = []

        def run(*args):
            reports.append(verify.run_suite(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "run_suite", run)
        target = tmp_path / "report.json"
        rc = cli.main(["verify", "chi", "--max", "3", "--json", str(target)])
        capsys.readouterr()
        assert rc == 0
        expected = json.dumps(reports[0].to_json_dict(), ensure_ascii=False,
                              indent=2) + "\n"
        assert target.read_bytes() == expected.encode("utf-8")

    def test_failure_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite",
                            lambda *a, **k: fake_report())
        rc = cli.main(["verify", "chi"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL sample-check (0,): difference" in out
        assert out.rstrip().endswith("FAIL")

    def test_failure_list_truncated_at_twenty(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite",
                            lambda *a, **k: fake_report(n_fail=25))
        rc = cli.main(["verify", "chi"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "... and 5 more failures" in out

    def test_long_witness_truncated_on_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_suite",
            lambda *a, **k: fake_report(witness="x" * 5000))
        rc = cli.main(["verify", "chi"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "truncated" in out
        assert "x" * 5000 not in out

    def test_bad_suite_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_bad_bound_exits_two(self, capsys):
        rc = cli.main(["verify", "chi", "--max", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err

    def test_ceiling_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("IQSL2_MAX_N", "4")
        rc = cli.main(["verify", "chi", "--max", "5"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "IQSL2_MAX_N" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_invalid_ceiling_exits_two(self, monkeypatch, capsys, value):
        monkeypatch.setenv("IQSL2_MAX_N", value)
        rc = cli.main(["verify", "chi", "--max", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: IQSL2_MAX_N must be a positive integer")
        assert err.count("\n") == 1

    def test_unwritable_json_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        rc = cli.main(["verify", "qidentities", "--max", "1",
                       "--json", str(target)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot write {target}")
        assert err.count("\n") == 1

    def test_unwritable_json_fails_before_the_run(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_run(*args):
            raise AssertionError("the suite ran before the path was checked")

        monkeypatch.setattr(cli, "run_suite", no_run)
        target = tmp_path / "missing" / "report.json"
        rc = cli.main(["verify", "comult-odd", "--max", "2",
                       "--json", str(target)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_failed_run_leaves_no_new_file(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("IQSL2_MAX_N", "4")
        target = tmp_path / "report.json"
        rc = cli.main(["verify", "chi", "--max", "5", "--json", str(target)])
        assert rc == 2
        assert not target.exists()
        # an existing file is left as it was
        target.write_text("kept", encoding="utf-8")
        rc = cli.main(["verify", "chi", "--max", "5", "--json", str(target)])
        assert rc == 2
        assert target.read_text(encoding="utf-8") == "kept"
        capsys.readouterr()

    def test_json_replaces_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_text("x" * 5000, encoding="utf-8")
        rc = cli.main(["verify", "comult-odd", "--max", "1",
                       "--json", str(target)])
        assert rc == 0
        report = json.loads(target.read_text(encoding="utf-8"))
        assert len(report["checks"]) == 2
        capsys.readouterr()


class TestTableCommand:
    def test_stdout_csv(self, capsys):
        rc = cli.main(["table", "--family", "odd", "--max", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == ("family,m,n,l,coefficient,integral,positive\n"
                       "odd,0,0,0,1,true,true\n")

    def test_out_file_json(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        rc = cli.main(["table", "--family", "ev", "--max", "2",
                       "--format", "json", "--out", str(target)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        rows = {(r["m"], r["n"], r["l"]): r["coefficient"]
                for r in payload["rows"]}
        assert rows[(1, 1, 0)] == "q^-1 + q"

    def test_out_file_csv_matches_stdout(self, tmp_path, capsys):
        rc = cli.main(["table", "--family", "ev", "--max", "3"])
        stdout_text = capsys.readouterr().out
        target = tmp_path / "table.csv"
        assert rc == 0
        rc = cli.main(["table", "--family", "ev", "--max", "3",
                       "--out", str(target)])
        assert rc == 0
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_negative_exits_two(self, capsys):
        rc = cli.main(["table", "--family", "ev", "--max", "-1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_family_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--family", "both", "--max", "2"])
        assert exc.value.code == 2

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        rc = cli.main(["table", "--family", "ev", "--max", "2",
                       "--out", str(target)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot write {target}")
        assert err.count("\n") == 1

    def test_unwritable_out_fails_before_the_table(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_table(*args):
            raise AssertionError("the table was built before the path was checked")

        monkeypatch.setattr(cli, "emit_table", no_table)
        rc = cli.main(["table", "--family", "ev", "--max", "2",
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot write {tmp_path}")
        assert err.count("\n") == 1


class TestExpandCommand:
    def test_idp_default_basis(self, capsys):
        rc = cli.main(["expand", "idp", "--family", "ev", "--n", "0"])
        assert rc == 0
        assert capsys.readouterr().out == "(1)\n"

    def test_comult_theorem_equals_direct(self, capsys):
        rc = cli.main(["expand", "comult", "--family", "odd", "--n", "3",
                       "--form", "theorem"])
        theorem = capsys.readouterr().out
        assert rc == 0
        rc = cli.main(["expand", "comult", "--family", "odd", "--n", "3",
                       "--form", "direct"])
        direct = capsys.readouterr().out
        assert rc == 0
        assert theorem == direct
        assert "⊗" in theorem

    def test_idp_pbw_basis(self, capsys):
        rc = cli.main(["expand", "idp", "--family", "odd", "--n", "1",
                       "--basis", "pbw"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "(1)*F + (v)*E*K^-1\n"

    def test_negative_exits_two(self, capsys):
        rc = cli.main(["expand", "idp", "--family", "ev", "--n", "-3"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("basis", ["B", "pbw"])
    def test_negative_order_exits_two_in_both_bases(self, capsys, basis):
        rc = cli.main(["expand", "idp", "--family", "ev", "--n", "-1",
                       "--basis", basis])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: divided power of negative order\n"

    def test_form_rejected_for_idp(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "idp", "--family", "ev", "--n", "2",
                      "--form", "direct"])
        assert exc.value.code == 2

    def test_basis_rejected_for_comult(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "comult", "--family", "ev", "--n", "2",
                      "--basis", "pbw"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind", ["idp", "comult"])
    def test_ceiling_exits_two(self, monkeypatch, capsys, kind):
        monkeypatch.setenv("IQSL2_MAX_N", "4")
        rc = cli.main(["expand", kind, "--family", "odd", "--n", "5"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "exceeds the resource ceiling 4" in err
        rc = cli.main(["expand", kind, "--family", "odd", "--n", "4"])
        assert rc == 0


class TestModuleRun:
    """``python3 -m iqsl2`` runs the same command from a checkout."""

    def _run(self, *args):
        src = str(pathlib.Path(iqsl2.__file__).parent.parent)
        return subprocess.run(
            [sys.executable, "-m", "iqsl2", *args],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )

    def test_table(self):
        out = self._run("table", "--family", "odd", "--max", "4")
        assert out.returncode == 0
        assert out.stderr == ""
        assert out.stdout == verify.emit_table("odd", 4, "csv")

    def test_usage_error_exits_two(self):
        out = self._run("table", "--family", "ev", "--max", "-1")
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
