import json

import pytest

from conftest import run_capped
from superhilb import charts, cli
from superhilb.cli import main
from superhilb.errors import CertificateError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_monomial_ideal_power(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "reduce", "--p", "2", "--q", "1",
            "--params", "zero", "x^3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["evens"] == ["0", "0"]
        assert payload["odds"] == ["0"]
        assert payload["in_ideal"] is True

    def test_membership_of_generator(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "reduce", "--p", "1", "--q", "1",
            "x + b0 + beta0*theta",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["in_ideal"] is True

    def test_nonmember(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "reduce", "--p", "2", "--q", "1", "1",
        )
        assert code == 0
        assert json.loads(out)["evens"][0] == "1"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "reduce", "--p", "2", "--q", "1", "x +* 2")
        assert code == 2
        assert "column" in err

    def test_rank_violation_exit_3(self, capsys):
        code, _, _ = run(capsys, "reduce", "--p", "1", "--q", "2", "x")
        assert code == 3

    def test_power_beyond_old_step_cap(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "reduce", "--p", "1", "--q", "0",
            "x^3000",
        )
        assert code == 0
        assert json.loads(out)["evens"] == ["a0^3000"]

    def test_exponent_beyond_the_range_exit_2(self, capsys):
        code, out, err = run(
            capsys, "--format", "json", "reduce", "--p", "1", "--q", "0",
            "x^1099511627776",
        )
        assert code == 2
        assert out == ""
        assert "packed range" in err

    def test_literal_beyond_the_digit_limit_exit_2(self, capsys):
        """A 5,000-digit literal is more than int() reads from text: a
        positioned syntax error, not a traceback."""
        code, out, err = run(
            capsys, "reduce", "--p", "1", "--q", "0", "x + " + "7" * 5000,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: integer literal of 5000 digits, more than the limit of "
            "4300 (line 1, column 5)"]

    def test_answer_beyond_the_digit_limit_exit_2(self, capsys):
        """9^9999 has 9,543 digits, more than str() writes: the answer is
        refused on one error line."""
        code, out, err = run(
            capsys, "--format", "json", "reduce", "--p", "1", "--q", "0",
            "9^9999",
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: the answer holds a number of more than 4300 digits, too "
            "long to print"]

    def test_set_parameter(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "reduce", "--p", "1", "--q", "0",
            "--set", "a0=2", "x + 2",
        )
        assert code == 0
        assert json.loads(out)["in_ideal"] is True

    @pytest.mark.parametrize("p, q, ring, assignment, poly", [
        ("2", "1", None, "x=1", "x^3"),
        ("2", "1", None, "theta=0", "x^3"),
        ("1", "0", "even c;", "c=2", "x + c"),
    ], ids=["x", "theta", "ring-file-c"])
    def test_set_names_a_parameter(self, capsys, tmp_path, p, q, ring,
                                   assignment, poly):
        extra = []
        if ring:
            (tmp_path / "f.ring").write_text(ring + "\n", encoding="utf-8")
            extra = ["--ring", str(tmp_path / "f.ring")]
        code, out, err = run(capsys, "reduce", "--p", p, "--q", q, *extra,
                             "--set", assignment, poly)
        name = assignment.partition("=")[0]
        assert code == 2
        assert out == ""
        assert err == (f"error: '{name}' is not a parameter of the "
                       f"({p}|{q}) ideal\n")

    @pytest.mark.parametrize("assignment, name, found, expected", [
        ("a0=alpha0", "a0", "odd", "even"),
        ("beta0=a0", "beta0", "even", "odd"),
        ("a0=1 + alpha0", "a0", "mixed", "even"),
    ], ids=["odd-for-even", "even-for-odd", "mixed"])
    def test_set_value_of_wrong_parity_exit_2(self, capsys, assignment, name,
                                              found, expected):
        """A --set value of the wrong parity is a bad command line."""
        code, out, err = run(capsys, "reduce", "--p", "2", "--q", "1",
                             "--set", assignment, "x^3")
        assert code == 2
        assert out == ""
        assert err == (f"error: --set {name}: the value has parity {found}, "
                       f"expected {expected}\n")

    def test_missing_ring_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "reduce", "--p", "1", "--q", "0",
            "--ring", str(tmp_path / "absent.ring"), "x",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_ring_file_variable_in_set(self, capsys, tmp_path):
        ring = tmp_path / "extra.ring"
        ring.write_text("even c;\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "--format", "json", "reduce", "--p", "1", "--q", "0",
            "--ring", str(ring), "--set", "a0=c", "x + c",
        )
        assert code == 0
        assert json.loads(out)["in_ideal"] is True

    @pytest.mark.parametrize("decl, expr, code", [
        ("odd x;", "x^3", 2), ("even a0 inv;", "a0^-1", 2),
        ("even x;", "x^3", 0),
    ], ids=["odd-x", "invertible-a0", "same-x"])
    def test_ring_file_redeclaration(self, capsys, tmp_path, decl, expr,
                                     code):
        """A ring file may repeat a declaration but not rebind a name."""
        ring = tmp_path / "f.ring"
        ring.write_text(decl + "\n", encoding="utf-8")
        got, out, err = run(capsys, "reduce", "--p", "2", "--q", "1",
                            "--ring", str(ring), expr)
        assert got == code, err
        assert ("declared twice" in err) == (code == 2), err
        assert bool(out) == (code == 0)

    def test_other_package_error_exit_3(self, capsys, monkeypatch):
        def failing(p, q):
            raise CertificateError("tampered")

        monkeypatch.setattr(cli, "stratification_generators", failing)
        code, out, err = run(capsys, "strata", "--p", "2", "--q", "1")
        assert code == 3
        assert out == ""
        assert err == "error: tampered\n"

class TestStrata:
    def test_two_one(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "strata", "--p", "2", "--q", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["generators"] == ["c0", "gamma0"]
        assert payload["dimension"] == [2, 2]

    def test_one_zero(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "strata", "--p", "1", "--q", "0"
        )
        assert code == 0
        assert json.loads(out)["generators"] == []

    def test_rank_violation(self, capsys):
        code, _, _ = run(capsys, "strata", "--p", "1", "--q", "2")
        assert code == 3


class TestTransition:
    def test_pair_13_matches(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "transition", "--k", "2",
            "--pair", "13",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["cocycle"] is True

    def test_pair_12_matches(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "transition", "--k", "2",
            "--pair", "12",
        )
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_pair_23_cocycle_flag(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "transition", "--k", "0",
            "--pair", "23",
        )
        assert code == 0
        payload = json.loads(out)
        assert "match" not in payload
        assert payload["cocycle"] is True


class TestSplitCheck:
    def test_hilb11_single(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "split-check", "--target", "hilb11",
            "--k", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["split"] is True
        assert payload["twist"] == -2

    def test_hilb21_case_one(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "split-check", "--target", "hilb21",
            "--k", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["split"] is False
        assert payload["case"] == "I"
        assert payload["degrees"] == [0, -4]

    def test_hilb21_twist_zero_reports_certificate(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "split-check", "--target", "hilb21",
            "--k", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["split"] is True
        assert payload["case"] == "III"
        assert payload["certificate"] == {"g[0,0]": "1", "h[0,0]": "1"}

    def test_k_range_ordering_and_determinism(self, capsys):
        args = (
            "--format", "json", "split-check", "--target", "hilb11",
            "--k-range", "1..3",
        )
        code, out1, _ = run(capsys, *args)
        assert code == 0
        lines = out1.strip().splitlines()
        assert [json.loads(ln)["k"] for ln in lines] == [1, 2, 3]
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_degree_bound_note(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "split-check", "--target", "hilb21",
            "--k", "1", "--degree-bound", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert any("no solution" in note for note in payload["notes"])

    def test_huge_degree_bound_answers_from_the_supports(self):
        """At k = 4 no term reaches the right side at any bound, so a bound
        of 99999999 answers "no solution" without listing its unknowns;
        the address space is capped so a regression fails with MemoryError."""
        done = run_capped(["-m", "superhilb", "--format", "json",
                           "split-check", "--target", "hilb21", "--k", "4",
                           "--degree-bound", "99999999"])
        assert done.returncode == 0, done.stderr
        note = json.loads(done.stdout)["notes"][-1]
        assert note == "three-overlap solver at bound 99999999: no solution"

    def test_huge_degree_bound_at_twist_zero_exits_2(self):
        """At k = 0 the support check does not answer, and the solver
        refuses the unknowns of bound 99999999 before listing them: one
        error line and exit 2, under the same address-space cap."""
        done = run_capped(["-m", "superhilb", "split-check", "--target",
                           "hilb21", "--k", "0", "--degree-bound",
                           "99999999"])
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr == (
            "error: the solve at degree bound 99999999 has "
            "15000000150000000 unknowns; the solver lists at most 200000\n")

    def test_negative_range_with_equals_form(self, capsys):
        code, out, _ = run(
            capsys, "split-check", "--target", "hilb11", "--k-range=-1..1",
            "--format", "json",
        )
        assert code == 0
        ks = [json.loads(ln)["k"] for ln in out.strip().splitlines()]
        assert ks == [-1, 0, 1]

    def test_degree_bound_builds_the_atlas_once(self, capsys, monkeypatch):
        built = []

        def counting_atlas(k):
            built.append(k)
            return charts.hilb21_atlas(k)

        monkeypatch.setattr(cli, "hilb21_atlas", counting_atlas)
        monkeypatch.setattr("superhilb.obstruction.hilb21_atlas",
                            counting_atlas)
        code, _, _ = run(
            capsys, "--format", "json", "split-check", "--target", "hilb21",
            "--k", "1", "--degree-bound", "3",
        )
        assert code == 0
        assert built == [1]

    def test_degree_bound_with_hilb11_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["split-check", "--target", "hilb11", "--k", "3",
                  "--degree-bound", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: --degree-bound applies to --target hilb21" in err

    def test_negative_degree_bound_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["split-check", "--target", "hilb21", "--k", "1",
                  "--degree-bound", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --degree-bound: must be nonnegative" in err

    @pytest.mark.parametrize("k_range", ["3..x", "5..1", "3"])
    def test_bad_k_range_exit_2(self, capsys, k_range):
        with pytest.raises(SystemExit) as exc:
            main(["split-check", "--target", "hilb11", f"--k-range={k_range}"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
