"""CLI behavior: exit codes, JSON round trips, report rendering."""

import json
import subprocess
import sys
import time

import pytest

from reesgcd import groebner, ideals
from reesgcd import cli, pipeline
from reesgcd.cli import main
from reesgcd.pipeline import GOLDEN_MATRIX, VerificationReport
from reesgcd.ring import PolyRing

GOLDEN_DOC = {
    "prime": 32003,
    "d": 4,
    "psi": [list(row) for row in GOLDEN_MATRIX],
    "f": "x5^3",
}


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN_DOC))
    return str(path)


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:
    def test_golden(self, golden_file, capsys):
        assert main(["check", golden_file]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6

    def test_json_output(self, golden_file, capsys):
        assert main(["check", golden_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["hypotheses"]["checks"]) == 6

    def test_odd_dimension_exits_2(self, tmp_path, capsys):
        doc = {"d": 3,
               "psi": [["0", "x1", "x2", "x3"],
                       ["-x1", "0", "x3", "x4"],
                       ["-x2", "-x3", "0", "x1"],
                       ["-x3", "-x4", "-x1", "0"]],
               "f": "x4^2"}
        assert main(["check", write_instance(tmp_path, doc)]) == 2
        assert "d must be even" in capsys.readouterr().out


class TestParseFailures:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert main(["check", str(path)]) == 1
        assert "invalid JSON at line" in capsys.readouterr().err

    @pytest.mark.parametrize("wrap", ["%s", '{"d": 4, "f": %s}'])
    def test_nested_too_deeply_exits_1(self, wrap, tmp_path):
        # in a process of its own, so that a traceback would be printed
        path = tmp_path / "deep.json"
        path.write_text(wrap % ("[" * 200000 + "]" * 200000))
        proc = subprocess.run([sys.executable, "-m", "reesgcd", "check",
                               str(path)], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: %s: invalid JSON: nested too "
                               "deeply\n" % path)

    def test_non_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["check", str(path)]) == 1

    def test_unknown_variable_reports_offset(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC)
        doc["psi"] = [list(row) for row in GOLDEN_MATRIX]
        doc["psi"][0][1] = "x1 + q3"
        assert main(["check", write_instance(tmp_path, doc)]) == 1
        assert "offset" in capsys.readouterr().err

    def test_helper_variable_rejected(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC)
        doc["f"] = "x5^2*t"
        assert main(["check", write_instance(tmp_path, doc)]) == 1

    def test_missing_key(self, tmp_path, capsys):
        assert main(["check",
                     write_instance(tmp_path, {"d": 4, "f": "x5"})]) == 1

    @pytest.mark.parametrize("psi", [
        None, [1, 2, 3, 4, 5],
        # string rows, which would otherwise split into their characters
        ["01234", "00000", "00000", "00000", "00000"],
        # object rows, which would otherwise give their keys: the golden
        # rows, a repeated entry padded with spaces
        [dict.fromkeys(padded, 0) for padded in (
            [entry + " " * row[:k].count(entry)
             for k, entry in enumerate(row)] for row in GOLDEN_MATRIX)],
    ], ids=repr)
    def test_psi_not_a_list_of_rows_exits_1(self, psi, tmp_path):
        # in a process of its own, so that a traceback would be printed
        path = write_instance(tmp_path, {"d": 4, "psi": psi, "f": "x1"})
        proc = subprocess.run([sys.executable, "-m", "reesgcd", "check",
                               path], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: matrix must be 5 x 5\n"

    @pytest.mark.parametrize("key, value", [
        ("d", 4.5), ("d", True), ("d", "4"),
        ("prime", 32003.9), ("prime", True), ("prime", "32003"),
    ])
    def test_non_integer_d_or_prime_exits_1(self, key, value, tmp_path,
                                            capsys):
        # no rounding: 4.5 must not run as d = 4, nor true as 1
        doc = dict(GOLDEN_DOC, **{key: value})
        assert main(["run", write_instance(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "prime and d must be integers, got %r and %r" % (
            doc["prime"], doc["d"]) in captured.err

    @pytest.mark.parametrize("command", ["check", "run", "verify"])
    def test_exponent_past_field_exits_5_before_any_groebner_run(
            self, command, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a Groebner run started")
        monkeypatch.setattr(groebner, "groebner_basis", no_run)
        monkeypatch.setattr(ideals, "groebner_basis", no_run)
        doc = dict(GOLDEN_DOC, f="x1^70000")
        assert main([command, write_instance(tmp_path, doc)]) == 5
        assert "exponent 70000 of x1 exceeds 32767" in \
            capsys.readouterr().err

    def test_exponent_too_long_for_int_exits_5(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC, f="x1^" + "9" * 5000)
        assert main(["check", write_instance(tmp_path, doc)]) == 5
        assert "exponent overflow: exponent of x1 with 5000 digits " \
            "exceeds 32767" in capsys.readouterr().err

    def test_coefficient_too_long_for_int_exits_1(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC, f="x5^2 + " + "9" * 5000 + "*x5^2")
        assert main(["check", write_instance(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "coefficient of 5000 digits is too long (at offset 7)" \
            in err


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag(self, golden_file):
        with pytest.raises(SystemExit) as exc:
            main(["check", golden_file, "--bogus"])
        assert exc.value.code == 1

    def test_nonpositive_budget(self, golden_file):
        with pytest.raises(SystemExit) as exc:
            main(["check", golden_file, "--max-gb-size", "0"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_nonpositive_count(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["random", count, "-m", "1"])
        assert exc.value.code == 1
        assert "count must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["example", "random"])
    def test_zero_prime_rejected(self, command, capsys):
        # 0 is not prime; it must not fall back to the default prime
        assert main([command, "--prime", "0"]) == 1
        assert "modulus 0 is not prime" in capsys.readouterr().err


    def test_pseudoprime_modulus_exits_1(self, golden_file, capsys):
        # a strong pseudoprime to the 12 prime bases 2..37
        q = "318665857834031151167461"
        assert main(["run", golden_file, "--prime", q]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "modulus %s is not prime" % q in captured.err

    @pytest.mark.parametrize("option", ["--prime", "--second-prime"])
    def test_modulus_past_the_exact_bound_exits_1(
            self, option, golden_file, monkeypatch, capsys):
        def reached(inst):
            raise AssertionError("verification started")
        monkeypatch.setattr(cli, "check_hypotheses", reached)
        monkeypatch.setattr(pipeline, "check_hypotheses", reached)
        q = "3317044064679887385961981"
        assert main(["verify", golden_file, option, q]) == 1
        assert "only below %s" % q in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "random"])
    @pytest.mark.parametrize("q", ["4", "0", "-7",
                                   "318665857834031151167461"])
    def test_bad_second_prime_rejected_first(self, command, q, golden_file,
                                             monkeypatch, capsys):
        def reached(inst):
            raise AssertionError("verification started")
        monkeypatch.setattr(cli, "check_hypotheses", reached)
        monkeypatch.setattr(pipeline, "check_hypotheses", reached)
        argv = [command, golden_file] if command == "verify" else \
            [command, "-m", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--second-prime", q])
        assert exc.value.code == 1
        assert "--second-prime %s is not prime" % q in \
            capsys.readouterr().err


class TestRun:
    def test_golden_text(self, golden_file, capsys):
        assert main(["run", golden_file]) == 0
        out = capsys.readouterr().out
        assert "g1 = " in out and "g3 = " in out
        assert "candidate defining ideal: 9 generators" in out

    def test_json_round_trip(self, golden_file, capsys):
        assert main(["run", golden_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"]["bidegrees"] == [[2, 3], [1, 6], [0, 9]]
        ring = PolyRing.get(32003, 4)
        for src in doc["iterations"]["gcds"]:
            assert str(ring.parse(src)) == src
        assert len(doc["iterations"]["generators"]) == 9

    def test_prime_override(self, golden_file, capsys):
        assert main(["run", golden_file, "--prime", "65537",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["prime"] == 65537
        assert doc["instance"]["prime"] == 65537

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the reader is gone before the first line is written, as with
        # `reesgcd run FILE | head -1`: no traceback, a documented code
        inst = pipeline.random_instance(4, 3, seed=1)
        path = write_instance(tmp_path, inst.to_dict())
        proc = subprocess.Popen([sys.executable, "-m", "reesgcd", "run",
                                 path], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait() == cli.EXIT_CLOSED_STDOUT
        assert err == b""

    def test_hypothesis_failure_exits_2(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC)
        rows = [list(row) for row in GOLDEN_MATRIX]
        for k in range(5):
            rows[2][k] = "0"
            rows[k][2] = "0"
        doc["psi"] = rows
        assert main(["run", write_instance(tmp_path, doc)]) == 2


class TestVerify:
    def test_golden_all_pass(self, golden_file, capsys):
        assert main(["verify", golden_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert "[FAIL]" not in out

    def test_second_prime_consistent(self, golden_file, capsys):
        assert main(["verify", golden_file, "--second-prime", "65537",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["second_prime"] == {"prime": 65537, "ok": True,
                                       "consistent": True}

    def test_forced_verification_failure_exits_3(self, golden_file,
                                                 monkeypatch, capsys):
        def broken(inst, trace):
            rep = VerificationReport()
            rep.add("forced", "forced failure", "fail", "injected")
            return rep
        monkeypatch.setattr(cli, "verify_main_theorem", broken)
        assert main(["verify", golden_file]) == 3
        assert "verdict: fail" in capsys.readouterr().out

    def test_budget_exceeded_exits_4(self, golden_file, monkeypatch,
                                     capsys):
        monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS",
                            groebner.DEFAULT_MAX_BASIS)
        assert main(["verify", golden_file, "--max-gb-size", "3"]) == 4
        assert "budget exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cap, section, order", [
        ("verify", 29, "main", "revlex-last-x3"),
        ("run", 3, "hypotheses", "grevlex"),
        ("check", 3, "hypotheses", "grevlex"),
        ("random", 3, "hypotheses", "grevlex"),
        ("example", 3, "minimality", "grevlex"),
    ])
    def test_budget_names_the_section(self, command, cap, section, order,
                                      golden_file, capsys):
        target = {"random": ["-m", "1"], "example": []}.get(
            command, [golden_file])
        assert main([command, *target, "--json", "--max-gb-size",
                     str(cap)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("budget exceeded in %s: basis size cap %d "
                       "exceeded (%s)\n" % (section, cap, order))

    def test_golden_verify_fits_a_cap_of_30(self, golden_file, capsys):
        assert main(["verify", golden_file, "--json", "--max-gb-size",
                     "30"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_budget_covers_one_command_only(self, golden_file, capsys):
        cap = groebner.DEFAULT_MAX_BASIS
        assert main(["check", golden_file, "--max-gb-size", "3"]) == 4
        assert "basis size cap 3 exceeded" in capsys.readouterr().err
        assert groebner.DEFAULT_MAX_BASIS == cap
        assert main(["check", golden_file]) == 0


class TestOversized:
    """An instance whose last gcd could pass pipeline.MAX_FIBER_TERMS
    terms, or whose hypotheses' minors could pass
    pipeline.MAX_MINOR_TERMS, exits 1 before any work: the work itself
    would fail."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started on an oversized instance")
        monkeypatch.setattr(cli, "check_hypotheses", refuse)
        monkeypatch.setattr(pipeline, "check_hypotheses", refuse)
        monkeypatch.setattr(pipeline, "_random_linear", refuse)

    @pytest.mark.parametrize("command", ["check", "run", "verify"])
    def test_file(self, tmp_path, capsys, command):
        path = write_instance(tmp_path, dict(GOLDEN_DOC, f="x5^1000"))
        start = time.perf_counter()
        assert main([command, path]) == 1
        assert time.perf_counter() - start < 0.25
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: instance too large: at d=4, m=1000 the last "
                       "gcd may have C(m(d-1)+d, d) = 3386263131251 terms, "
                       "past the limit of 100000\n")

    @pytest.mark.parametrize("command", ["check", "run", "verify"])
    def test_d8_file(self, tmp_path, capsys, command):
        # a linear alternating 9x9 presentation: its last gcd is small,
        # its minors of sizes 1..8 are not
        psi = [["0" if i == j else "%sx%d" % ("-" if i > j else "",
                                               (i + j) % 9 + 1)
                for j in range(9)] for i in range(9)]
        path = write_instance(tmp_path, {"prime": 32003, "d": 8,
                                         "psi": psi, "f": "x9"})
        start = time.perf_counter()
        assert main([command, path]) == 1
        assert time.perf_counter() - start < 0.25
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: instance too large: at d=8 the minors of "
                       "the hypotheses may have 30462777 terms, past the "
                       "limit of 1000000\n")

    def test_random_d8(self, capsys):
        assert main(["random", "-d", "8", "-m", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: instance too large: at d=8 the minors of the hypotheses "
            "may have 30462777 terms, past the limit of 1000000\n")

    def test_random(self, capsys):
        start = time.perf_counter()
        assert main(["random", "-d", "40"]) == 1
        assert time.perf_counter() - start < 0.25
        assert capsys.readouterr().err == (
            "error: instance too large: at d=40, m=1 the last gcd may have "
            "C(m(d-1)+d, d) = 53753604366668088230810 terms, past the "
            "limit of 100000\n")


class TestExample:
    def test_text(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "g1 = " in out
        assert "9 minimal generators, relation type 9" in out

    def test_json(self, capsys):
        assert main(["example", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["iterations"]["gcds"]) == 3


class TestCharacteristicTwo:
    """At p = 2, where -1 = 1, the pipeline certifies golden and a random
    instance."""

    def test_golden_verify(self, golden_file, capsys):
        assert main(["verify", golden_file, "--json", "--prime", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["instance"]["prime"] == 2

    def test_random(self, capsys):
        assert main(["random", "-m", "1", "--prime", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["prime"] == 2


class TestRandom:
    def test_single_instance(self, capsys):
        assert main(["random", "-m", "1", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "accept rate:" in out
        assert "all-pass rate: 1.000" in out

    def test_json_shape(self, capsys):
        assert main(["random", "1", "-m", "1", "--seed", "12",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["instances"]) == 1
        assert doc["instances"][0]["candidates"] >= 1
        assert 0 < doc["accept_rate"] <= 1

    def test_hypotheses_checked_once_per_candidate(self, monkeypatch,
                                                   capsys):
        # an accepted instance is verified under the report that
        # accepted it, not checked a second time
        checked = []
        original = pipeline.check_hypotheses

        def counted(inst):
            checked.append(inst)
            return original(inst)

        monkeypatch.setattr(cli, "check_hypotheses", counted)
        monkeypatch.setattr(pipeline, "check_hypotheses", counted)
        assert main(["random", "2", "-m", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(checked) == sum(entry["candidates"]
                                   for entry in doc["instances"])

    def test_odd_dimension_rejected(self, capsys):
        assert main(["random", "-d", "3"]) == 1
        assert "must be an even integer" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "reesgcd", "example"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "relation type 9" in proc.stdout
