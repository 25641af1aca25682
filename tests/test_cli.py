import argparse
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from domrat import blockdsl, circulant, cli, stategraph, verification
from domrat.cli import main, parse_set_literal
from domrat.core import GeneratorSet, blocks_to_periodic, verify_dominating
from domrat.errors import CapExceededError, InputError
from domrat.stategraph import domination_ratio

from make_cli_golden import GOLDEN, MATRIX, invoke
from oracles import translate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_matches_golden(monkeypatch):
    # every command and blocks action in each format, byte for byte;
    # tests/make_cli_golden.py writes the file
    monkeypatch.delenv("DOMRAT_C_MAX", raising=False)
    golden = json.loads(GOLDEN.read_text())
    assert [case["argv"] for case in golden] == MATRIX
    for case in golden:
        assert invoke(case["argv"]) == case


def test_parse_set_literal():
    assert parse_set_literal("{1,-3}").elements == (-3, 1)
    assert parse_set_literal(" { 1 , 4 } ").elements == (1, 4)
    assert parse_set_literal("{}").elements == ()
    with pytest.raises(InputError):
        parse_set_literal("1,2")
    with pytest.raises(InputError):
        parse_set_literal("{1,1}")
    with pytest.raises(InputError):
        parse_set_literal("{1,x}")
    assert parse_set_literal("{+3,-1}").elements == (-1, 3)
    # ASCII integers only: no other script's digits, no underscores
    for text in ("{１,٤}", "{٤}", "{1_0}", "{1,-_4}", "{1," + "9" * 5000 + "}"):
        with pytest.raises(InputError, match="bad integer"):
            parse_set_literal(text)


def test_ascii_int():
    # the type of every numeric option: what int() reads in ASCII, no more
    assert [cli._ascii_int(t) for t in ("16", "+5", "-3", "007", " 8 ")] == [16, 5, -3, 7, 8]
    for text in ("١٦", "８", "1_6", "", "+", "0x10", "9" * 5000):
        with pytest.raises(argparse.ArgumentTypeError, match="invalid int value"):
            cli._ascii_int(text)


def test_ratio_text(capsys):
    code, out, _ = run(capsys, "ratio", "{1,4}")
    assert code == 0
    assert "ratio: 2/5" in out
    assert "period: 20" in out
    assert "holds" in out


def test_ratio_json_schema_and_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "ratio", "{1,4}")
    assert code == 0
    data = json.loads(out)
    assert list(data.keys()) == ["set", "ratio", "period", "witness_blocks",
                                 "cycle_states"]
    assert data["set"] == [1, 4]
    ratio = Fraction(data["ratio"]["num"], data["ratio"]["den"])
    assert ratio == Fraction(2, 5)
    # the rendered witness reparses to a translate of the optimal set
    u = blocks_to_periodic(blockdsl.flatten(blockdsl.parse(data["witness_blocks"])))
    assert u.density == ratio
    assert verify_dominating(u, GeneratorSet([1, 4]))
    cert = domination_ratio(GeneratorSet([1, 4]))
    assert any(translate(u, k).residues == cert.witness.residues
               for k in range(u.period))
    assert len(data["cycle_states"]) * 4 == data["period"]


def test_ratio_known_values(capsys):
    _, out, _ = run(capsys, "ratio", "{1,-3}")
    assert "ratio: 2/5" in out
    _, out, _ = run(capsys, "ratio", "{1}")
    assert "ratio: 1/2" in out


def test_ratio_csv_schema(capsys):
    code, out, _ = run(capsys, "--format", "csv", "ratio", "{1,4}", "{2,3}", "{2,4}")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "set,a,b,c,ratio_num,ratio_den,period,eds"
    assert lines[1] == '"{1,4}",4,0,4,2,5,20,false'
    assert lines[2] == '"{2,3}",3,0,3,2,5,15,false'
    assert lines[3] == '"{2,4}",4,0,4,1,3,12,true'


def test_csv_only_for_ratio(capsys):
    for argv in (["eds", "{1,5}"], ["domnum", "8", "{1,2}"], ["blocks", "parse", "3"],
                 ["oracle", "{1,2}", "--n-limit", "6"], ["verify-paper", "--cases", "1"]):
        for where in ([*argv[:1], "--format", "csv", *argv[1:]], ["--format", "csv", *argv]):
            code, out, err = run(capsys, *where)
            assert code == 2 and out == "" and "csv" in err


def test_ratio_decimal_flag(capsys):
    _, out, _ = run(capsys, "--decimal", "ratio", "{1,4}")
    assert "0.400000" in out
    code, out, _ = run(capsys, "ratio", "{1,4}", "--decimal", "--format", "json")
    data = json.loads(out)
    assert code == 0 and list(data)[-1] == "ratio_decimal"
    assert data["ratio_decimal"] == "0.400000"


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, "--format", "json", "ratio", "{2,-3}")
    _, second, _ = run(capsys, "--format", "json", "ratio", "{2,-3}")
    assert first == second


def test_domnum(capsys):
    code, out, _ = run(capsys, "domnum", "8", "{1,2}")
    assert code == 0 and "gamma: 3" in out
    code, out, _ = run(capsys, "domnum", "11", "{1,6}")
    assert code == 0 and "gamma: 4" in out
    code, out, _ = run(capsys, "--format", "json", "domnum", "3", "{1,2}")
    data = json.loads(out)
    assert data["gamma"] == 1 and data["witness"] == [0]


def test_eds_command(capsys):
    code, out, _ = run(capsys, "eds", "{1,5}")
    assert code == 0 and "exists: true" in out
    code, out, _ = run(capsys, "--format", "json", "eds", "{1,4}")
    data = json.loads(out)
    assert data["exists"] is False and data["witness_blocks"] is None


def test_blocks_commands(capsys):
    code, out, _ = run(capsys, "blocks", "parse", "(2 3)^5 7 (3 4)^2")
    assert code == 0 and "count: 15" in out and "period: 46" in out
    code, out, _ = run(capsys, "blocks", "density", "(3 2)")
    assert code == 0 and "2/5" in out
    code, out, _ = run(capsys, "blocks", "verify", "(3)", "{1,5}")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "blocks", "verify", "(3)", "{1,4}")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "--format", "json", "blocks", "parse", "(2 3)^2 1")
    assert code == 0 and json.loads(out) == {"sizes": [2, 3, 2, 3, 1], "count": 5,
                                             "period": 11}
    code, out, _ = run(capsys, "--format", "json", "blocks", "density", "(3 2)")
    assert code == 0 and json.loads(out) == {"sizes": [3, 2],
                                             "density": {"num": 2, "den": 5}}
    code, out, _ = run(capsys, "--format", "json", "blocks", "verify", "(3)", "{1,5}")
    assert code == 0 and json.loads(out) == {"sizes": [3], "set": [1, 5],
                                             "dominating": True}


def test_blocks_density_decimal(capsys):
    code, out, _ = run(capsys, "--decimal", "blocks", "density", "(3)")
    assert code == 0 and out == "density: 1/3\ndensity (approx): 0.333333\n"
    code, out, _ = run(capsys, "--decimal", "--format", "json", "blocks", "density", "(3)")
    assert code == 0 and json.loads(out) == {"sizes": [3], "density": {"num": 1, "den": 3},
                                             "density_decimal": "0.333333"}


def _module_env():
    """Environment for running `python -m domrat` from this checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def test_blocks_verify_long_period_answers_at_once():
    # period 10^9 with 1000 members: too few to dominate, which the
    # check must see from the member count, not by walking the period
    out = subprocess.run([sys.executable, "-m", "domrat", "blocks", "verify",
                          "1000000^1000", "{1}"], env=_module_env(),
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 0 and out.stdout == "false\n", out.stderr


def test_closed_stdout_exits_141_quietly():
    # the reading end is closed before the command starts, so its first
    # write fails, as when `| head` has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "domrat", "--format", "json",
                              "ratio", "{1,8}"], env=_module_env(), stdout=write_end,
                             stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert out.returncode == 141 and out.stderr == ""


def test_blocks_verify_needs_set(capsys):
    code, _, err = run(capsys, "blocks", "verify", "(3)")
    assert code == 2


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "oracle", "{1,2}",
                       "--n-limit", "12")
    assert code == 0
    data = json.loads(out)
    assert Fraction(data["best"]["num"], data["best"]["den"]) == Fraction(1, 3)
    assert data["attained_at"] == 3
    assert data["certified"] is True
    code, out, _ = run(capsys, "oracle", "{1,4}", "--n-limit", "6")
    assert code == 0 and "false (upper bound only)" in out


def test_oracle_decimal(capsys):
    code, out, _ = run(capsys, "--decimal", "oracle", "{1,2}", "--n-limit", "6")
    assert code == 0 and "best (approx): 0.333333\n" in out
    code, out, _ = run(capsys, "--decimal", "--format", "json", "oracle", "{1,2}",
                       "--n-limit", "6")
    data = json.loads(out)
    assert code == 0 and list(data)[-1] == "best_decimal"
    assert data["best_decimal"] == "0.333333"


def test_oracle_reraises_other_caps(capsys, monkeypatch):
    # only a refusal of c itself leaves the scan uncertified; any other cap
    # the engine hits is an error, exit 3
    def refuse(s, c_max):
        raise CapExceededError("packed (value, node) span", 1 << 62, 1 << 61)

    monkeypatch.setattr(cli, "domination_ratio", refuse)
    code, out, err = run(capsys, "oracle", "{1,2}", "--n-limit", "6")
    assert code == 3 and out == "" and "packed (value, node) span" in err


def test_oracle_past_engine_limit_is_uncertified(capsys):
    # c = 29 is under --c-max but over the engine's own limit of 28
    code, out, _ = run(capsys, "--c-max", "40", "oracle", "{1,29}", "--n-limit", "30")
    assert code == 0 and "certified: unknown (c exceeds cap)" in out


def test_exit_codes(capsys):
    code, _, err = run(capsys, "ratio", "{1,0}")
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "ratio", "not-a-set")
    assert code == 2
    code, _, err = run(capsys, "--c-max", "4", "ratio", "{1,8}")
    assert code == 3 and "cap" in err
    code, _, err = run(capsys, "ratio", "{1,8}", "--c-max", "4")
    assert code == 3
    code, _, err = run(capsys, "domnum", "31", "{1,2}")
    assert code == 3
    code, _, err = run(capsys, "domnum", "0", "{1,2}")
    assert code == 2 and "input error" in err
    for cap in ("--c-max", "--n-max"):
        code, out, err = run(capsys, cap, "0", "ratio", "{1,2}")
        assert code == 2 and out == "" and "caps must be positive" in err
    code, _, err = run(capsys, "blocks", "parse", "3^0")
    assert code == 2 and "position" in err
    code, _, err = run(capsys, "blocks", "parse", "3²")
    assert code == 2 and err.startswith("input error: ") and "(at position 1)" in err
    # ASCII digits only: other scripts' digits and underscores are malformed
    for argv in (["ratio", "{１,٤}"], ["ratio", "{1_0}"], ["blocks", "parse", "３ ٢^２"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("input error: "), argv
    assert "'３' (at position 0)" in err
    deep = "(" * 600 + "3" + ")" * 600
    for argv in (["parse", deep], ["verify", deep, "{1,5}"]):
        code, _, err = run(capsys, "blocks", *argv)
        assert code == 2 and err.startswith("input error: ")
        assert f"(at position {blockdsl.MAX_DEPTH})" in err
    # the engines reject an empty set
    for argv in (["ratio", "{}"], ["eds", "{}"], ["oracle", "{}", "--n-limit", "5"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "nonempty" in err


def test_env_var_cap(capsys, monkeypatch):
    monkeypatch.setenv("DOMRAT_C_MAX", "4")
    code, _, err = run(capsys, "ratio", "{1,8}")
    assert code == 3
    code, _, _ = run(capsys, "--c-max", "16", "ratio", "{1,8}")
    assert code == 0  # explicit flag beats the environment


def test_bad_env_cap_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("DOMRAT_C_MAX", "abc")
    code, _, err = run(capsys, "ratio", "{1,2}")
    assert code == 2 and "input error" in err and "DOMRAT_C_MAX" in err
    code, out, _ = run(capsys, "--c-max", "4", "ratio", "{1,2}")
    assert code == 0 and "ratio: 1/3" in out  # the flag makes the env unused


def test_c_past_engine_limit_exits_3(capsys):
    code, _, err = run(capsys, "--c-max", "40", "ratio", "{1,40}")
    assert code == 3 and "c=40 exceeds cap 28" in err
    code, _, err = run(capsys, "--c-max", "40", "eds", "{1,40}")
    assert code == 3


def test_verify_paper_small(capsys):
    code, out, _ = run(capsys, "--c-max", "5", "verify-paper", "--cases", "5")
    assert code == 0
    assert "SKIP" in out and "FAIL" not in out
    assert "0 failed" in out


def test_verify_paper_needs_a_case(capsys):
    for cases in ("0", "-3"):
        code, out, err = run(capsys, "--c-max", "5", "verify-paper", "--cases", cases)
        assert code == 2 and out == "" and "cases" in err


def test_verify_paper_rows_skip_at_engine_caps(monkeypatch):
    # the engines' caps decide, C_LIMIT included: with it lowered to 5,
    # rows that c_max = 16 allows still skip instead of raising; and with
    # the cross-check cap below {1,3}'s period 15, the oracle scan skips
    monkeypatch.setattr(stategraph, "C_LIMIT", 5)
    monkeypatch.setattr(verification, "CROSS_CHECK_N_MAX", 12)
    rows = verification.run_verification(n_max=12, cases=20,
                                         criteria={1, 3, 4, 8, 9, 10})
    got = {r.label: (r.status, r.detail) for r in rows}
    assert got["ratio {1,6}"] == ("SKIP", "c=6 above cap 5")
    assert got["eds {1,-5}"] == ("SKIP", "c=6 above cap 5")
    assert got["gamma(Z_14,{1,2})"] == ("SKIP", "n=14 above cap 12")
    assert got["oracle cross-check {1,8}"] == ("SKIP", "c=8 above cap 5")
    assert got["oracle cross-check {1,3}"] == ("SKIP", "n=13 above cap 12")
    assert got["ratio {1,5}"][0] == got["eds {1,5}"][0] == "PASS"
    assert got["oracle cross-check {2,4}"][0] == "PASS"  # period 12
    assert not any(r.status == "FAIL" for r in rows)
    # criteria 8 and 9 keep the sets C_LIMIT allows ({1,2..5}, {1,-1..-4}
    # and {2,4} in criterion 8), as they do at c_max = 5
    assert got["period bound c*2^c"][1].startswith("9 certificates")
    monkeypatch.setattr(stategraph, "C_LIMIT", 28)
    assert [r for r in rows if r.criterion in (8, 9)] == verification.run_verification(
        c_max=5, cases=20, criteria={8, 9})


def test_verify_paper_vacuous_tallies_skip(capsys):
    # at c_max = 1 no random set, no certificate and no congruence family of
    # size 2 or 3 is within the caps: those tallies checked nothing, so they
    # are SKIP rows with the count in their detail, not PASS rows
    code, out, _ = run(capsys, "--c-max", "1", "--format", "json", "verify-paper",
                       "--cases", "1")
    assert code == 0
    got = {r["label"]: (r["status"], r["detail"]) for r in json.loads(out)["rows"]
           if r["criterion"] in (8, 9)}
    none = ("SKIP", "0 random sets, 0 failures")
    assert got == {
        "period bound c*2^c": ("SKIP", "0 certificates, worst period/bound = None"),
        "negation symmetry": none,
        "superset monotonicity": none,
        "ratio within [1/(|S|+1), 1/2]": none,
        "witness dominates with density = ratio": none,
        "congruence family size 1 has ratio 1/2":
            ("PASS", "2 parameter choices, 0 failures"),
        "congruence family size 2 has ratio 1/3":
            ("SKIP", "0 parameter choices, 0 failures"),
        "congruence family size 3 has ratio 1/4":
            ("SKIP", "0 parameter choices, 0 failures"),
    }
    code, out, _ = run(capsys, "--c-max", "1", "verify-paper", "--cases", "1")
    assert code == 0 and out.endswith("45 passed, 0 failed, 114 skipped\n")


def test_verify_paper_refuses_unknown_criteria():
    for criteria in ({12}, {0, 1}, {-1}):
        with pytest.raises(InputError, match="1..11"):
            verification.run_verification(c_max=2, cases=1, criteria=criteria)
    assert {r.criterion for r in verification.run_verification(
        c_max=2, cases=1, criteria={11})} == {11}


def test_verify_paper_detects_corruption(capsys, monkeypatch):
    # poison one closed form per engine answer; every criterion that checks
    # it must then fail, and the run exit 1
    monkeypatch.setattr(verification, "ratio_one_s", lambda s: Fraction(1, 2))
    monkeypatch.setattr(verification, "eds_predicted", lambda s, t: None)
    monkeypatch.setattr(verification, "circulant_consecutive", lambda n, s: 0)
    monkeypatch.setattr(verification, "circulant_pm13", lambda n: 0)
    monkeypatch.setattr(verification, "circulant_one_s", lambda n, s: 0)
    code, out, _ = run(capsys, "--c-max", "4", "--format", "json", "verify-paper",
                       "--cases", "2")
    assert code == 1
    rows = json.loads(out)["rows"]
    failed = {r["criterion"] for r in rows if r["status"] == "FAIL"}
    assert failed == {1, 3, 4, 5, 6}
    # every row of criteria 3, 5 and 6 that ran, and all 12 of criterion 4:
    # its {1,2} rows read circulant_consecutive, its {1,s} rows circulant_one_s
    for r in rows:
        if r["criterion"] in (3, 5, 6) and r["status"] != "SKIP":
            assert r["status"] == "FAIL", r
    assert sum(r["criterion"] == 4 and r["status"] == "FAIL" for r in rows) == 12


_REAL_RATIO, _REAL_PARSE = stategraph.domination_ratio, blockdsl.parse


def _gamma_plus_one(inst, n_max):
    gamma, witness = circulant.domination_number(inst, n_max=n_max)
    return gamma + 1, witness


def _period_past_bound(s, c_max):
    cert = _REAL_RATIO(s, c_max=c_max)
    return dataclasses.replace(cert, period=s.c * (1 << s.c) + 1)


def _wrong_ratio(s, c_max):
    # at least 1 (bounds), no witness's density (witness), never 1/(s+1)
    # (congruence), larger on a superset (monotonicity) and different for a
    # one-signed S and -S (negation)
    cert = _REAL_RATIO(s, c_max=c_max)
    return dataclasses.replace(cert, ratio=Fraction(len(s) + (s.elements[-1] > 0)))


@pytest.mark.parametrize("module, name, fake, criterion, fails, passes", [
    (verification, "ratio_pair_dividing", lambda s, t: Fraction(0), 2, 2, 0),
    (verification, "coverage_counts", lambda u, s: [2], 3, 6, 6),
    (verification, "domination_number", _gamma_plus_one, 7, 10, 0),
    (verification, "domination_ratio", _period_past_bound, 8, 1, 0),
    (verification, "domination_ratio", _wrong_ratio, 9, 7, 0),
    (verification, "ratio_oracle", lambda gs, limit, n_max: Fraction(0), 10, 20, 0),
    (blockdsl, "parse", lambda text: _REAL_PARSE("1"), 11, 2, 0),
], ids=["pair-formula", "exact-cover", "gamma", "period", "ratio", "oracle", "parse"])
def test_verify_paper_fails_each_poisoned_check(capsys, monkeypatch, module, name,
                                                 fake, criterion, fails, passes):
    # a wrong value behind criterion 2, 3, 7, 8, 9, 10 or 11: each of its
    # rows that runs fails (criterion 8 stops at its first), and the run
    # exits 1.  A witness that covers twice fails only criterion 3's six
    # rows with a witness ({2,4}, {3,6}, {1,-4}, {1,-1}, {1,2}, {1,5}); its
    # six rows without one still pass.
    monkeypatch.setattr(module, name, fake)
    code, out, _ = run(capsys, "--c-max", "6", "--format", "json", "verify-paper",
                       "--cases", "40")
    assert code == 1
    rows = [r for r in json.loads(out)["rows"] if r["criterion"] == criterion]
    statuses = [r["status"] for r in rows]
    assert (statuses.count("FAIL"), statuses.count("PASS")) == (fails, passes), rows


def test_failed_self_check_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(stategraph, "verify_dominating", lambda u, s: False)
    code, _, err = run(capsys, "ratio", "{1,2}")
    assert code == 4
    assert "does not dominate" in err


def test_failed_state_table_past_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(circulant, "_FAILED_STATES_MAX", 3)
    code, out, err = run(capsys, "domnum", "20", "{1,3}")
    assert code == 3 and out == ""
    assert err == "resource cap: failed states=4 exceeds cap 3\n"


def test_failed_circulant_self_check_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(circulant, "_cover_masks",
                        lambda inst: [(1 << inst.n) - 1] * inst.n)
    code, out, err = run(capsys, "domnum", "8", "{1,2}")
    assert code == 4 and out == ""
    assert "does not dominate" in err
