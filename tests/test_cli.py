import json

import pytest

import magari.cli
from magari import Verdict
from magari.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_closed(capsys):
    code, out, err = run(capsys, "eval", "D(D(0))")
    assert code == 0
    assert "value: 11(0)" in out
    assert err == ""


def test_eval_with_assignment(capsys):
    code, out, _ = run(capsys, "eval", "Dp & q", "--assign", "p=110(0)", "--assign", "q=(1)")
    assert code == 0
    assert "value:" in out


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "@p", "--assign", "p=101(1)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "eval"
    assert data["value"] == "(1)"
    assert data["assignment"] == {"p": "10(1)"}


def test_eval_unbound_variable_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eval", "p & q", "--assign", "p=(1)")
    assert code == 2
    assert "error:" in err and "q" in err


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", "p & ")
    assert code == 2
    assert "error:" in err


def test_check_valid(capsys):
    code, out, _ = run(capsys, "check", "--concl", "D(Dp -> p) = Dp")
    assert code == 0
    assert "verdict: Valid" in out


def test_check_counterexample(capsys):
    code, out, _ = run(capsys, "check", "--concl", "Dp = p")
    assert code == 1
    assert "verdict: Counterexample" in out
    assert "violation_step: 1" in out


def test_check_with_hypothesis(capsys):
    code, out, _ = run(capsys, "check", "--hyp", "p = 0", "--concl", "Dp = D0")
    assert code == 0
    assert "verdict: Valid" in out


def test_check_json_counterexample_structure(capsys):
    code, out, _ = run(capsys, "check", "--concl", "Dp = p", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "Counterexample"
    assert data["counterexample"]["assignment"] == {"p": "0(0)"}
    assert data["counterexample"]["violation_step"] == 1


def test_check_oracle_bound_flag(capsys):
    code, out, _ = run(capsys, "check", "--concl", "Dp = p", "--oracle-bound", "3", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["oracle_bound"] == 3
    assert data["oracle_counterexample"] == {"p": "(0)"}


def test_check_oracle_bound_from_env(capsys, monkeypatch):
    monkeypatch.setenv("MAGARI_ORACLE_BOUND", "2")
    code, out, _ = run(capsys, "check", "--concl", "D1 = 1", "--oracle-bound", "--json")
    assert code == 0
    assert json.loads(out)["oracle_bound"] == 2


def test_check_oracle_bound_env_default(capsys, monkeypatch):
    monkeypatch.delenv("MAGARI_ORACLE_BOUND", raising=False)
    code, out, _ = run(capsys, "check", "--concl", "D1 = 1", "--oracle-bound", "--json")
    assert code == 0
    assert json.loads(out)["oracle_bound"] == 5


def test_check_bad_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("MAGARI_ORACLE_BOUND", "nope")
    code, _, err = run(capsys, "check", "--concl", "D1 = 1", "--oracle-bound")
    assert code == 2
    assert "MAGARI_ORACLE_BOUND" in err


def test_check_requires_conclusion(capsys):
    code, _, _ = run(capsys, "check")
    assert code == 2


def test_check_equation_needs_single_equals(capsys):
    code, _, err = run(capsys, "check", "--concl", "Dp")
    assert code == 2
    assert "error:" in err


def test_member_inside_and_outside(capsys):
    code, out, _ = run(capsys, "member", "--class", "2", "p & q")
    assert code == 0
    assert "member: True" in out
    code, out, _ = run(capsys, "member", "--class", "2", "!p")
    assert code == 1
    assert "member: False" in out


def test_member_bad_class(capsys):
    code, _, err = run(capsys, "member", "--class", "0", "p")
    assert code == 2
    assert "error:" in err


def test_closure_from_sigma_file(capsys, tmp_path):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("# diagonal and bottom\nd := Dp\nzero := 0\n")
    code, out, _ = run(capsys, "closure", "--sigma", str(sigma), "--vars", "0", "--depth", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["class_count"] == 7
    assert data["truncated"] is False


def test_closure_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "closure", "--sigma", str(tmp_path / "none.txt"))
    assert code == 2
    assert "error:" in err


def test_closure_bad_sigma_line(capsys, tmp_path):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("just a line without the separator\n")
    code, _, err = run(capsys, "closure", "--sigma", str(sigma))
    assert code == 2
    assert "expected 'name := formula'" in err


def test_synthesize(capsys):
    code, out, _ = run(capsys, "synthesize", "010(1)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["element"] == "010(1)"
    from magari import evaluate_closed, parse, parse_element

    assert evaluate_closed(parse(data["term"])) == parse_element("010(1)")


def test_synthesize_bad_element(capsys):
    code, _, err = run(capsys, "synthesize", "01x")
    assert code == 2
    assert "error:" in err


def test_verify_paper_small(capsys):
    code, out, _ = run(capsys, "verify-paper", "--i-max", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "result: PASS"
    assert sum(1 for l in lines if l.startswith("i=") and l.endswith(" PASS")) == 6
    assert any("pairwise separations: 2 confirmed" in l for l in lines)


def test_verify_paper_json_with_oracle(capsys):
    code, out, _ = run(capsys, "verify-paper", "--i-max", "1", "--oracle-bound", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "PASS"
    assert len(data["cells"]) == 3
    assert all(c["oracle_agreed"] for c in data["cells"])
    assert data["separations"] is None


def test_verify_paper_explicit_witnesses(capsys):
    code, out, _ = run(capsys, "verify-paper", "--i-max", "1", "--witnesses", "!p,Dp", "--json")
    assert code == 0
    assert len(json.loads(out)["cells"]) == 2


def test_verify_paper_member_witness_fails(capsys):
    code, out, _ = run(capsys, "verify-paper", "--i-max", "1", "--witnesses", "p & q", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["result"] == "FAIL"
    assert data["cells"][0]["outside_class"] is False


def test_unknown_verb(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "magari" in out


def test_eval_frozen_examples(capsys):
    code, out, _ = run(capsys, "eval", "!D0")
    assert code == 0 and "value: 0(1)" in out
    code, out, _ = run(capsys, "eval", "Dp", "--assign", "p=0(1)")
    assert code == 0 and "value: 1(0)" in out


def test_check_wrapper_equation_via_text_round_trip(capsys):
    from magari import format_formula, evaluate_closed, format_element, parse
    from magari.expressibility import _closed_plug, delta_definer

    w = format_formula(delta_definer(1, parse("!p")))
    c = format_formula(_closed_plug(1, parse("!p")))
    code, out, _ = run(capsys, "check", "--hyp", "Dp = q", "--concl", f"{w} = {c}")
    assert code == 0
    assert "verdict: Valid" in out


def test_counterexample_assignment_text_reparses(capsys):
    from magari import parse_element

    code, out, _ = run(capsys, "check", "--concl", "D(p & q) = Dp", "--json")
    assert code == 1
    data = json.loads(out)
    for text in data["counterexample"]["assignment"].values():
        parse_element(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "!" * 1500 + "p", "--assign", "p=(0)"),
        ("check", "--concl", "!" * 1500 + "p = p"),
        ("eval", "(" * 1200 + "p" + ")" * 1200, "--assign", "p=(0)"),
    ],
    ids=["eval-negations", "check-negations", "eval-parentheses"],
)
def test_deep_nesting_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == "error: formula nested too deeply"


def test_check_oracle_box_over_budget_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "--concl", "p & q = q & r", "--oracle-bound", "8")
    assert code == 2
    assert "error:" in err and "budget" in err


def test_check_oracle_disagreement_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(magari.cli, "decide", lambda query: Verdict(True))
    code, _, err = run(capsys, "check", "--concl", "Dp = p", "--oracle-bound", "3")
    assert code == 3
    assert "internal consistency violation: decider said Valid but the oracle found a counterexample" in err
