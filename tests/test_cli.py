import gc
import json
import os
import resource
import subprocess
import sys

import pytest

import magari.cli
from magari import ZERO, Lasso, Verdict
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


@pytest.mark.parametrize("item", ["pQ=1(0)", "p-q=(0)", "p q=(1)"])
def test_eval_refuses_assignment_names_no_formula_can_use(capsys, item):
    code, out, err = run(capsys, "eval", "p", "--assign", "p=(0)", "--assign", item)
    assert code == 2 and out == ""
    assert err.startswith("error: bad variable name")


def test_eval_accepts_identifier_with_digit_and_underscore(capsys):
    code, out, _ = run(capsys, "eval", "x_1", "--assign", "x_1=(0)", "--json")
    assert code == 0
    assert json.loads(out)["assignment"] == {"x_1": "(0)"}


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


def test_repeated_main_calls_do_not_share_appended_options(capsys):
    code, _, _ = run(capsys, "check", "--hyp", "p = 0", "--concl", "Dp = D0", "--json")
    assert code == 0
    code, out, _ = run(capsys, "check", "--concl", "D(Dp -> p) = Dp", "--json")
    assert code == 0
    assert json.loads(out)["hypotheses"] == []


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


@pytest.mark.parametrize("bound", ["-1", "-2"])
@pytest.mark.parametrize(
    "argv",
    [("check", "--concl", "D1 = 1"), ("verify-paper", "--i-max", "1")],
    ids=lambda argv: argv[0],
)
def test_negative_oracle_bound_is_a_usage_error(capsys, monkeypatch, argv, bound):
    # -1 is a value like any other, not the bare flag that reads the environment
    monkeypatch.setenv("MAGARI_ORACLE_BOUND", "2")
    code, out, err = run(capsys, *argv, "--oracle-bound", bound, "--json")
    assert code == 2
    assert out == ""
    assert f"oracle bound must be >= 0, got {bound}" in err


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


def test_verify_paper_help_documents_its_options(capsys):
    code, out, _ = run(capsys, "verify-paper", "--help")
    assert code == 0
    assert "MAGARI_ORACLE_BOUND" in out
    i_max = next(line.split() for line in out.splitlines() if line.strip().startswith("--i-max"))
    assert len(i_max) > 2  # a help text after the metavar


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
    assert data["oracle_bound"] == 3  # a disagreement with the oracle would have exited 3
    assert len(data["cells"]) == 3
    assert data["separations"] is None


def test_verify_paper_json_cells_report_duration(capsys):
    code, out, _ = run(capsys, "verify-paper", "--i-max", "1", "--json")
    assert code == 0
    data = json.loads(out)
    for cell in data["cells"]:
        assert isinstance(cell["duration_s"], float) and cell["duration_s"] >= 0
        assert {"class", "formula", "passed", "counterexamples"} < cell.keys()
        assert not any(key.startswith("oracle") for key in cell)
    assert sum(c["duration_s"] for c in data["cells"]) <= data["duration_s"] + 1e-5  # rounding


def test_verify_paper_explicit_witnesses(capsys):
    code, out, _ = run(capsys, "verify-paper", "--i-max", "1", "--witnesses", "!p,Dp", "--json")
    assert code == 0
    assert len(json.loads(out)["cells"]) == 2


def test_verify_paper_empty_witness_list_is_refused(capsys):
    code, out, err = run(capsys, "verify-paper", "--i-max", "1", "--witnesses", "")
    assert code == 2
    assert "PASS" not in out
    assert err.startswith("error:")


@pytest.mark.parametrize("witnesses", ["!p,", ""])
def test_verify_paper_empty_witness_entry_is_named(capsys, witnesses):
    code, out, err = run(capsys, "verify-paper", "--i-max", "1", "--witnesses", witnesses)
    assert code == 2
    assert "PASS" not in out
    assert err.startswith("error: --witnesses entry") and "is empty" in err


def test_verify_paper_member_witness_fails(capsys):
    code, out, _ = run(capsys, "verify-paper", "--i-max", "1", "--witnesses", "p & q", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["result"] == "FAIL"
    assert data["cells"][0]["outside_class"] is False


def test_verify_paper_text_failure_reasons_omit_the_oracle(capsys):
    # A disagreement with the oracle raises, so a failed cell's reasons never include it.
    code, out, _ = run(capsys, "verify-paper", "--i-max", "2", "--witnesses", "p&q,Dp", "--oracle-bound", "3")
    assert code == 1
    assert any(l.endswith(" FAIL") for l in out.splitlines())


EVERY_VERB = pytest.mark.parametrize(
    "argv",
    [
        ("eval", "Dp", "--assign", "p=0(1)"),
        ("check", "--concl", "Dp = p"),
        ("member", "--class", "2", "p & q"),
        ("closure", "--sigma", "SIGMA", "--depth", "2"),
        ("synthesize", "010(1)"),
        ("verify-paper", "--i-max", "1", "--witnesses", "Dp"),
    ],
    ids=lambda argv: argv[0],
)


def json_argv(tmp_path, argv):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("d := Dp\n")
    return [str(sigma) if a == "SIGMA" else a for a in argv] + ["--json"]


@EVERY_VERB
def test_every_verb_json_report_has_the_envelope(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *json_argv(tmp_path, argv))
    assert code in (0, 1)
    data = json.loads(out)
    keys = list(data)
    assert keys[0] == "command" and data["command"] == argv[0]
    assert keys[-2:] == ["duration_s", "version"]
    assert isinstance(data["duration_s"], float) and data["duration_s"] >= 0
    assert data["version"] == magari.__version__


@EVERY_VERB
def test_every_verb_json_report_is_one_line_and_leaves_no_cycle(capsys, tmp_path, argv):
    argv = json_argv(tmp_path, argv)
    main(argv)  # warm-up, so that caches filled on first use are not counted
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        main(argv)
        cycles = gc.collect()
    finally:
        gc.enable()
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and json.loads(out)["command"] == argv[0]
    assert cycles == 0


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
    from magari import format_formula, evaluate_closed, format_element, neg_delta_power_term, parse
    from magari.expressibility import _closed_plug, delta_definer

    w = format_formula(delta_definer(1, parse("!p")))
    c = format_formula(_closed_plug(neg_delta_power_term(1), parse("!p")))
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


def test_bracket_nesting_within_the_stack_evaluates(capsys):
    # a parser that spent more stack frames per bracket would refuse this
    code, out, err = run(capsys, "eval", "(" * 400 + "p" + ")" * 400, "--assign", "p=(0)")
    assert (code, err) == (0, "")
    assert "value: (0)" in out.splitlines()


@pytest.mark.parametrize("operators, n", [("#", 900), ("!#", 440), ("@", 150)], ids=["box", "not-box", "nabla"])
def test_deeply_nested_sugar_compiles(capsys, operators, n):
    # #, @ and <-> expand inside the compile in no more stack frames per
    # nesting level than the parsed tree takes
    x = operators * n + "p"
    code, _, err = run(capsys, "check", "--concl", f"{x} = {x}")
    assert (code, err) == (0, "")


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    # exit 1 means a counterexample, so running out of memory must not reach it
    def exhausted(query):
        raise MemoryError

    monkeypatch.setattr(magari.cli, "decide", exhausted)
    code, out, err = run(capsys, "check", "--concl", "Dp = p")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: out of memory"


def test_check_oracle_box_over_budget_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "--concl", "p & q = q & r", "--oracle-bound", "8")
    assert code == 2
    assert "error:" in err and "budget" in err


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_check_oracle_box_under_budget_fits_in_two_gib():
    # one node and 2**25 assignments pass the cell budget; the lane table must
    # then fit in memory, never a kill or a MemoryError turned into exit 3
    script = "import sys; from magari.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(magari.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, "check", "--concl", "p = p", "--oracle-bound", "24"],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=_cap_address_space,
    )
    assert done.returncode in (0, 2), done.stderr
    if done.returncode == 0:
        assert "verdict: Valid" in done.stdout and "oracle_counterexample: None" in done.stdout
    else:
        assert done.stderr.startswith("error:") and "budget" in done.stderr


def test_check_oracle_disagreement_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(magari.cli, "decide", lambda query: Verdict(True))
    code, _, err = run(capsys, "check", "--concl", "Dp = p", "--oracle-bound", "3")
    assert code == 3
    assert "internal consistency violation: decider said Valid but the oracle found a counterexample" in err


def test_verify_paper_oracle_disagreement_is_an_internal_error(capsys, monkeypatch):
    # an oracle that refutes every query disagrees with each valid entailment
    monkeypatch.setattr(sys.modules["magari.decide"], "brute_force",
                        lambda query, bound: {v: ZERO for v in query.transducer.variables})
    code, out, err = run(capsys, "verify-paper", "--i-max", "1", "--witnesses", "Dp", "--oracle-bound", "2")
    assert code == 3
    assert out == ""
    assert err == ("internal consistency violation: i=1 witness=Dp negation_forward: "
                   "decider said Valid but the oracle found a counterexample\n")


def test_check_lasso_failing_replay_is_an_internal_error(capsys, monkeypatch):
    # p = (1) gives Dp = p, so this lasso refutes nothing
    monkeypatch.setattr(magari.cli, "decide", lambda query: Verdict(False, Lasso(("p",), (), (1,), 1)))
    code, out, err = run(capsys, "check", "--concl", "Dp = p")
    assert code == 3
    assert out == ""
    assert "internal consistency violation: counterexample lasso failed exact replay" in err
