import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramata.analysis import growth
from gramata.algebra import FreeGroup
from gramata import cli, experiments
from gramata.cli import main
from gramata.constructions import standard_generators

from conftest import CORPUS_DIR, MALFORMED_GROUPS


@pytest.fixture
def upow_file(corpus_dir):
    return str(corpus_dir / "upow.efa")


def test_run_accept(upow_file, capsys):
    assert main(["run", upow_file, "aaaa"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Accept"


def test_run_reject(upow_file, capsys):
    assert main(["run", upow_file, "aaa"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "Reject"


def test_run_budget_exhausted(upow_file, capsys):
    assert main(["run", upow_file, "aa", "--budget", "1"]) == 2
    assert capsys.readouterr().out.splitlines()[0] == "BudgetExhausted"


def test_run_empty_word(corpus_dir, capsys):
    assert main(["run", str(corpus_dir / "anbncn.efa"), ""]) == 0


def test_run_json(upow_file, capsys):
    assert main(["run", upow_file, "aaaa", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Accept"
    assert payload["stats"]["accept_depth"] is not None


def test_run_prints_its_certificate(corpus_dir, capsys):
    argv = ["run", str(corpus_dir / "mult.efa"), "xyyzz", "--budget-policy", "mult"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Accept"
    assert lines[1].startswith("expanded=")
    steps = [line.split("\t") for line in lines[2:]]
    assert len(steps) == 12
    assert steps[0] == ["m0", "x", "m0", "H(0,1,0)", "H(0,1,0)"]
    assert steps[-1][4] == "H(0,0,0)"  # the accepting register is the identity

    assert main(argv + ["--json"]) == 0
    certificate = json.loads(capsys.readouterr().out)["certificate"]
    assert [list(step.values()) for step in certificate] == steps
    assert "".join(step["symbol"] for step in certificate).replace("~", "") == "xyyzz"
    assert all(a["target"] == b["source"] for a, b in zip(certificate, certificate[1:]))


def test_run_without_accept_has_no_certificate(upow_file, capsys):
    assert main(["run", upow_file, "aaa", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["certificate"] is None
    assert main(["run", upow_file, "aaa"]) == 1
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_enum(corpus_dir, capsys):
    code = main(["enum", str(corpus_dir / "oddpow.efa"), "--max-len", "9", "--budget-policy", "oddpow"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["aa", "aaaaaaaa"]


def test_enum_epsilon_rendering(corpus_dir, capsys):
    main(["enum", str(corpus_dir / "anbncn.efa"), "--max-len", "3", "--budget-policy", "anbncn"])
    assert capsys.readouterr().out.splitlines() == ["ε", "abc"]


def test_enum_machine_without_accepting_states(tmp_path, capsys):
    doc = "group free-abelian 1\nstates q0\ninitial q0\naccepting\nalphabet a\ntransitions\nq0 a q0 [1]\n"
    path = tmp_path / "noaccept.efa"
    path.write_text(doc)
    assert main(["enum", str(path), "--max-len", "3"]) == 0
    assert capsys.readouterr().out == ""


def test_check_pass(corpus_dir, capsys):
    code = main(
        ["check", str(corpus_dir / "mult.efa"), "--oracle", "MULT", "--max-len", "5", "--budget-policy", "mult"]
    )
    assert code == 0


def test_check_mismatch_exit_code(upow_file):
    assert main(["check", upow_file, "--oracle", "ODDPOW", "--max-len", "8", "--budget-policy", "upow"]) == 1


def test_check_unknown_oracle(upow_file, capsys):
    assert main(["check", upow_file, "--oracle", "NOPE", "--max-len", "3"]) == 3
    assert "unknown oracle" in capsys.readouterr().err


def test_enum_under_a_short_budget_warns_and_exits_2(corpus_dir, capsys):
    assert main(["enum", str(corpus_dir / "wp-f2.efa"), "--max-len", "4", "--budget", "3"]) == 2
    assert capsys.readouterr().err == "warning: 256 undecided words\n"


def test_check_under_a_short_budget_exits_2(corpus_dir, capsys):
    path = str(corpus_dir / "wp-f2.efa")
    assert main(["check", path, "--oracle", "WP:free:2", "--max-len", "4", "--budget", "3"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"machine {path} vs oracle WP:free:2: 341 words up to length 4: 0 mismatches, 256 undecided"
    assert len(lines) == 1 + 256 and all(line.startswith("undecided\t") for line in lines[1:])


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.efa"
    bad.write_text("group matrix-Q 2 det=1\nstates q0\n")
    assert main(["run", str(bad), "a"]) == 3
    assert "missing sections" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["1.5", "1e5", "-", "1_000", "\u0661"])
def test_bad_vector_literal_exits_3(corpus_dir, tmp_path, token, capsys):
    text = (corpus_dir / "wp-z.efa").read_text()
    assert "w0 a w0 [1]\n" in text
    bad = tmp_path / "bad.efa"
    bad.write_text(text.replace("w0 a w0 [1]\n", f"w0 a w0 [{token}]\n"))
    assert main(["run", str(bad), "a"]) == 3
    assert "not an integer literal" in capsys.readouterr().err


def test_an_alphabet_symbol_spelled_by_one_character_symbols_exits_3(tmp_path, capsys):
    # enum would print ab for the word (a, b) and for the word (ab) alike
    bad = tmp_path / "bad.efa"
    bad.write_text("group free-abelian 1\nstates q\ninitial q\naccepting q\nalphabet a ab b\ntransitions\nq a q [0]\n")
    assert main(["enum", str(bad), "--max-len", "2"]) == 3
    assert "bad-symbol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "ε"], ["enum", "--max-len", "2"]])
def test_an_alphabet_symbol_spelled_as_the_empty_word_exits_3(tmp_path, argv, capsys):
    # run would read ε as the empty word, and enum would print ε for the
    # empty word and for the one-symbol word alike
    bad = tmp_path / "bad.efa"
    bad.write_text("group free-abelian 1\nstates q\ninitial q\naccepting q\nalphabet ε\ntransitions\nq ε q [0]\n")
    assert main(argv[:1] + [str(bad)] + argv[1:]) == 3
    assert "bad-symbol" in capsys.readouterr().err


def test_memory_error_exits_3(monkeypatch, upow_file, capsys):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_run", out_of_memory)
    assert main(["run", upow_file, "a"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


def test_missing_file_exit_code(capsys):
    assert main(["run", "no-such-file.efa", "a"]) == 3


def test_usage_error_exit_code(capsys):
    assert main(["enum"]) == 3  # missing required arguments


def test_growth_matches_library(capsys):
    assert main(["growth", "--group", "free:2", "--radius", "2"]) == 0
    out = capsys.readouterr().out.strip()
    table = growth(FreeGroup(2), standard_generators(FreeGroup(2)), 2)
    assert out == "\t".join(str(c) for c in table.counts) == "1\t5\t17"


def test_growth_custom_gens(capsys):
    assert main(["growth", "--group", "heis", "--gens", "a=H(0,1,0);b=H(1,0,0)", "--radius", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1\t5\t17"


@pytest.mark.parametrize(
    "gens, message", [("a", "the form name=element"), (";", "empty generator list")], ids=["no-element", "no-generator"]
)
def test_growth_malformed_gens_exit_3(gens, message, capsys):
    assert main(["growth", "--group", "zk:1", "--gens", gens, "--radius", "1"]) == 3
    assert message in capsys.readouterr().err


def test_dissim_json(capsys):
    assert main(["dissim", "--oracle", "UPOW", "--max-len", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == 3


def test_probe(capsys):
    assert main(["probe", "--experiment", "theorem-growth-probe-h", "--max-len", "12"]) == 0
    out = capsys.readouterr().out
    assert "crossing at n=10" in out


def test_probe_below_two_is_a_usage_error(capsys):
    # the probe's first length is 2, so a shorter bound names the flag
    assert main(["probe", "--experiment", "theorem-growth-probe-h", "--max-len", "1"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "gramata probe: error: argument --max-len: the value must be an integer of at least 2 in decimal digits, got '1'"
    )


def test_probe_unknown_experiment(capsys):
    assert main(["probe", "--experiment", "nope"]) == 3


def test_paper_single_experiment(capsys):
    assert main(["paper", "--experiment", "upow-equiv-16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS  upow-equiv-16")


def test_paper_all_runs_the_registry_by_criterion_then_id(monkeypatch, capsys):
    registry = [
        experiments.Experiment("b", 2, "second by id", lambda: (True, [])),
        experiments.Experiment("z", 1, "first by criterion", lambda: (True, [])),
        experiments.Experiment("a", 2, "first by id", lambda: (False, ["why"])),
    ]
    monkeypatch.setattr(experiments, "EXPERIMENTS", {e.experiment_id: e for e in registry})
    assert main(["paper", "--all", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(r["id"], r["criterion"], r["passed"]) for r in payload["results"]] == [
        ("z", 1, True),
        ("a", 2, False),
        ("b", 2, True),
    ]
    assert payload["all_passed"] is False
    assert main(["paper", "--all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:4]] == [["PASS", "z"], ["FAIL", "a"], ["why"], ["PASS", "b"]]
    assert lines[-1] == "2/3 criteria passed"


def test_paper_unknown_experiment(capsys):
    assert main(["paper", "--experiment", "nope"]) == 3


def test_paper_requires_argument(capsys):
    assert main(["paper"]) == 3


def test_corpus_emit(tmp_path, capsys):
    assert main(["corpus", "--dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "upow.efa").exists()


@pytest.mark.parametrize("spec", ["zk:-1", "free:0", "matq:0", "matq:-2:det1", "zk:abc"])
def test_bad_compact_group_exit_code(spec, capsys):
    assert main(["growth", "--group", spec, "--radius", "1"]) == 3
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("shape", list(MALFORMED_GROUPS))
def test_a_malformed_group_exits_3_in_both_grammars(shape, tmp_path, capsys):
    spec, compact = MALFORMED_GROUPS[shape]
    assert main(["growth", "--group", compact, "--radius", "1"]) == 3
    bad = tmp_path / "bad.efa"
    bad.write_text(f"# a malformed group line\ngroup {spec}\n")
    assert main(["run", str(bad), "a"]) == 3
    assert "(line 2)" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize(
    "policy",
    [
        "nope",
        # a policy named like the default, which argparse does not count as given
        "default",
        "upow",
    ],
)
def test_a_budget_and_a_budget_policy_together_exit_3(upow_file, policy, capsys):
    assert main(["run", upow_file, "aaaa", "--budget", "30", "--budget-policy", policy]) == 3
    assert main(["run", upow_file, "aaaa", "--budget-policy", policy, "--budget", "30"]) == 3
    assert "not allowed with argument" in capsys.readouterr().err


def test_an_empty_budget_policy_is_unknown(upow_file, capsys):
    assert main(["run", upow_file, "aaaa", "--budget-policy", ""]) == 3
    assert "unknown budget policy ''" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--group", "free:2", "--radius", "-1"],
        ["enum", "corpus/upow.efa", "--max-len", "-3"],
        ["run", "corpus/upow.efa", "aa", "--budget", "-5"],
        ["check", "corpus/upow.efa", "--oracle", "UPOW", "--max-len", "-1"],
        # --workers is no flag of enum or check: an unknown flag exits 3 too
        ["enum", "corpus/upow.efa", "--max-len", "3", "--workers", "0"],
        ["check", "corpus/upow.efa", "--oracle", "UPOW", "--max-len", "3", "--workers", "-2"],
        ["dissim", "--oracle", "UPOW", "--max-len", "-1"],
        ["probe", "--experiment", "theorem-growth-probe-h", "--max-len", "-4"],
        ["growth", "--group", "free:2", "--radius", "two"],
        # a verdict is relative to its budget, so a budget of 0 is not run as 1
        ["run", "corpus/upow.efa", "aa", "--budget", "0"],
    ],
)
def test_out_of_range_integer_flags_exit_3(argv, capsys):
    # argument parsing fails before any machine file is read
    assert main(argv) == 3
    assert "argument" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
def test_malformed_mem_guard_exit_3(monkeypatch, value, capsys):
    monkeypatch.setenv("GRAMATA_MEM_GUARD", value)
    runs = [
        ["growth", "--group", "free:2", "--radius", "2"],
        # two words that no search decides: the empty path accepts the first,
        # and the second has no register-ignoring path at all
        ["run", str(CORPUS_DIR / "wp-f2.efa"), "ε"],
        ["run", str(CORPUS_DIR / "mult.efa"), "zxyyzxxyz"],
    ]
    for argv in runs:
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert "GRAMATA_MEM_GUARD" in captured.err and captured.out == "", argv


@pytest.mark.parametrize(
    "argv, mem_guard, code, out",
    [
        # int() takes each of these but 0x3; a count is ASCII decimal digits only
        (["run", "upow.efa", "aa", "--budget", "\u0663"], None, 3, None),  # an Arabic-Indic three
        (["enum", "upow.efa", "--max-len", "1_0"], None, 3, None),
        (["run", "upow.efa", "aa", "--budget", "+5"], None, 3, None),
        (["growth", "--group", "free:2", "--radius", " 5"], None, 3, None),
        (["growth", "--group", "free:2", "--radius", "2"], "1_000", 3, None),
        (["growth", "--group", "free:2", "--radius", "2"], "\u0665\u0660", 3, None),
        (["run", "upow.efa", "aa", "--budget", "0x3"], None, 3, None),
        # the counts that were valid read as before
        (["enum", "multiple.efa", "--max-len", "0"], None, 0, "\u03b5\n"),
        (["run", "upow.efa", "aa", "--budget", "1"], None, 2, "BudgetExhausted\nexpanded=1 max_depth=0 accept_depth=None\n"),
        (["growth", "--group", "zk:3", "--radius", "6"], None, 0, "1\t7\t25\t63\t129\t231\t377\n"),
        (["growth", "--group", "free:2", "--radius", "3"], "100", 0, "1\t5\t17\t53\n"),
    ],
)
def test_every_count_from_outside_is_ascii_decimal_digits(monkeypatch, capsys, argv, mem_guard, code, out):
    if mem_guard is not None:
        monkeypatch.setenv("GRAMATA_MEM_GUARD", mem_guard)
    argv = [str(CORPUS_DIR / a) if a.endswith(".efa") else a for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    if out is None:
        # one usage-error line, argparse's or main's, and no traceback
        assert [line for line in captured.err.splitlines() if "error:" in line] == captured.err.splitlines()[-1:]
        assert "Traceback" not in captured.err
    else:
        assert (captured.out, captured.err) == (out, "")


def test_growth_radius_bounded_on_a_ball_that_stops_growing(monkeypatch, capsys):
    # the ball of the trivial generator is {0}: only the recorded layers grow
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "100")
    assert main(["growth", "--group", "zk:1", "--gens", "a=[0]", "--radius", "1000"]) == 3
    assert "stored more than 100" in capsys.readouterr().err


@pytest.mark.parametrize(
    "group, guard, code, text",
    [
        # 200,000 symmetric generators with masks of 3,125 words each, and
        # 40,000 with 625: refused before any product
        ("free:100000", None, 3, "masks of 200000 generators take 625000000 words, more than the guard 10000000"),
        ("free:20000", None, 3, "masks of 40000 generators take 25000000 words, more than the guard 10000000"),
        ("free:2000", None, 0, "1\t4001\n"),  # masks of 63 words
        # 64 generators or fewer are checked by the first sphere's inserts
        ("free:32", "64", 3, "stored more than 64 elements\n"),
        ("free:32", "67", 0, "1\t65\n"),  # 65 elements and 2 recorded layers
        # the standard set's entries, refused before any is built
        ("zk:20000", None, 3, "free-abelian 20000 has 400000000 entries, more than the guard 10000000"),
        ("zk:32", "1000", 3, "free-abelian 32 has 1024 entries, more than the guard 1000"),
        ("zk:31", "1000", 0, "1\t63\n"),
        ("free:1001", "1000", 3, "free 1001 has 1001 entries, more than the guard 1000"),
        # a direct product's set is charged its components' entries together:
        # 225 + 1 is over a guard of 225, though each component alone fits
        ("prod(zk:15,free:1)", "225", 3, "(free 1) has 226 entries, more than the guard 225"),
        ("prod(zk:15,free:1)", "226", 0, "1\t33\n"),
    ],
)
def test_growth_charges_the_generating_set_against_the_guard(monkeypatch, capsys, group, guard, code, text):
    if guard is not None:
        monkeypatch.setenv("GRAMATA_MEM_GUARD", guard)
    assert main(["growth", "--group", group, "--radius", "1"]) == code
    captured = capsys.readouterr()
    assert text in (captured.out if code == 0 else captured.err)


def _no_sweep(*args, **kwargs):
    raise AssertionError("a word was decided")


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "corpus/wp-f2.efa", "--max-len", "16"],  # 5.7 * 10^9 words
        ["check", "corpus/wp-f2.efa", "--oracle", "WP:free:2", "--max-len", "16"],
        ["enum", "corpus/composite.efa", "--max-len", "100000000"],  # one word per length
    ],
)
def test_a_sweep_past_the_memory_guard_is_refused_up_front(monkeypatch, argv, capsys):
    monkeypatch.setattr(cli.simulate, "_language_verdicts", _no_sweep)
    assert main(argv) == 3
    assert "more than the guard 10000000" in capsys.readouterr().err


def test_the_sweep_guard_counts_every_word(monkeypatch, capsys):
    # 1 + 3 + ... + 3^6 = 1,093 words against 364 up to length 5
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "1000")
    argv = ["check", "corpus/mult.efa", "--oracle", "MULT", "--budget-policy", "mult", "--max-len"]
    assert main(argv + ["6"]) == 3
    assert "words up to length 6 over 3 symbols" in capsys.readouterr().err
    assert main(argv + ["5"]) == 0
    assert capsys.readouterr().out.startswith("machine corpus/mult.efa vs oracle MULT: 364 words")


def test_registers_past_the_digit_limit_print(tmp_path, capsys):
    # the certificate's registers reach 2^16000, 4,817 decimal digits, past
    # what str() converts by default: they print in hexadecimal
    big = 2**4000
    path = tmp_path / "big.efa"
    path.write_text(
        "group positive-rationals\nstates q\ninitial q\naccepting q\nalphabet a b\n"
        f"transitions\nq a q {big}\nq b q 1/{big}\n"
    )
    argv = ["run", str(path), "a a a a b b b b"]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = f"0x{big**4:x}" if 0 < limit < 4817 else str(big**4)
    assert main(argv) == 0
    steps = [line.split("\t") for line in capsys.readouterr().out.splitlines()[2:]]
    assert [step[4] for step in steps[3:]] == [top, f"{big**3}", f"{big**2}", f"{big}", "1"]
    assert main(argv + ["--json"]) == 0
    certificate = json.loads(capsys.readouterr().out)["certificate"]
    assert [list(step.values()) for step in certificate] == steps


def _exit_code(argv):
    """main(argv) with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# junk flag values: none of them an integer that int() reads past 40
_JUNK = st.sampled_from(["", "x", "-", "1.5", "1e3", "0x10", "+5", "1_0", "\u0663", "9" * 5000, "ε", "~"])
# small values only, so that no draw can ask for a large search or ball
_SMALL_INT = st.integers(-2, 40).map(str)
_FLAG_VALUE = st.one_of(_SMALL_INT, _JUNK)


@st.composite
def _run_argv(draw):
    name = draw(st.sampled_from(["mult", "multiple", "composite", "upow", "wp-f2", "wp-heis", "qplus-eqcount", "none"]))
    symbols = st.sampled_from(["a", "b", "x", "y", "z", "a^-1", "b^-1", "c^-1", "~", "ε", "#", "q", "é"])
    word = draw(st.one_of(st.lists(symbols, max_size=6).map(" ".join), st.text("abxyz~ ", max_size=6)))
    argv = ["run", str(CORPUS_DIR / f"{name}.efa"), word]
    if draw(st.booleans()):
        argv += ["--budget", draw(_FLAG_VALUE)]
    if draw(st.booleans()):
        argv += ["--budget-policy", draw(st.sampled_from(["default", "mult", "composite", "wp-f2", "nope", ""]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@st.composite
def _growth_argv(draw):
    groups = ["free:1", "free:2", "free:3", "zk:1", "zk:3", "qplus", "heis", "matq:2", "matz:2:det1", "matq:2:detpm1"]
    groups += ["prod(free:1,zk:1)", "free:0", "zk:-1", "matq:2:bad", "prod(free:2", "nope", ""]
    # no digits in drawn group text, so no drawn rank or dimension is large
    group = draw(st.one_of(st.sampled_from(groups), st.text("frezkqplushmatdi:(),", max_size=10)))
    argv = ["growth", "--group", group, "--radius", draw(st.one_of(st.integers(-1, 4).map(str), _JUNK))]
    if draw(st.booleans()):
        gens = ["a=[1]", "a=[1];b=[0,1]", "a=H(0,1,0);b=H(1,0,0)", "a=g0;b=g1", "a=[[1,1],[0,1]]", "a=2;b=3"]
        gens += ["a=0", ";"]
        # no '^' in drawn generator text, so no drawn free word is long
        argv += ["--gens", draw(st.one_of(st.sampled_from(gens), st.text("ab=;[]0123456789,-H() g/", max_size=10)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(argv=st.one_of(_run_argv(), _growth_argv()))
@settings(max_examples=200, deadline=None)
def test_run_and_growth_return_an_exit_code_and_never_raise(argv):
    assert _exit_code(argv) in (0, 1, 2, 3)
