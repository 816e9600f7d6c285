"""End-to-end tests for the rbcm command line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rbcm
from rbcm.cli import build_parser, run_cli
from rbcm.corpus import CATALOG, corpus_text
from rbcm.fileformat import parse_machine, serialize_machine
from rbcm.machine import EOT, STAY, CounterMachine, Transition

from oracles import lasso_run
from randgen import machine_pool

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture()
def mab(tmp_path):
    f = tmp_path / "M_ab.mach"
    f.write_text(corpus_text("M_ab"))
    return str(f)


@pytest.fixture()
def mab1(tmp_path):
    f = tmp_path / "M_ab1.mach"
    f.write_text(corpus_text("M_ab1"))
    return str(f)


def test_validate_ok(mab, capsys):
    assert run_cli(["validate", mab]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mach"
    bad.write_text("machine broken\nkind dcm\n")
    assert run_cli(["validate", str(bad)]) == 4
    assert "parse error" in capsys.readouterr().err


def test_member_accept_and_reject(mab):
    assert run_cli(["member", mab, "--word", "aabb"]) == 0
    assert run_cli(["member", mab, "--word", "ba"]) == 1


def _stay_loop(tmp_path):
    """The one-state end-of-tape stay loop, which diverges on every word."""
    m = CounterMachine("loop", 1, 1, frozenset({"s0", "s1"}), ("a", "b"), "s0",
                       frozenset({"s1"}), (Transition("s0", EOT, "z", "s0", STAY, (0,)),),
                       True, True)
    f = tmp_path / "loop.mach"
    f.write_text(serialize_machine(m))
    return str(f)


def test_run_trace(mab, tmp_path, capsys):
    """Every `run --trace` line, and the --json step count and certificate,
    are the oracle run's, on an accepting, a rejecting and a diverging run."""
    for path, word, verdict in ((mab, "aabb", "accept"), (mab, "aab", "reject"),
                                (_stay_loop(tmp_path), "", "diverge")):
        with open(path, encoding="utf-8") as fh:
            got_verdict, steps, cert = lasso_run(parse_machine(fh.read()), word)
        assert got_verdict == verdict
        want = []
        for state, consumed, counters, _budgets, t in steps:
            taken = "-" if t is None else f"{t.src} {t.symbol} {t.guard} -> {t.dst} {t.move}"
            want.append(f"state={state!r} consumed={consumed} counters={list(counters)} via {taken}")
        want.append(verdict)
        if cert is not None:
            want.append(f"divergence certificate: steps {cert[0]} and {cert[1]} "
                        f"repeat with growth {list(cert[2])}")
        code = 0 if verdict == "accept" else 1
        assert run_cli(["run", path, "--word", word, "--trace"]) == code
        assert capsys.readouterr().out.splitlines() == want
        assert run_cli(["run", path, "--word", word, "--json"]) == code
        details = json.loads(capsys.readouterr().out)["details"]
        assert details["steps"] == len(steps)
        if cert is None:
            assert "certificate" not in details
        else:
            assert details["certificate"] == {"t1": cert[0], "t2": cert[1],
                                              "growth": list(cert[2])}


def test_run_json_counts_steps_and_stretches(mab, capsys):
    """`details.stretches` counts the stored stretches of the run, and
    `details.steps` its steps: on a^50 b^50 through M_ab, the first a,
    the a loop, the first b, the b loop, the end-of-tape move and the
    accepting configuration."""
    assert run_cli(["run", mab, "--word", "a" * 50 + "b" * 50, "--json"]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert (details["steps"], details["stretches"]) == (102, 6)


def test_enum_json(mab, capsys):
    assert run_cli(["enum", mab, "--max-len", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "enum"
    assert payload["details"]["words"] == ["", "ab", "aabb"]


def test_empty_nonempty_with_witness(mab, capsys):
    assert run_cli(["empty", mab, "--witness"]) == 1
    out = capsys.readouterr().out
    assert "nonempty" in out or "witness" in out


def test_empty_on_empty_language(tmp_path):
    text = corpus_text("pf_ab").replace("final q2", "final")
    f = tmp_path / "none.mach"
    f.write_text(text)
    assert run_cli(["empty", str(f)]) == 0


def test_infinite_verdicts(mab, tmp_path):
    assert run_cli(["infinite", mab]) == 0
    f = tmp_path / "pf_ab.mach"
    f.write_text(corpus_text("pf_ab"))
    assert run_cli(["infinite", str(f)]) == 1


def test_infinite_json_reports_the_route(mab, tmp_path, capsys):
    """`--json` names the step that settled the verdict: no pump at all,
    a path covering the LP pump, or path and pump solved together."""
    pf_ab = tmp_path / "pf_ab.mach"
    pf_ab.write_text(corpus_text("pf_ab"))
    joint = tmp_path / "joint.mach"
    joint.write_text(serialize_machine(machine_pool(4242, 100, alphabet="ab")[9]))
    for path, code, verdict, route in [(mab, 0, "infinite", "pump flow"),
                                       (str(pf_ab), 1, "finite", "no pump"),
                                       (str(joint), 0, "infinite", "pump and flow")]:
        assert run_cli(["infinite", path, "--json"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"command": "infinite", "verdict": verdict,
                           "details": {"route": route}}, path


def test_parikh_json(mab, capsys):
    assert run_cli(["parikh", mab, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["details"]["letters"] == ["a", "b"]
    assert payload["details"]["linear_sets"]


def test_compare_subset_and_equal(mab, mab1):
    assert run_cli(["compare", mab1, mab, "--mode", "subset"]) == 0
    assert run_cli(["compare", mab, mab1, "--mode", "subset"]) == 1
    assert run_cli(["compare", mab, mab, "--mode", "equal"]) == 0


def test_op_writes_parseable_output(mab, tmp_path, capsys):
    out = tmp_path / "rev.mach"
    assert run_cli(["op", "to_one_reversal", mab, "-o", str(out)]) == 0
    built = parse_machine(out.read_text())
    assert run_cli(["member", str(out), "--word", "aabb"]) == 0
    assert run_cli(["member", str(out), "--word", "ba"]) == 1
    assert built.l == 1


def test_op_unknown_and_wrong_arity(mab, tmp_path, capsys):
    out = str(tmp_path / "x.mach")
    assert run_cli(["op", "no_such_op", mab, "-o", out]) == 2
    assert run_cli(["op", "product_intersection", mab, "-o", out]) == 2


@pytest.mark.parametrize("argv", [["inverse_insertion_ncm", "bogus"], ["embed_with_gaps", "0"]])
def test_op_bad_mode_or_gap_count_is_a_usage_error(mab, tmp_path, capsys, argv):
    out = tmp_path / "x.mach"
    assert run_cli(["op", argv[0], mab, argv[1], "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not out.exists()


def test_op_precondition_violation(tmp_path):
    # make_non_exiting refuses machines whose language is not prefix-free.
    f = tmp_path / "M_ab.mach"
    f.write_text(corpus_text("M_ab"))
    out = str(tmp_path / "x.mach")
    assert run_cli(["op", "make_non_exiting", str(f), "-o", out]) == 3


def test_infinite_reversal_budget_is_precondition_error(tmp_path):
    text = corpus_text("M_ab").replace("reversals 1", "reversals inf")
    f = tmp_path / "inf.mach"
    f.write_text(text)
    assert run_cli(["infinite", str(f)]) == 3


RISING_EOT_LOOP = """\
machine rising_eot_loop
kind dcm
acceptance marked
counters 1
reversals 1
alphabet a
states q f
initial q
final f
trans q a * -> q R +1
trans q $ z -> f S 0
trans q $ p -> q S +1
"""


def test_op_complement_needs_a_finite_budget(tmp_path):
    """With `reversals inf` a counter may reverse forever, so `op
    complement` refuses the machine (exit 3).  With a finite budget it
    takes a machine whose end-of-tape stay loop rises forever on every
    nonempty word."""
    inf = tmp_path / "inf.mach"
    inf.write_text(corpus_text("M_ab").replace("reversals 1", "reversals inf"))
    out = tmp_path / "not.mach"
    assert run_cli(["op", "complement", str(inf), "-o", str(out)]) == 3
    rising = tmp_path / "rising.mach"
    rising.write_text(RISING_EOT_LOOP)
    assert run_cli(["op", "complement", str(rising), "-o", str(out)]) == 0
    for w in ("", "a", "aa"):
        assert lasso_run(parse_machine(RISING_EOT_LOOP), w)[0] == ("accept" if not w else "diverge")
        assert run_cli(["member", str(out), "--word", w]) == (1 if not w else 0)


@pytest.mark.parametrize("exc", [RuntimeError("solver lost a row"),
                                 AssertionError("witness re-check failed")])
def test_internal_error_is_not_a_false_verdict(mab, monkeypatch, capsys, exc):
    from rbcm import decide

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(decide, "is_empty", broken)
    assert run_cli(["empty", mab]) == 5
    assert f"internal error: {type(exc).__name__}: {exc}" in capsys.readouterr().err


def test_witness_solver_failure_is_an_internal_error(tmp_path, monkeypatch, capsys):
    """L_2's shortest word has seven letters, past the probe: when the
    Euler walk over the edge counts spells a word the machine rejects,
    `empty --witness` fails loudly, not with a false witness."""
    from rbcm import decide
    from randgen import lr_machine
    f = tmp_path / "L_2.mach"
    f.write_text(serialize_machine(lr_machine(2)))
    assert run_cli(["empty", str(f), "--witness"]) == 1
    monkeypatch.setattr(decide, "_euler_word", lambda initial, used: "aaaabbcc")
    assert run_cli(["empty", str(f)]) == 1
    assert run_cli(["empty", str(f), "--witness"]) == 5
    assert "internal error: AssertionError" in capsys.readouterr().err


INVALID = """\
machine bad
kind dcm
acceptance unmarked
counters 1
reversals 1
alphabet a
states q f
initial q
final f
trans q a z -> f R -1
trans f a p -> f R 0
trans q b z -> f R 0
"""


def test_verdicts_refuse_invalid_machines(tmp_path, capsys):
    # the file parses, but its first move takes the counter to -1
    bad = tmp_path / "bad.mach"
    bad.write_text(INVALID)
    f, out = str(bad), str(tmp_path / "out.mach")
    first = "transition 'q' --a/z--> decrements a counter guarded zero"
    for argv in (["run", f, "--word", "a"], ["member", f, "--word", "a"],
                 ["empty", f, "--witness"], ["infinite", f], ["enum", f, "--max-len", "2"],
                 ["parikh", f], ["compare", f, f, "--mode", "equal"],
                 ["op", "complement", f, "-o", out]):
        assert run_cli(argv) == 4, argv
        assert first in capsys.readouterr().err, argv
    shuffle = tmp_path / "shuffle.mach"
    shuffle.write_text(corpus_text("T_shuffle").replace('output "a"', 'output "q"'))
    assert run_cli(["op", "forward_image_ncm", str(shuffle), "-o", out]) == 4
    assert "foreign symbol 'q'" in capsys.readouterr().err
    assert run_cli(["validate", f, "--json"]) == 1
    errors = json.loads(capsys.readouterr().out)["details"]["errors"]
    assert errors == [first, "transition 'q' --b/z--> symbol not in alphabet"]


def test_usage_errors(mab):
    assert run_cli([]) == 2
    assert run_cli(["member", mab]) == 2
    assert run_cli(["corpus", "get"]) == 2


def _fresh_process(argv):
    """Exit code and stdout of `argv` in a new interpreter."""
    src = str(Path(rbcm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "rbcm", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout


def test_back_to_back_calls_answer_as_fresh_processes(mab, monkeypatch, capsys):
    """`run_cli` keeps one parser per process: no call may see the
    options or the failure of the call before it."""
    calls = [["empty", mab, "--witness", "--json"], ["empty", mab, "--json"],
             ["member", mab], ["member", mab, "--word", "ab", "--json"],
             ["--help"], ["empty", "--help"], ["infinite", mab, "--json"]]
    capsys.readouterr()
    for argv in calls:
        code = run_cli(argv)
        assert (code, capsys.readouterr().out) == _fresh_process(argv), argv
    assert run_cli(["empty", mab, "--json"]) == 1
    assert "witness" not in json.loads(capsys.readouterr().out)
    assert run_cli(["--help"]) == 0
    from rbcm import decide
    monkeypatch.setattr(decide, "is_empty", lambda m, want_witness: (True, None))
    assert run_cli(["empty", mab]) == 0
    monkeypatch.undo()
    assert run_cli(["empty", mab]) == 1
    assert build_parser() is not build_parser()


def test_corpus_list_and_get(capsys):
    assert run_cli(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    for name in CATALOG:
        assert name in out
    assert run_cli(["corpus", "get", "M_neq"]) == 0
    assert "kind dcm" in capsys.readouterr().out
    assert run_cli(["corpus", "get", "nope"]) == 3


@pytest.mark.parametrize("name", CATALOG)
def test_round_trip_on_shipped_files(name, tmp_path, capsys):
    src = CORPUS_DIR / f"{name}.mach"
    parsed = parse_machine(src.read_text())
    again = tmp_path / f"{name}.mach"
    again.write_text(serialize_machine(parsed))
    assert run_cli(["validate", str(again)]) == 0
    capsys.readouterr()
    # One serialization pass canonicalizes transition order; after that the
    # parse/serialize cycle is a strict identity.
    reparsed = parse_machine(again.read_text())
    assert parse_machine(serialize_machine(reparsed)) == reparsed


def test_runs_without_networkx(mab, mab1):
    """Complement and union need no third-party package: with `networkx`
    blocked from import, `rbcm compare` (a complement and a product) and
    `boolean_dcm(..., "or")` still succeed."""
    script = f"""
import sys
sys.modules["networkx"] = None
from rbcm.cli import run_cli
from rbcm.constructions import boolean_dcm
from rbcm.corpus import load_corpus
from rbcm.decide import member
print(run_cli(["compare", {mab1!r}, {mab!r}, "--mode", "subset"]))
either = boolean_dcm(load_corpus("M_ab").artifact, load_corpus("M_ab1").artifact, "or")
print(member(either, ""), member(either, "ab"), member(either, "ba"))
"""
    src = str(Path(rbcm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["0", "True True False"], proc.stdout


def test_installed_entry_point(mab):
    exe = shutil.which("rbcm")
    if exe is None:
        cmd = [sys.executable, "-m", "rbcm"]
    else:
        cmd = [exe]
    # the child finds the package under test also when only pytest's
    # `pythonpath` setting put it on sys.path
    src = str(Path(rbcm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(cmd + ["member", mab, "--word", "ab"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
