"""End-to-end tests for the rbcm command line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rbcm
from rbcm.cli import run_cli
from rbcm.corpus import CATALOG, corpus_text
from rbcm.fileformat import parse_machine, serialize_machine

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


def test_run_trace(mab, capsys):
    assert run_cli(["run", mab, "--word", "ab", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "accept" in out
    assert "s0" in out  # trace shows visited states


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


@pytest.mark.parametrize("exc", [RuntimeError("solver lost a row"),
                                 AssertionError("witness re-check failed")])
def test_internal_error_is_not_a_false_verdict(mab, monkeypatch, capsys, exc):
    from rbcm import decide

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(decide, "is_empty", broken)
    assert run_cli(["empty", mab]) == 5
    assert f"internal error: {type(exc).__name__}: {exc}" in capsys.readouterr().err


def test_usage_errors(mab):
    assert run_cli([]) == 2
    assert run_cli(["member", mab]) == 2
    assert run_cli(["corpus", "get"]) == 2


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
