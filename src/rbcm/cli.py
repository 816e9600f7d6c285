"""Command-line driver.

Exit codes: 0 true/success, 1 false/negative verdict, 2 usage error,
3 precondition violation, 4 file parse error, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import constructions, decide, transducer
from .corpus import CATALOG, corpus_text, load_corpus
from .errors import MachineError, ParseError, PreconditionViolated
from .fileformat import parse_machine, serialize_machine
from .machine import CounterMachine, run_deterministic, validate_machine
from .regular import dfa_from_machine
from .transducer import CounterTransducer, validate_transducer

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc}") from exc
    return parse_machine(text)


def _load_machine(path):
    obj = _load(path)
    if isinstance(obj, CounterTransducer):
        raise PreconditionViolated(f"{path} is a transducer, expected a machine")
    return obj


def _load_transducer(path):
    obj = _load(path)
    if not isinstance(obj, CounterTransducer):
        raise PreconditionViolated(f"{path} is a machine, expected a transducer")
    return obj


def _load_dfa(path):
    m = _load_machine(path)
    if m.k != 0:
        raise PreconditionViolated(f"{path} has counters; a counterless machine is required here")
    return dfa_from_machine(m)


def _require_finite(m):
    machine = m.machine if isinstance(m, CounterTransducer) else m
    if machine.l is None:
        raise PreconditionViolated("this operation needs a finite reversal budget, got inf")


class _Report:
    """Collects the verdict and prints it as text or JSON."""

    def __init__(self, command, as_json):
        self.command = command
        self.as_json = as_json
        self.witness = None
        self.details = {}
        self.lines = []

    def say(self, line):
        self.lines.append(str(line))

    def finish(self, verdict, code):
        if self.as_json:
            obj = {"command": self.command, "verdict": verdict}
            if self.witness is not None:
                obj["witness"] = self.witness
            if self.details:
                obj["details"] = self.details
            print(json.dumps(obj))
        else:
            for line in self.lines:
                print(line)
        return code


def _cmd_validate(args, rep):
    obj = _load(args.file)
    if isinstance(obj, CounterTransducer):
        errors = validate_transducer(obj)
    else:
        errors = validate_machine(obj)
    for e in errors:
        rep.say(f"invalid: {e}")
    rep.details["errors"] = list(errors)
    if errors:
        return rep.finish("invalid", EXIT_FALSE)
    rep.say("valid")
    return rep.finish("valid", EXIT_TRUE)


def _cmd_run(args, rep):
    m = _load_machine(args.file)
    if not m.deterministic:
        raise PreconditionViolated("run needs a deterministic machine; use member instead")
    _require_finite(m)
    trace = run_deterministic(m, args.word)
    if args.trace:
        for cfg, tr in trace.steps:
            taken = "-" if tr is None else f"{tr.src} {tr.symbol} {tr.guard} -> {tr.dst} {tr.move}"
            rep.say(f"state={cfg.state!r} consumed={cfg.consumed} counters={list(cfg.counters)} via {taken}")
    rep.say(trace.verdict)
    rep.details["steps"] = len(trace.steps)
    if trace.verdict == "diverge" and trace.certificate is not None:
        cert = trace.certificate
        rep.details["certificate"] = {"t1": cert.t1, "t2": cert.t2, "growth": list(cert.growth)}
        rep.say(f"divergence certificate: steps {cert.t1} and {cert.t2} repeat with growth {list(cert.growth)}")
    return rep.finish(trace.verdict, EXIT_TRUE if trace.verdict == "accept" else EXIT_FALSE)


def _cmd_member(args, rep):
    m = _load_machine(args.file)
    _require_finite(m)
    ok = decide.member(m, args.word)
    rep.say("accept" if ok else "reject")
    return rep.finish("accept" if ok else "reject", EXIT_TRUE if ok else EXIT_FALSE)


def _cmd_enum(args, rep):
    m = _load_machine(args.file)
    _require_finite(m)
    words = decide.enumerate_words(m, args.max_len)
    for w in words:
        rep.say(w if w else '""')
    rep.details["words"] = list(words)
    rep.details["count"] = len(words)
    return rep.finish("ok", EXIT_TRUE)


def _cmd_empty(args, rep):
    m = _load_machine(args.file)
    _require_finite(m)
    empty, witness = decide.is_empty(m, want_witness=args.witness)
    if empty:
        rep.say("empty")
        return rep.finish("empty", EXIT_TRUE)
    rep.say("nonempty")
    if args.witness and witness is not None:
        rep.say(witness if witness else '""')
        rep.witness = witness
    return rep.finish("nonempty", EXIT_FALSE)


def _cmd_infinite(args, rep):
    m = _load_machine(args.file)
    _require_finite(m)
    inf = decide.is_infinite(m)
    rep.say("infinite" if inf else "finite")
    return rep.finish("infinite" if inf else "finite", EXIT_TRUE if inf else EXIT_FALSE)


def _cmd_parikh(args, rep):
    m = _load_machine(args.file)
    _require_finite(m)
    sets = decide.parikh_image(m)
    letters = sorted(m.alphabet)
    rep.details["letters"] = letters
    rep.details["linear_sets"] = [
        {"base": list(c.base), "periods": sorted(list(p) for p in c.periods)}
        for c in sets
    ]
    rep.say("letters: " + " ".join(letters))
    for c in sets:
        periods = sorted(list(p) for p in c.periods)
        rep.say(f"base {list(c.base)} periods {periods}")
    return rep.finish("ok", EXIT_TRUE)


def _cmd_compare(args, rep):
    m1 = _load_machine(args.file1)
    m2 = _load_machine(args.file2)
    _require_finite(m1)
    _require_finite(m2)
    verdict, counterexample = decide.compare(m1, m2, args.mode)
    rep.say("true" if verdict else "false")
    if counterexample is not None:
        rep.say(f"counterexample: {counterexample if counterexample else chr(34) * 2}")
        rep.witness = counterexample
    return rep.finish("true" if verdict else "false",
                      EXIT_TRUE if verdict else EXIT_FALSE)


# Each op maps to (argument kinds, callable).  Kinds: "m" machine file,
# "t" transducer file, "d" counterless machine file read as a DFA,
# "w" literal word, "s" literal token, "i" literal integer.
_OPS = {
    "to_one_reversal": ("m", decide.to_one_reversal),
    "product_intersection": ("mm", constructions.product_intersection),
    "complement": ("m", lambda m: constructions.boolean_dcm(m, None, "not")),
    "boolean_and": ("mm", lambda a, b: constructions.boolean_dcm(a, b, "and")),
    "boolean_or": ("mm", lambda a, b: constructions.boolean_dcm(a, b, "or")),
    "strip_end_marker_one_counter": ("m", constructions.strip_end_marker_one_counter),
    "make_non_exiting": ("m", constructions.make_non_exiting),
    "concat_pf_dcmne_dcm": ("mm", constructions.concat_pf_dcmne_dcm),
    "concat_dcmne_regular": ("md", constructions.concat_dcmne_regular),
    "concat_dcm1_regular": ("md", constructions.concat_dcm1_regular),
    "concat_pf_regular_dcm": ("dm", constructions.concat_pf_regular_dcm),
    "inverse_prefix_dcm1": ("m", constructions.inverse_prefix_dcm1),
    "left_quotient_word": ("mw", constructions.left_quotient_word),
    "concat_ncm": ("mm", constructions.concat_ncm),
    "inverse_insertion_ncm": ("ms", constructions.inverse_insertion_ncm),
    "embed_with_gaps": ("mi", lambda m, g: constructions.inverse_insertion_ncm(m, "embed", gaps=g)),
    "to_null_transducer": ("m", transducer.to_null_transducer),
    "inverse_apply": ("tm", transducer.inverse_apply),
    "forward_image_ncm": ("t", transducer.forward_image_ncm),
}

_LOADERS = {
    "m": _load_machine,
    "t": _load_transducer,
    "d": _load_dfa,
    "w": lambda s: s,
    "s": lambda s: s,
    "i": int,
}


def _cmd_op(args, rep):
    if args.opname not in _OPS:
        print(f"unknown op {args.opname!r}; available: {', '.join(sorted(_OPS))}",
              file=sys.stderr)
        return EXIT_USAGE
    kinds, fn = _OPS[args.opname]
    if len(args.inputs) != len(kinds):
        print(f"op {args.opname} takes {len(kinds)} inputs, got {len(args.inputs)}",
              file=sys.stderr)
        return EXIT_USAGE
    values = []
    for kind, raw in zip(kinds, args.inputs):
        try:
            values.append(_LOADERS[kind](raw))
        except ValueError as exc:
            print(f"bad argument {raw!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    result = fn(*values)
    text = serialize_machine(result)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    rep.say(f"wrote {args.output}")
    rep.details["output"] = args.output
    return rep.finish("ok", EXIT_TRUE)


def _cmd_corpus(args, rep):
    if args.action == "list":
        for name in CATALOG:
            rep.say(name)
        rep.details["entries"] = list(CATALOG)
        return rep.finish("ok", EXIT_TRUE)
    if args.name is None:
        print("corpus get needs an entry name", file=sys.stderr)
        return EXIT_USAGE
    entry = load_corpus(args.name)
    rep.say(corpus_text(args.name).rstrip("\n"))
    rep.details["name"] = entry.name
    rep.details["description"] = entry.description
    return rep.finish("ok", EXIT_TRUE)


def build_parser():
    p = argparse.ArgumentParser(
        prog="rbcm",
        description="Reversal-bounded counter machines: run, decide, transform.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON verdict object")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", _cmd_validate, help="check a machine file for structural errors")
    sp.add_argument("file")

    sp = add("run", _cmd_run, help="run a deterministic machine on a word")
    sp.add_argument("file")
    sp.add_argument("--word", required=True)
    sp.add_argument("--trace", action="store_true")

    sp = add("member", _cmd_member, help="decide word membership")
    sp.add_argument("file")
    sp.add_argument("--word", required=True)

    sp = add("enum", _cmd_enum, help="list accepted words up to a length")
    sp.add_argument("file")
    sp.add_argument("--max-len", type=int, required=True)

    sp = add("empty", _cmd_empty, help="decide language emptiness")
    sp.add_argument("file")
    sp.add_argument("--witness", action="store_true")

    sp = add("infinite", _cmd_infinite, help="decide language infiniteness")
    sp.add_argument("file")

    sp = add("parikh", _cmd_parikh, help="print the letter-count image as linear sets")
    sp.add_argument("file")

    sp = add("compare", _cmd_compare, help="compare two machine languages")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.add_argument("--mode", choices=("subset", "equal"), required=True)

    sp = add("op", _cmd_op, help="apply a construction and write the result")
    sp.add_argument("opname")
    sp.add_argument("inputs", nargs="*")
    sp.add_argument("-o", "--output", required=True)

    sp = add("corpus", _cmd_corpus, help="list or print bundled machines")
    sp.add_argument("action", choices=("list", "get"))
    sp.add_argument("name", nargs="?")

    return p


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    rep = _Report(args.command, getattr(args, "json", False))
    try:
        return args.fn(args, rep)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        # a fault in the library must not read as a "false" verdict
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
