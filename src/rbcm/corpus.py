"""Bundled example machines and transducers.

Each entry ships as a ``.mach`` file next to this module and carries a
small expected-membership table used by the test suite.  For the
transducer entry the table describes the underlying machine's input
language (which words have any run to a final state).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import UnknownEntry
from .fileformat import parse_machine

_TABLES = {
    "M_ab": (
        ("", True), ("ab", True), ("aabb", True), ("aaabbb", True),
        ("a", False), ("b", False), ("ba", False), ("aab", False),
        ("abb", False), ("abab", False),
    ),
    "M_ab1": (
        ("", False), ("ab", True), ("aabb", True), ("aaabbb", True),
        ("a", False), ("ba", False), ("aab", False),
    ),
    "M_neq": (
        ("#a#", True), ("#b#", True), ("#aab#", True), ("#abb#", True),
        ("#a#a#", True), ("#ab#", False), ("#ba#", False), ("##", False),
        ("#", False), ("#a", False), ("ab", False), ("#a#b#", False),
    ),
    "mod_counter": (
        ("", True), ("aa", True), ("aaaa", True),
        ("a", False), ("aaa", False), ("aaaaa", False),
    ),
    "T_shuffle": (
        ("", True), ("ab", True), ("cd", True), ("acbd", True),
        ("cadb", True), ("cabd", True), ("ccdd", True),
        ("dc", False), ("c", False), ("abd", False), ("cdc", False),
    ),
    "pf_hash": (
        ("#", True), ("", False), ("##", False),
    ),
    "pf_ab": (
        ("ab", True), ("", False), ("a", False), ("abb", False),
        ("ba", False),
    ),
}

_DESCRIPTIONS = {
    "M_ab": "Words a^n b^n for n >= 0; one counter, one reversal.",
    "M_ab1": "Words a^n b^n for n >= 1; one counter, one reversal.",
    "M_neq": "Words #w# over {a,b,#} whose a-count and b-count differ; "
             "two counters, one reversal each.",
    "mod_counter": "Unary words of even length, decided by draining the "
                   "counter at the end of the tape while the control "
                   "alternates between two states.",
    "T_shuffle": "Transducer erasing c's and d's and echoing a's and b's, "
                 "defined only on words whose c/d projection is c^m d^m.",
    "pf_hash": "The prefix-free single-word language {#} as a DFA-style "
               "machine with zero counters.",
    "pf_ab": "The prefix-free single-word language {ab} as a DFA-style "
             "machine with zero counters.",
}

CATALOG = tuple(sorted(_TABLES))


@dataclass(frozen=True)
class CorpusEntry:
    """A named artifact with its description and membership table."""

    name: str
    description: str
    artifact: object
    membership: tuple  # pairs (word, expected boolean)


def corpus_text(name: str) -> str:
    """Raw file contents of a bundled entry."""
    if name not in _TABLES:
        raise UnknownEntry(f"no corpus entry named {name!r}")
    return (resources.files(__package__) / "data" / f"{name}.mach").read_text()


def load_corpus(name: str) -> CorpusEntry:
    """Load a bundled entry by name; raises UnknownEntry otherwise."""
    text = corpus_text(name)
    return CorpusEntry(
        name=name,
        description=_DESCRIPTIONS[name],
        artifact=parse_machine(text),
        membership=_TABLES[name],
    )
