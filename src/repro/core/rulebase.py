"""The Rule record shared by all rule modules."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Pattern, Sequence, Union

from repro.core.context import RuleContext
from repro.core.line import SegmentedLine

#: A line rule: rewrites matches in-place, returns the number of rewrites.
RuleApply = Callable[[SegmentedLine, RuleContext], int]

#: Maximal digit runs, collapsed to ``0`` by :func:`line_shape`.  The
#: class is the rule patterns' own ``\d``, which in a str regex also
#: matches non-ASCII decimal digits (fullwidth ``１``, Arabic-Indic
#: ``٣``) that :func:`int` parses: a quad written in them must collapse
#: to ``0.0.0.0`` like any other, or its shape trigger would miss it.
DIGIT_RUNS = re.compile(r"\d+")


def line_shape(lowered: str) -> str:
    """The *shape* of a lowered line: every maximal digit run collapsed
    to ``0``.  Lines that differ only in numbers share one shape.
    A digit is whatever ``\\d`` matches, as in the rule patterns."""
    return DIGIT_RUNS.sub("0", lowered)


class ShapePattern:
    """A trigger regex written against the line's :func:`line_shape`.

    The compiled dispatch decides it once per distinct shape and
    memoizes the verdict, so it costs nothing on lines whose shape was
    seen before.  The pattern must be a necessary condition of the
    rule's own pattern *after* digit collapse: where the rule's pattern
    matches ``\\d{1,3}``, the shape pattern matches ``0`` (a digit group
    always lies inside one maximal run, which collapses to one ``0``).
    """

    __slots__ = ("pattern", "search")

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.search = re.compile(pattern).search

    def __repr__(self) -> str:
        return "ShapePattern({!r})".format(self.pattern)


#: A rule trigger: a cheap precondition on the raw (lowercased) line text.
#: ``str`` — a literal substring that must be present; ``Sequence[str]`` —
#: any one of several literals; :class:`ShapePattern` — a regex searched
#: in the line's shape, decided once per distinct shape; ``Pattern`` — a
#: raw compiled regex searched in the real lowered line.  A raw regex
#: sees real digits but costs one search on *every* line, memo hit or
#: not, so builtin rules use it only where digit collapse would admit
#: too much (the dotted MAC trigger).
Trigger = Union[str, Sequence[str], ShapePattern, Pattern]

#: A compiled gate: lowered-line -> "could this rule possibly match?".
Gate = Callable[[str], bool]


@dataclass
class Rule:
    """One of the anonymizer's 28 context rules.

    ``apply`` is ``None`` for *structural* rules realized outside the
    per-line pipeline (token segmentation runs inside the final token pass;
    comment rules run in the multi-line comment stripper) — they still
    appear in the registry so the complete rule inventory of the paper
    (Section 4.2: 28 rules across 200+ IOS versions) is visible and
    documentable in one place.

    ``trigger`` is an optional prefilter: a condition that is *necessary*
    (never sufficient) for the rule's pattern to match anywhere in a line.
    The engine compiles triggers into a dispatch gate and skips a rule
    entirely on lines where its gate fails — a C-level substring scan in
    place of a full regex pass over every live segment.  Literals and
    :class:`ShapePattern` triggers are decided once per distinct line
    shape; a raw compiled regex still works but is searched on every
    line, so prefer a shape pattern unless the trigger needs real digits.
    Correctness contract: every replacement piece a rule emits as *live*
    text is a substring of the original line, so gating on the raw line
    can never skip a rule that a later rewrite would have made matchable.
    """

    rule_id: str
    name: str
    category: str
    description: str
    apply: Optional[RuleApply] = None
    trigger: Optional[Trigger] = None


def compile_gate(trigger: Optional[Trigger]) -> Optional[Gate]:
    """Compile a rule trigger into a fast line predicate (or ``None``).

    The predicate receives the *lowercased* line text (rule patterns are
    case-insensitive, so literal triggers are lowercased too); a
    :class:`ShapePattern` is searched in that text's :func:`line_shape`.
    """
    if trigger is None:
        return None
    if isinstance(trigger, ShapePattern):
        search = trigger.search
        return lambda lowered: search(line_shape(lowered)) is not None
    if isinstance(trigger, str):
        literal = trigger.lower()
        return lambda lowered: literal in lowered
    if isinstance(trigger, (tuple, list, frozenset, set)):
        literals = tuple(t.lower() for t in trigger)
        if len(literals) == 1:
            only = literals[0]
            return lambda lowered: only in lowered
        return lambda lowered: any(t in lowered for t in literals)
    search = trigger.search  # a compiled regex
    return lambda lowered: search(lowered) is not None
