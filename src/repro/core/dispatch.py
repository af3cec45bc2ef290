"""Compiled single-pass rule dispatch.

The engine used to ask *every* rule's prefilter gate about *every* line:
28 Python calls per line, each doing its own C-level substring scan.  At
corpus scale (the paper anonymized 4.3M lines) that per-line Python
dispatch dominates the rewrite phase.

:class:`CompiledDispatch` compiles the whole rule set's triggers — the
literal substrings, literal alternatives, and cheap regexes declared on
each :class:`~repro.core.rulebase.Rule` — into one combined scanner at
:class:`~repro.core.engine.Anonymizer` construction.  Classifying a line
is then:

1. a memo lookup keyed on the lowered line (config vocabulary is highly
   repetitive, so most lines are classified by one dict hit);
2. on a miss, **one** C-level ``finditer`` pass of a combined alternation
   regex over the line, folding each matched alternative's rule bitset
   into the candidate mask, plus one ``search`` per *distinct* regex
   trigger (the dotted-quad hint is shared by several rules and scanned
   once, not once per rule).

Correctness contract (enforced by ``tests/test_dispatch.py``): the
candidate set is a **superset** of the rules whose individual
:func:`~repro.core.rulebase.compile_gate` predicates pass.  Candidates
that the per-rule gate would have rejected cost one no-match regex pass
and can never change output — a rule only rewrites where its own pattern
matches.  The superset direction is what matters: a rule that *would*
fire must always be dispatched.

The subtlety is overlapping literal occurrences.  ``finditer`` yields
non-overlapping matches, so in ``set community 701:1`` the alternative
``set community `` consumes the span and the occurrence of ``community ``
starting inside it is never yielded.  The compiler therefore precomputes
an *overlap closure*: for every literal ``A``, the set of literals whose
occurrence can begin inside an occurrence of ``A`` (some prefix of ``B``
matches ``A`` at a nonzero offset, or ``B`` and ``A`` share a start with
one a prefix of the other).  Whenever ``A`` matches, the closure's rule
bits are folded in too.  That over-approximates — which the superset
contract explicitly allows — and keeps the scan single-pass.  The
closure is computed exactly at construction with O(literals²) C-level
string scans (``in``, ``find``, ``startswith``; see
:func:`_literal_overlap`): a few milliseconds for the two dispatch
objects of an :class:`~repro.core.engine.Anonymizer`, paid once per
anonymizer and never per line.

The literal scan and its memo operate on the line's *shape*: the lowered
line with every maximal digit run collapsed to ``0``
(:func:`~repro.core.rulebase.line_shape`; a digit is what the rule
patterns' ``\\d`` matches, non-ASCII decimal digits included).  Config
corpora are full of lines that differ only in numbers (addresses, ASNs,
ACL ids), and all of them share one shape — so the memo hit rate stays
high on exactly the corpora where per-line classification matters.
The collapse is occurrence-preserving: if literal ``L`` occurs in line
``S``, then ``shape(L)`` occurs in ``shape(S)`` (``L``'s edge digit
runs are a suffix/prefix of ``S``'s maximal runs, so both collapse to
the same ``0``), keeping the superset contract intact.

Regex triggers come in two kinds.  A
:class:`~repro.core.rulebase.ShapePattern` is written against the shape
itself (``0\\.0\\.0\\.0/0`` for an ``a.b.c.d/len`` prefix), so it is
searched only on a memo miss and its bits are folded into the memoized
mask: on a repeated shape it costs nothing.  Its soundness is the rule
author's obligation, argued in the shape's terms — every ``\\d{1,3}``
group of a match lies inside one maximal digit run, which collapses to
one ``0``.  The collapse is not sound for an arbitrary pattern
(``\\d{3,}`` never matches a shape, ``[0-9a-f]{4}`` can lose
characters), so a raw compiled regex is searched against the real
lowered line on *every* line and only its rule bits are combined with
the memoized mask.  Raw regexes still work, for out-of-tree rules that
need real digits, but each one costs a search per line.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

from repro.core.rulebase import DIGIT_RUNS, Rule, ShapePattern, line_shape

__all__ = ["CompiledDispatch"]

#: Default bound on the shape -> literal-mask memo.  Keys are digit-
#: collapsed config lines (tens of bytes each) and values small ints, so
#: the worst case is a few MB per anonymizer.
DEFAULT_MEMO_SIZE = 1 << 17


def _literal_overlap(a: str, b: str) -> bool:
    """True when an occurrence of *b* can start inside (or at the start
    of, hidden behind) a ``finditer``-yielded occurrence of *a*.

    Offset 0 covers the shared-start case: if one literal is a prefix of
    the other, the regex engine reports only one alternative for that
    position.  Offsets 1..len(a)-1 cover occurrences of *b* beginning
    strictly inside *a*'s span — *b* is either contained in *a* or hangs
    off its end, in which case a prefix of *b* must equal a suffix of
    *a*.

    Exact, but scanned in C: ``b in a`` answers every offset where *b*
    fits inside *a*; the remaining offsets, where *b* would hang off
    *a*'s end, are tried only where *b*'s first character occurs.
    """
    if a == b:
        return False
    if b in a:  # also every empty *b*
        return True
    first = b[0]
    offset = a.find(first, max(0, len(a) - len(b) + 1))
    while offset != -1:
        if b.startswith(a[offset:]):
            return True
        offset = a.find(first, offset + 1)
    return False


class CompiledDispatch:
    """One-pass candidate-rule classification for a fixed rule list.

    Parameters
    ----------
    rules:
        The rules in mandatory application order; candidate tuples
        preserve this order exactly.
    enabled:
        When False (``rule_prefilter=False``), every line classifies to
        the full rule tuple — the measuring stick the prefilter is
        benchmarked against.
    memo_size:
        Bound on the per-line memo (entries, not bytes).  Once full, new
        lines are still classified in one pass, just not remembered.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        enabled: bool = True,
        memo_size: int = DEFAULT_MEMO_SIZE,
    ):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.enabled = enabled
        self._memo_size = memo_size
        #: line shape -> candidate mask of the literal and shape-pattern
        #: triggers (raw-regex bits are recomputed per line; shape
        #: collapse is unsound for them).
        self._memo: Dict[str, int] = {}
        #: candidate bitmask -> rule tuple in application order (shared
        #: across memo entries; distinct masks are few).
        self._mask_sets: Dict[int, Tuple[Rule, ...]] = {}
        self._all = self.rules
        self._always_mask = 0
        self._literal_re = None
        self._group_masks: List[int] = [0]  # group indices are 1-based
        self._shape_triggers: List[Tuple] = []
        self._regex_triggers: List[Tuple] = []
        if enabled:
            self._compile()

    # -- compilation -----------------------------------------------------

    def _compile(self) -> None:
        literals: List[Tuple[str, int]] = []  # (literal shape, rule bit)
        # pattern text -> [search, mask]: each distinct pattern is
        # searched once per line (raw) or once per shape (shape).
        shape_masks: Dict[str, List] = {}
        regex_masks: Dict[str, List] = {}
        for index, rule in enumerate(self.rules):
            bit = 1 << index
            trigger = rule.trigger
            if trigger is None:
                self._always_mask |= bit
            elif isinstance(trigger, str):
                literals.append((line_shape(trigger.lower()), bit))
            elif isinstance(trigger, (tuple, list, frozenset, set)):
                for literal in trigger:
                    literals.append((line_shape(literal.lower()), bit))
            else:
                masks = (
                    shape_masks if isinstance(trigger, ShapePattern) else regex_masks
                )
                entry = masks.setdefault(trigger.pattern, [trigger.search, 0])
                entry[1] |= bit
        self._shape_triggers = [tuple(entry) for entry in shape_masks.values()]
        self._regex_triggers = [tuple(entry) for entry in regex_masks.values()]

        if not literals:
            return
        # Merge duplicate literals (several rules may share one trigger,
        # and distinct triggers may share one shape).
        by_text: Dict[str, int] = {}
        for text, bit in literals:
            by_text[text] = by_text.get(text, 0) | bit
        # Longest-first so the engine prefers the most specific
        # alternative at a shared start (reduces closure over-approximation).
        ordered = sorted(by_text, key=len, reverse=True)
        closed_masks = [0]
        for text in ordered:
            mask = by_text[text]
            for other in ordered:
                if _literal_overlap(text, other):
                    mask |= by_text[other]
            closed_masks.append(mask)
        self._group_masks = closed_masks
        self._literal_re = re.compile(
            "|".join("(" + re.escape(text) + ")" for text in ordered)
        )

    # -- classification --------------------------------------------------

    def classify(self, lowered: str) -> Tuple[Rule, ...]:
        """Candidate rules for a lowered line, in application order.

        Guaranteed a superset of the rules whose individual gates pass on
        this line; usually exactly that set.
        """
        if not self.enabled:
            return self._all
        shape = DIGIT_RUNS.sub("0", lowered)  # line_shape, inlined
        memo = self._memo
        mask = memo.get(shape)
        if mask is None:
            mask = self._always_mask
            literal_re = self._literal_re
            if literal_re is not None:
                group_masks = self._group_masks
                for match in literal_re.finditer(shape):
                    mask |= group_masks[match.lastindex]
            for search, smask in self._shape_triggers:
                if (mask & smask) != smask and search(shape) is not None:
                    mask |= smask
            if len(memo) < self._memo_size:
                memo[shape] = mask
        for search, rmask in self._regex_triggers:
            if (mask & rmask) != rmask and search(lowered) is not None:
                mask |= rmask
        candidates = self._mask_sets.get(mask)
        if candidates is None:
            candidates = tuple(
                rule
                for index, rule in enumerate(self.rules)
                if (mask >> index) & 1
            )
            self._mask_sets[mask] = candidates
        return candidates

    # -- introspection (tests / benchmarks) ------------------------------

    @property
    def memo_entries(self) -> int:
        return len(self._memo)

    def describe(self) -> str:
        literal_count = (
            self._literal_re.groups if self._literal_re is not None else 0
        )
        return (
            "CompiledDispatch(rules={}, literals={}, shape_triggers={}, "
            "regex_triggers={}, enabled={})".format(
                len(self.rules),
                literal_count,
                len(self._shape_triggers),
                len(self._regex_triggers),
                self.enabled,
            )
        )
