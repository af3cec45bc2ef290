"""Anonymizing regular expressions that accept ASNs and communities.

Paper Section 4.4: an ASN may not appear verbatim in the config text yet
still be *accepted* by a policy regexp (``70[1-3]`` accepts 701, 702, 703).
"Since there are only 2^16 ASNs in BGPv4, we can find the language accepted
by the regexp by simply applying the regexp to a list of all 2^16 ASNs and
seeing which it accepts" — then the accepted public ASNs are permuted and
the regexp rewritten as the alternation of the mapped values.

Rewrite strategy, per top-level alternation branch:

1. **Literal branches** (the common case; alternation "can be easily
   handled by anonymizing each ASN individually"): every maximal digit run
   is an ASN literal — map each in place, preserving the branch structure
   (boundaries, anchors, adjacency such as ``_701_1239_``).
2. **Complex branches** (digit ranges, wildcards): brute-force the branch's
   ASN language over the 16-bit universe and rewrite the branch as an
   alternation of ``_N_`` terms for the mapped public members plus the
   unchanged private members — or, with ``style="mindfa"``, as the regexp
   reconstructed from the minimum DFA of the mapped language (the
   polynomial-time compression the paper mentions but did not need).
3. **Digit-free branches** (``.*``, ``^$``) carry no ASN information and
   pass through unchanged.
4. Branches whose language is implausibly large (default > 2048 public
   ASNs) while still mentioning digits are *replaced by an inert
   never-matching pattern* and flagged — the paper's stance is to favor
   anonymity over information wherever a trade-off is forced, with flagged
   lines feeding the iterative rule-refinement loop of Section 6.1.

Community regexps (``701:7[1-5]..``) are handled "using the same method":
each branch is split at its ``:`` literal; the ASN side goes through the
ASN machinery and the value side through the community-value permutation.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.automata import ast as rast
from repro.automata.ast import (
    Alt,
    Anchor,
    Boundary,
    CharClass,
    Concat,
    Dot,
    Empty,
    Literal,
    RegexNode,
)
from repro.automata.dfa import dfa_from_strings
from repro.automata.fa2re import dfa_to_regex
from repro.automata.matcher import to_python_regex
from repro.automata.minimize import minimize_dfa
from repro.automata.reparse import RegexParseError, parse_regex
from repro.core.asn import is_public_asn


@functools.lru_cache(maxsize=None)
def _universe() -> Tuple[str, ...]:
    """The full 16-bit ASN universe as strings, built on the first
    brute-force enumeration (digit-literal patterns never need it)."""
    return tuple(str(n) for n in range(65536))


#: Language-computation memos.  A branch's language is a pure function of
#: its pattern text (and matching mode) — never of any salt — so one
#: brute-force enumeration serves every anonymizer in the process.  Keys
#: are ``(pattern_text, anchored)`` / ``(pattern_text, side, anchored)``.
_NODE_LANG_MEMO: dict = {}
_SIDE_LANG_MEMO: dict = {}

#: A pattern that can never match any subject (used when anonymity forces
#: us to discard a regexp we cannot safely rewrite).
NEVER_MATCH_PATTERN = "^never-match$"


@dataclass
class RewriteOutcome:
    """Result of rewriting one policy regexp."""

    original: str
    rewritten: str
    changed: bool
    warnings: List[str] = field(default_factory=list)
    asns_seen: Set[int] = field(default_factory=set)

    @property
    def flagged(self) -> bool:
        """Whether the line needs human review (Section 6.1 iteration)."""
        return bool(self.warnings)


def asn_language(pattern: str, anchored: bool = False) -> Set[int]:
    """All ASNs whose single-element path the regexp matches.

    Brute force over the 2^16 universe, exactly as the paper describes.
    ``anchored=True`` selects JunOS semantics: the pattern must match the
    whole subject (JunOS as-path regexps are implicitly anchored), versus
    IOS's anywhere-in-the-string search semantics.
    """
    return _node_language(parse_regex(pattern), anchored)


def _node_language(node: RegexNode, anchored: bool = False) -> Set[int]:
    body = to_python_regex(node)
    key = (body, anchored)
    cached = _NODE_LANG_MEMO.get(key)
    if cached is not None:
        return cached
    universe = _universe()
    if anchored:
        compiled = re.compile("^(?:" + body + ")$")
        language = {n for n in range(65536) if compiled.match(universe[n])}
    else:
        compiled = re.compile(body)
        language = {n for n in range(65536) if compiled.search(universe[n])}
    _NODE_LANG_MEMO[key] = language
    return language


def _digit_literal_text(node: RegexNode) -> Optional[str]:
    """The digit string of a branch built only from digit literals
    (``701`` as Concat(Literal('7'), ...)), or ``None``."""
    parts = _flatten_concat(node)
    if not parts or not all(
        isinstance(p, Literal) and p.char.isdigit() for p in parts
    ):
        return None
    return "".join(p.char for p in parts)


def _suffix_language(digits: str) -> Set[int]:
    """``{n in [0, 65535] : str(n).endswith(digits)}`` without regexes.

    Every such n is ``d * 10^len(digits) + int(digits)`` for some leading
    part d >= 1, plus ``int(digits)`` itself when the digit string has no
    leading zero (canonical decimals never do).
    """
    width = len(digits)
    value = int(digits)
    out: Set[int] = set()
    if value <= 65535 and str(value) == digits:
        out.add(value)
    step = 10 ** width
    lead = 1
    while lead * step + value <= 65535:
        out.add(lead * step + value)
        lead += 1
    return out


def _prefix_language(digits: str) -> Set[int]:
    """``{n in [0, 65535] : str(n).startswith(digits)}`` without regexes."""
    if digits.startswith("0"):
        # Canonical decimals start with 0 only for 0 itself.
        return {0} if "0".startswith(digits) else set()
    out: Set[int] = set()
    for extra in range(6 - len(digits)):
        low = int(digits + "0" * extra)
        high = low + 10 ** extra
        out.update(range(low, min(high, 65536)))
    return out


def _mentions_digit(node: RegexNode) -> bool:
    """Whether any atom of *node* can consume a digit with intent.

    Literals and character classes that include digits count; ``.`` alone
    does not (a digit-free ``.*`` carries no ASN information).
    """
    if isinstance(node, Literal):
        return node.char.isdigit()
    if isinstance(node, CharClass):
        if node.negated:
            # A negated class that still admits digits is treated as
            # digit-free unless it was clearly built around digits.
            return False
        return any(c.isdigit() for c in node.chars)
    if isinstance(node, (Concat, Alt)):
        return any(_mentions_digit(p) for p in node.parts)
    if hasattr(node, "child"):
        return _mentions_digit(node.child)
    return False


def _is_literal_branch(node: RegexNode) -> bool:
    """Whether the branch is built only from literals/boundaries/anchors."""
    if isinstance(node, (Literal, Boundary, Anchor, Empty)):
        return True
    if isinstance(node, Concat):
        return all(_is_literal_branch(p) for p in node.parts)
    return False


def _flatten_concat(node: RegexNode) -> List[RegexNode]:
    if isinstance(node, Concat):
        return list(node.parts)
    if isinstance(node, Empty):
        return []
    return [node]


def _map_digit_runs(
    branch: RegexNode, mapper: Callable[[int], int]
) -> Tuple[RegexNode, Set[int], List[str]]:
    """Map every maximal digit run of a literal branch through *mapper*."""
    parts = _flatten_concat(branch)
    out: List[RegexNode] = []
    seen: Set[int] = set()
    warnings: List[str] = []
    run: List[str] = []

    def flush_run() -> None:
        if not run:
            return
        text = "".join(run)
        value = int(text)
        if value > 0xFFFF:
            warnings.append(
                "digit run {!r} exceeds the 16-bit ASN space; left unchanged".format(text)
            )
            out.extend(Literal(c) for c in text)
        else:
            seen.add(value)
            out.extend(Literal(c) for c in str(mapper(value)))
        run.clear()

    for part in parts:
        if isinstance(part, Literal) and part.char.isdigit():
            run.append(part.char)
        else:
            flush_run()
            out.append(part)
    flush_run()
    return rast.concat(*out), seen, warnings


def _language_to_branches(
    language: Sequence[int], style: str, anchored: bool = False
) -> List[RegexNode]:
    """Render a finite ASN language as replacement branch ASTs.

    IOS (search semantics) wraps each member in ``_`` boundaries so the
    rewrite accepts exactly the language; JunOS (anchored semantics) uses
    bare literals, which the implicit anchoring already makes exact.
    """
    strings = [str(n) for n in sorted(language)]
    if style == "mindfa":
        body = dfa_to_regex(minimize_dfa(dfa_from_strings(strings)))
        if body is None:
            return []
        if anchored:
            return [body]
        return [rast.concat(Boundary(), body, Boundary())]
    if anchored:
        return [rast.concat(*(Literal(c) for c in text)) for text in strings]
    return [
        rast.concat(Boundary(), *(Literal(c) for c in text), Boundary())
        for text in strings
    ]


def rewrite_aspath_regex(
    pattern: str,
    asn_mapper: Callable[[int], int],
    style: str = "alternation",
    max_language: int = 2048,
    anchored: bool = False,
) -> RewriteOutcome:
    """Rewrite an AS-path regexp so it accepts the permuted language.

    *asn_mapper* maps one ASN (publics permuted, privates identity).
    *style* is ``"alternation"`` (paper default) or ``"mindfa"``.
    *anchored* selects JunOS whole-subject semantics for the language
    computation and rewrite (IOS search semantics otherwise).
    """
    try:
        tree = parse_regex(pattern)
    except RegexParseError as exc:
        return RewriteOutcome(
            original=pattern,
            rewritten=NEVER_MATCH_PATTERN,
            changed=True,
            warnings=["unparseable regexp replaced: {}".format(exc)],
        )
    branches = list(tree.parts) if isinstance(tree, Alt) else [tree]
    new_branches: List[RegexNode] = []
    warnings: List[str] = []
    seen: Set[int] = set()
    changed = False

    for branch in branches:
        if not _mentions_digit(branch):
            new_branches.append(branch)
            continue
        if _is_literal_branch(branch):
            mapped, branch_seen, branch_warnings = _map_digit_runs(branch, asn_mapper)
            new_branches.append(mapped)
            seen.update(branch_seen)
            warnings.extend(branch_warnings)
            changed = changed or mapped != branch
            continue
        language = _node_language(branch, anchored)
        public = sorted(n for n in language if is_public_asn(n))
        private = sorted(n for n in language if not is_public_asn(n))
        if not public:
            # Only private ASNs (or nothing) accepted: no identity leak.
            new_branches.append(branch)
            continue
        if len(public) > max_language:
            warnings.append(
                "branch {!r} accepts {} public ASNs (> {}); replaced by an "
                "inert pattern for safety".format(
                    branch.to_pattern(), len(public), max_language
                )
            )
            changed = True
            continue
        seen.update(public)
        mapped_language = [asn_mapper(n) for n in public] + private
        new_branches.extend(_language_to_branches(mapped_language, style, anchored))
        changed = True

    if not new_branches:
        return RewriteOutcome(pattern, NEVER_MATCH_PATTERN, True, warnings, seen)
    rewritten = rast.alternate(*new_branches)
    if isinstance(rewritten, Alt):
        text = "(" + rewritten.to_pattern() + ")"
    else:
        text = rewritten.to_pattern()
    return RewriteOutcome(pattern, text, changed or text != pattern, warnings, seen)


def _split_at_colon(branch: RegexNode) -> Optional[Tuple[RegexNode, RegexNode]]:
    """Split a community branch at its top-level ``:`` literal."""
    parts = _flatten_concat(branch)
    for index, part in enumerate(parts):
        if isinstance(part, Literal) and part.char == ":":
            left = rast.concat(*parts[:index])
            right = rast.concat(*parts[index + 1 :])
            return left, right
    return None


def _side_language(node: RegexNode, side: str, anchored: bool = False) -> Set[int]:
    """Values accepted on one side of a community regexp's ``:``.

    The side pattern is tested at the exact position adjacent to the colon:
    for the left side we match ``<pattern>:`` against ``"<value>:"``, for
    the right side ``:<pattern>`` against ``":<value>"``.  With
    ``anchored`` (JunOS) the side must additionally reach the subject edge.
    """
    # Pure digit-literal sides (by far the common case: `_701:1234_`)
    # have closed-form languages — no 2^16 regex probes needed.  The
    # subject for the left side is "<value>:", so an unanchored literal
    # matches exactly the values whose decimal *ends with* it; for the
    # right side ":<value>" it is the values *starting with* it (digits
    # cannot match the colon).  Anchored (JunOS) sides must consume the
    # whole value, so only the exact decimal qualifies.
    digits = _digit_literal_text(node)
    if digits is not None:
        if anchored:
            value = int(digits)
            return {value} if value <= 65535 and str(value) == digits else set()
        return _suffix_language(digits) if side == "left" else _prefix_language(digits)

    pattern_text = to_python_regex(node)
    key = (pattern_text, side, anchored)
    cached = _SIDE_LANG_MEMO.get(key)
    if cached is not None:
        return cached
    universe = _universe()
    if side == "left":
        body = pattern_text + ":"
        if anchored:
            compiled = re.compile("^(?:" + body + ")")
            language = {n for n in range(65536) if compiled.match(universe[n] + ":")}
        else:
            compiled = re.compile(body)
            language = {n for n in range(65536) if compiled.search(universe[n] + ":")}
    else:
        body = ":" + pattern_text
        if anchored:
            compiled = re.compile("(?:" + body + ")$")
            language = {n for n in range(65536) if compiled.search(":" + universe[n])}
        else:
            compiled = re.compile(body)
            language = {n for n in range(65536) if compiled.search(":" + universe[n])}
    _SIDE_LANG_MEMO[key] = language
    return language


def _values_to_node(values: Sequence[int], style: str) -> Optional[RegexNode]:
    strings = [str(v) for v in sorted(values)]
    if not strings:
        return None
    if style == "mindfa":
        return dfa_to_regex(minimize_dfa(dfa_from_strings(strings)))
    if len(strings) == 1:
        return rast.concat(*(Literal(c) for c in strings[0]))
    return rast.alternate(
        *(rast.concat(*(Literal(c) for c in text)) for text in strings)
    )


def rewrite_community_regex(
    pattern: str,
    asn_mapper: Callable[[int], int],
    value_mapper: Callable[[int], int],
    style: str = "alternation",
    max_language: int = 2048,
    anchored: bool = False,
) -> RewriteOutcome:
    """Rewrite a community-list regexp (``ASN:value`` pairs)."""
    try:
        tree = parse_regex(pattern)
    except RegexParseError as exc:
        return RewriteOutcome(
            original=pattern,
            rewritten=NEVER_MATCH_PATTERN,
            changed=True,
            warnings=["unparseable regexp replaced: {}".format(exc)],
        )
    branches = list(tree.parts) if isinstance(tree, Alt) else [tree]
    new_branches: List[RegexNode] = []
    warnings: List[str] = []
    seen: Set[int] = set()
    changed = False

    for branch in branches:
        if not _mentions_digit(branch):
            new_branches.append(branch)
            continue
        split = _split_at_colon(branch)
        if split is None:
            # No colon: the branch constrains ASNs only (e.g. `_701_`);
            # treat it with the AS-path machinery semantics.
            sub = rewrite_aspath_regex(
                branch.to_pattern(), asn_mapper, style, max_language, anchored
            )
            warnings.extend(sub.warnings)
            seen.update(sub.asns_seen)
            changed = changed or sub.changed
            new_branches.append(parse_regex(sub.rewritten))
            continue
        left, right = split

        # Keep any boundary/anchor decorations around the pair.
        left_parts = _flatten_concat(left)
        lead: List[RegexNode] = []
        while left_parts and isinstance(left_parts[0], (Boundary, Anchor)):
            lead.append(left_parts.pop(0))
        right_parts = _flatten_concat(right)
        tail: List[RegexNode] = []
        while right_parts and isinstance(right_parts[-1], (Boundary, Anchor)):
            tail.insert(0, right_parts.pop())
        left_core = rast.concat(*left_parts)
        right_core = rast.concat(*right_parts)

        left_lang = sorted(_side_language(left_core, "left", anchored))
        right_lang = sorted(_side_language(right_core, "right", anchored))
        if not left_lang or not right_lang:
            warnings.append(
                "community branch {!r} has an empty side language; replaced "
                "by an inert pattern".format(branch.to_pattern())
            )
            changed = True
            continue
        if len(left_lang) > max_language or len(right_lang) > max_language:
            warnings.append(
                "community branch {!r} accepts too many values "
                "({} ASNs x {} values); replaced by an inert pattern".format(
                    branch.to_pattern(), len(left_lang), len(right_lang)
                )
            )
            changed = True
            continue
        seen.update(n for n in left_lang if is_public_asn(n))
        mapped_left = [asn_mapper(n) for n in left_lang]
        mapped_right = [value_mapper(v) for v in right_lang]
        left_node = _values_to_node(mapped_left, style)
        right_node = _values_to_node(mapped_right, style)
        new_branches.append(
            rast.concat(*lead, left_node, Literal(":"), right_node, *tail)
        )
        changed = True

    if not new_branches:
        return RewriteOutcome(pattern, NEVER_MATCH_PATTERN, True, warnings, seen)
    rewritten = rast.alternate(*new_branches)
    if isinstance(rewritten, Alt):
        text = "(" + rewritten.to_pattern() + ")"
    else:
        text = rewritten.to_pattern()
    return RewriteOutcome(pattern, text, changed or text != pattern, warnings, seen)
