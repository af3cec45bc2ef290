"""``SegmentedLine.apply_rule`` against a reference copy of its earlier form.

``apply_rule`` builds a new segment list only from the first rewrite on,
and a call that rewrites nothing leaves the line's segments untouched.
The reference below is the earlier eager form: it rebuilds the list on
every call and re-wraps every live segment.  Both must leave the same
``(text, frozen)`` sequence behind and report the same count, for any
segment list, pattern, and handler that declines some matches.
"""

import os
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.line import Segment, SegmentedLine


def _examples(default):
    """The hypothesis budget: *default*, or CI's raised REPRO_FUZZ_EXAMPLES."""
    return int(os.environ.get("REPRO_FUZZ_EXAMPLES", default))


def _reference_apply_rule(line, pattern, handler):
    """The eager form: a new list and a new live segment on every call."""
    new_segments = []
    rewritten = 0
    for segment in line.segments:
        if segment.frozen or not segment.text:
            new_segments.append(segment)
            continue
        cursor = 0
        for match in pattern.finditer(segment.text):
            pieces = handler(match)
            if pieces is None:
                continue
            if match.start() > cursor:
                new_segments.append(Segment(segment.text[cursor : match.start()], False))
            for text, frozen in pieces:
                if text:
                    new_segments.append(Segment(text, frozen))
            cursor = match.end()
            rewritten += 1
        if cursor < len(segment.text):
            new_segments.append(Segment(segment.text[cursor:], False))
    line.segments = new_segments
    return rewritten


def _line(segments):
    line = SegmentedLine("")
    line.segments = [Segment(text, frozen) for text, frozen in segments]
    return line


def _pairs(line):
    return [(segment.text, segment.frozen) for segment in line.segments]


def _handler(decline, pieces_for):
    """Declines a match whose text hashes into *decline*; otherwise
    replaces it with pieces derived from the match text."""

    def handler(match):
        text = match.group(0)
        if sum(map(ord, text)) % 5 in decline:
            return None
        return pieces_for(text)

    return handler


_PIECE_SHAPES = [
    lambda text: [("X", True)],
    lambda text: [(text.upper(), True), ("", False)],
    lambda text: [("<", False), (text, True), (">", False)],
    lambda text: [],
    lambda text: [("", True)],
]

_SEGMENTS = st.lists(
    st.tuples(st.text(alphabet="ab1 .", max_size=6), st.booleans()),
    max_size=5,
)
_PATTERNS = st.sampled_from(
    [r"a", r"b+", r"\d", r"a|1", r"\s", r"a?", r"x", r"^a", r"b$", r"\.1"]
)


class TestApplyRuleOracle:
    @settings(max_examples=_examples(500), deadline=None)
    @given(
        segments=_SEGMENTS,
        pattern=_PATTERNS,
        decline=st.frozensets(st.integers(min_value=0, max_value=4)),
        shape=st.sampled_from(range(len(_PIECE_SHAPES))),
    )
    def test_matches_reference(self, segments, pattern, decline, shape):
        compiled = re.compile(pattern)
        handler = _handler(decline, _PIECE_SHAPES[shape])
        line = _line(segments)
        reference = _line(segments)
        count = line.apply_rule(compiled, handler)
        assert count == _reference_apply_rule(reference, compiled, handler)
        assert _pairs(line) == _pairs(reference)
        # A second rule over the result still agrees (frozen pieces from
        # the first call are skipped by both).
        second = re.compile(r"[ab]")
        again = _handler(frozenset(), _PIECE_SHAPES[0])
        assert line.apply_rule(second, again) == _reference_apply_rule(
            reference, second, again
        )
        assert _pairs(line) == _pairs(reference)

    @settings(max_examples=_examples(300), deadline=None)
    @given(segments=_SEGMENTS, pattern=_PATTERNS)
    def test_no_rewrite_leaves_segments_untouched(self, segments, pattern):
        line = _line(segments)
        before = line.segments
        objects = list(before)
        assert line.apply_rule(re.compile(pattern), lambda match: None) == 0
        assert line.segments is before
        assert all(a is b for a, b in zip(line.segments, objects))
        assert len(line.segments) == len(objects)


class TestApplyRuleNoOp:
    def test_no_match_keeps_the_same_list(self):
        line = SegmentedLine("ip route 10.0.0.0 255.0.0.0 1.2.3.4")
        segments = line.segments
        first = segments[0]
        assert line.apply_rule(re.compile(r"\d+/\d+"), lambda m: [("X", True)]) == 0
        assert line.segments is segments
        assert line.segments[0] is first

    def test_declined_matches_keep_the_same_list(self):
        line = SegmentedLine("a 1 b 2")
        segments = line.segments
        assert line.apply_rule(re.compile(r"\d"), lambda m: None) == 0
        assert line.segments is segments

    def test_rewrite_builds_a_new_list_sharing_earlier_segments(self):
        line = _line([("keep", True), ("x 1 y", False), ("tail", False)])
        before = list(line.segments)
        assert line.apply_rule(re.compile(r"\d"), lambda m: [("N", True)]) == 1
        assert _pairs(line) == [
            ("keep", True), ("x ", False), ("N", True), (" y", False),
            ("tail", False),
        ]
        assert line.segments[0] is before[0]
        assert line.segments[-1] is before[-1]
