"""Token segmentation and the basic hash-everything-unknown pass.

This implements the paper's "basic method" (Section 4.1) plus the two
segmentation rules of Section 4.2:

* **R1** — words are segmented into maximal alphabetic runs and
  non-alphabetic remainders, so ``Ethernet0/0`` is looked up as
  ``ethernet`` (pass-list hit) plus ``0/0`` (kept), instead of being
  hashed whole and destroying the interface-type information.
* **R2** — each alphabetic run is checked against the pass-list
  (case-insensitively); runs not found are hashed with salted SHA1.
  Non-alphabetic runs (numbers, punctuation, IP addresses already mapped
  by earlier rules) are never touched here.

Per-run hashing preserves referential integrity *and* structure: the
route-map name ``UUNET-import`` becomes ``<digest>-import`` everywhere it
appears, keeping the privileged part hidden while the innocuous part stays
readable.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Tuple

from repro.core.passlist import PassList
from repro.core.strings import StringHasher

_ALPHA_RUN = re.compile(r"[A-Za-z]+|[^A-Za-z]+")

#: Whitespace splitter shared with the engine's token pass (must mirror
#: :meth:`repro.core.line.SegmentedLine.map_live_tokens` exactly).
_WS_SPLIT = re.compile(r"(\s+)")

#: Bound on the text-span memo (entries).  Keys are whole line/segment
#: texts, so unlike the word cache this one is explicitly capped.
_TEXT_CACHE_MAX = 1 << 16


def segment_word(word: str) -> List[Tuple[str, bool]]:
    """Split *word* into runs; each item is ``(run, is_alphabetic)``."""
    return [(run, run[0].isalpha()) for run in _ALPHA_RUN.findall(word)]


class TokenAnonymizer:
    """The final per-word pass: pass-list lookup + salted hashing.

    Whole words memoize: config vocabulary is tiny relative to corpus size
    (the same ``Ethernet0/0``, ``ip``, ``255`` tokens repeat millions of
    times), so each distinct word is segmented and looked up once and the
    cache replays the result — including its contribution to the
    ``tokens_seen`` / ``tokens_hashed`` counters, which therefore stay
    exact occurrence counts.
    """

    def __init__(self, passlist: PassList, hasher: StringHasher):
        self.passlist = passlist
        self.hasher = hasher
        self.tokens_seen = 0
        self.tokens_hashed = 0
        #: word -> (anonymized word, tokens_seen delta, tokens_hashed delta)
        self._word_cache = {}
        #: text span -> (anonymized span, seen delta, hashed delta); spans
        #: are whole lines / live segments, which repeat heavily in config
        #: corpora ("!", " exit", " no ip directed-broadcast", the
        #: inter-match residue of rewritten lines).  Bounded; derived
        #: purely from the word cache, so it needs no separate snapshot.
        self._text_cache = {}

    def _compute_word(self, word: str):
        out = []
        seen = hashed = 0
        for run, is_alpha in segment_word(word):
            if not is_alpha:
                out.append(run)
                continue
            seen += 1
            if run in self.passlist:
                out.append(run)
            else:
                hashed += 1
                out.append(self.hasher.hash_token(run))
        entry = ("".join(out), seen, hashed)
        self._word_cache[word] = entry
        return entry

    def anonymize_word(self, word: str) -> str:
        """Anonymize one whitespace-delimited word."""
        entry = self._word_cache.get(word)
        if entry is None:
            entry = self._compute_word(word)
        result, seen, hashed = entry
        self.tokens_seen += seen
        self.tokens_hashed += hashed
        return result

    def anonymize_text(self, text: str) -> str:
        """Anonymize every word of a text span, whitespace preserved.

        Byte-identical to mapping :meth:`anonymize_word` over a
        ``(\\s+)``-captured split (the counters replay exactly, as with the
        word cache), collapsed to one dict hit for repeated spans.
        """
        entry = self._text_cache.get(text)
        if entry is None:
            out = []
            seen = hashed = 0
            word_cache = self._word_cache
            for part in _WS_SPLIT.split(text):
                if not part or part[0].isspace():
                    out.append(part)
                    continue
                wentry = word_cache.get(part)
                if wentry is None:
                    wentry = self._compute_word(part)
                out.append(wentry[0])
                seen += wentry[1]
                hashed += wentry[2]
            entry = ("".join(out), seen, hashed)
            if len(self._text_cache) < _TEXT_CACHE_MAX:
                self._text_cache[text] = entry
        self.tokens_seen += entry[1]
        self.tokens_hashed += entry[2]
        return entry[0]

    def warm(self, word: str) -> bool:
        """Memoize *word* if it anonymizes without a salted hash.

        Used by the mapping-freeze phase, so the rewrite phase (and every
        parallel worker that inherits the warmed cache) only does dict
        lookups.  Returns whether *word* qualified: every alphabetic run
        is on the pass-list, so the word maps to itself.  A word that
        needs a hash is left alone, because hashing it here would record
        it in ``hasher.hashed_inputs`` even if comment stripping removes
        it before the token pass, and the leak scanner treats that record
        as ground truth.  The word is segmented once, counters untouched.
        """
        entry = self._word_cache.get(word)
        if entry is not None:
            return entry[2] == 0  # no hashed run: every run is pass-listed
        seen = 0
        passlist = self.passlist
        for run, is_alpha in segment_word(word):
            if is_alpha:
                if run not in passlist:
                    return False
                seen += 1
        self._word_cache[word] = (word, seen, 0)
        return True

    def iter_unknown_runs(self, text: str) -> Iterator[str]:
        """Yield the alphabetic runs in *text* that are not on the pass-list."""
        for word in text.split():
            for run, is_alpha in segment_word(word):
                if is_alpha and run not in self.passlist:
                    yield run
