"""The recognizer plugin interface.

A plugin contributes one *rule family*: a set of
:class:`~repro.core.rulebase.Rule` records (with triggers, so the
compiled dispatch layer gates them exactly like the builtin 28), plus
optional hooks into the two pipeline stages that per-line rules cannot
reach — the multi-line pre-pass (opaque blobs spanning lines) and the
corpus-wide freeze scan (fixing an address family's subnet-shaping set
from the corpus and mapping its addresses).

Contracts every plugin must honor (enforced by ``tests/test_plugins.py``
and the dispatch property test):

* **Trigger/gate superset** — each rule's ``trigger`` must be a
  *necessary* condition of its pattern: whenever the rule's ``apply``
  rewrites anything on a line, ``compile_gate(trigger)`` must pass on
  that line's lowered text.  A rule whose trigger misses lines its
  pattern matches silently stops firing under the prefilter.  Literal
  and :class:`~repro.core.rulebase.ShapePattern` triggers (a regex over
  the line with digit runs collapsed to ``0``) are decided once per
  distinct line shape.  A raw compiled regex still works and sees the
  real digits, but it costs one search on every line the engine
  rewrites.
* **Fail closed** — a recognizer that detects *part* of a privileged
  structure (an unterminated certificate block, a truncated key) must
  replace it with a placeholder, never emit the partial original.
* **Frozen replacements** — mapped/hashed output pieces are emitted
  frozen so later rules and the token pass never reinterpret them; any
  piece left live must be a substring of the original line.

Plugin rules run *before* the builtin rules (vendor-specific secret
formats get first crack, so the generic ``password|secret`` rule cannot
half-consume them), and block filters run after comment stripping,
before the per-line loop.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.rulebase import Rule


class FinalLine(str):
    """A line a block filter emits *fully anonymized*.

    The engine appends ``FinalLine`` instances to the output verbatim —
    no rule dispatch, no token pass — exactly like fail-closed
    placeholders.  Block filters use it for placeholder lines whose text
    (a salted digest) must survive the pipeline untouched.
    """

    __slots__ = ()


class RecognizerPlugin:
    """Base class for recognizer plugins.

    Subclasses set the class attributes and override whichever hooks
    their family needs; every hook has a no-op default so a pure
    line-rule plugin only implements :meth:`build_rules`.
    """

    #: Unique family name (the ``--plugins`` / config / metrics handle).
    family: str = ""
    #: Rule-id prefix this family's rules share (``V`` -> ``V1``, ...);
    #: registered with :func:`repro.core.report.register_rule_family_prefix`
    #: so report summaries and service metrics fold hits per family.
    rule_prefix: str = ""
    description: str = ""

    def build_rules(self) -> List[Rule]:
        """The family's line rules, in application order."""
        return []

    def passlist_words(self) -> tuple:
        """Extra pass-list words this family's dialect introduces.

        The engine unions them into a *copy* of the configured pass-list
        (the shared default is never mutated), so keywords like ``ipv6``
        survive the token pass only while the contributing family is
        active — with the family off, output is byte-identical to a
        pre-plugin run.  Words must be the *alphabetic runs* the R1
        segmenter produces (``ipv6`` is looked up as ``ipv``).
        """
        return ()

    def block_filter(self) -> Optional[object]:
        """A multi-line pre-pass, or ``None``.

        The returned object is called as ``filter(lines, ctx)`` per file,
        after comment stripping and before the per-line loop, and returns
        the replacement line list (which may contain :class:`FinalLine`
        instances).
        """
        return None

    def setup(self, anonymizer) -> None:
        """Attach per-engine state (e.g. an address-family map) to the
        :class:`~repro.core.engine.Anonymizer` under construction."""

    def freeze_scan(self, anonymizer, configs, stats) -> None:
        """Corpus-wide freeze hook, called by
        :meth:`~repro.core.engine.Anonymizer.freeze_mappings` before any
        file is rewritten.  ``stats`` is the run's
        :class:`~repro.core.engine.FreezeStats` to annotate."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<{} family={!r}>".format(type(self).__name__, self.family)
