"""Anonymizer policy configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.passlist import DEFAULT_PASSLIST, PassList


@dataclass
class AnonymizerConfig:
    """All policy knobs of the anonymizer, with paper-faithful defaults.

    Attributes
    ----------
    salt:
        The owner secret that salts every hash and keys every permutation
        (Section 6.1).  Choose a fresh, strong secret per network owner.
    hash_length:
        Hex characters of SHA1 digest kept for hashed tokens.
    passlist:
        The pass-list of unprivileged tokens (Section 4.1).  Defaults to
        the library's curated IOS command-reference vocabulary; extend it
        with :meth:`repro.core.passlist.PassList.from_text` over additional
        documentation corpora.
    class_preserving / subnet_shaping / preserve_specials:
        The three IP-mapping extensions of Section 4.3.
    regex_style:
        ``"alternation"`` (the paper's rewrite) or ``"mindfa"`` (the
        minimum-DFA compression the paper notes as possible future work).
    max_regex_language:
        Branch languages larger than this are judged ASN-uninformative or
        unsafe and handled per the policy in :mod:`repro.core.regexlang`.
    strip_comments:
        Remove descriptions, remarks, ! comments, and banners (Section 4.2).
        Disable only for debugging — comments are a known identity leak.
    anonymize_private_asns:
        The paper leaves private ASNs alone (they are not globally unique);
        set True for an even more conservative policy.
    rule_prefilter:
        Gate each context rule behind its cheap per-line trigger so rules
        that cannot match a line are skipped without running their regex.
        Never changes which rules fire (the trigger is a necessary
        condition of the pattern); disable only to measure its effect.
    jobs:
        Default worker count for :meth:`Anonymizer.anonymize_network`.
        ``jobs > 1`` fans per-file rewriting out over a process pool,
        after the same corpus-wide mapping freeze every run performs;
        output is byte-identical for every worker count.
    """

    salt: Union[bytes, str] = b""
    hash_length: int = 16
    passlist: Optional[PassList] = None
    class_preserving: bool = True
    subnet_shaping: bool = True
    preserve_specials: bool = True
    #: "allow" (default): mapped outputs may equal special *values*, which
    #: keeps prefix relations exact everywhere; "walk": the paper's
    #: recursive remap (sacrifices walked addresses' prefix relations).
    ip_collision_policy: str = "allow"
    regex_style: str = "alternation"
    max_regex_language: int = 2048
    strip_comments: bool = True
    anonymize_private_asns: bool = False
    rule_prefilter: bool = True
    jobs: int = 1
    #: Rule ids to disable (used by the iterative-closure experiment of
    #: Section 6.1 to start from a deliberately incomplete rule set).
    disabled_rules: frozenset = frozenset()
    #: Config language: "ios", "junos", or "auto" (sniff per file).  The
    #: paper implements IOS and notes direct applicability to JunOS; the
    #: JunOS rule extensions (J1-J9) realize that claim.
    syntax: str = "auto"
    #: How the frozen mapping snapshot reaches pool workers: "fork"
    #: (copy-on-write inheritance, zero serialization), "shm" (pickled
    #: once into a shared-memory segment every worker attaches to),
    #: "pickle" (legacy: a copy rides in each pool's initargs), or
    #: "auto" (fork where the platform supports it, else shm).  Output
    #: is byte-identical across all of them.
    snapshot_transport: str = "auto"
    #: Files per worker task when ``jobs > 1``.  ``0`` (default) sizes
    #: chunks automatically (~4 chunks per worker, at most 32 files);
    #: ``1`` restores one-file-per-task.  Chunking amortizes task
    #: submit/result overhead over small files without weakening
    #: per-file failure isolation.
    chunk_files: int = 0
    #: Deterministic fault-injection plan (see :mod:`repro.core.faults`);
    #: ``None`` falls back to the ``REPRO_FAULT_PLAN`` environment
    #: variable.  Test-only: never set on a run whose output you publish.
    fault_plan: Optional[str] = None
    #: Recognizer plugin families to activate (see :mod:`repro.plugins`).
    #: ``None`` (default) activates every discovered builtin family minus
    #: any named in the ``REPRO_PLUGINS_DISABLE`` environment variable; an
    #: explicit sequence (possibly empty) activates exactly those families
    #: and nothing else.  Unknown names raise
    #: :class:`repro.plugins.UnknownPluginError` at engine construction.
    plugins: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.passlist is None:
            self.passlist = DEFAULT_PASSLIST
        if self.syntax not in ("ios", "junos", "auto"):
            raise ValueError(
                "syntax must be 'ios', 'junos', or 'auto', not {!r}".format(self.syntax)
            )
        if self.regex_style not in ("alternation", "mindfa"):
            raise ValueError(
                "regex_style must be 'alternation' or 'mindfa', not {!r}".format(
                    self.regex_style
                )
            )
        if isinstance(self.salt, str):
            self.salt = self.salt.encode("utf-8")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1, not {!r}".format(self.jobs))
        if self.snapshot_transport not in ("auto", "fork", "shm", "pickle"):
            raise ValueError(
                "snapshot_transport must be 'auto', 'fork', 'shm', or "
                "'pickle', not {!r}".format(self.snapshot_transport)
            )
        if self.chunk_files < 0:
            raise ValueError(
                "chunk_files must be >= 0, not {!r}".format(self.chunk_files)
            )
        if self.plugins is not None:
            if isinstance(self.plugins, str):
                raise ValueError(
                    "plugins must be a sequence of family names, not a "
                    "bare string: {!r}".format(self.plugins)
                )
            self.plugins = tuple(str(name) for name in self.plugins)
