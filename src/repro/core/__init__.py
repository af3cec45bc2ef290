"""Core anonymization engine — the paper's primary contribution.

Public API::

    from repro.core import Anonymizer, AnonymizerConfig

    anon = Anonymizer(AnonymizerConfig(salt=b"owner-secret"))
    result = anon.anonymize_text(config_text)
    result_by_router = anon.anonymize_network({"cr1": text1, "cr2": text2})

One :class:`Anonymizer` instance holds the per-network mapping state (IP
trie, ASN permutation, string hashes) so that relationships are preserved
*across* all the configs of one network.  Use a fresh instance (and a fresh
owner salt) per network owner.
"""

from repro.core.config import AnonymizerConfig
from repro.core.engine import Anonymizer, AnonymizedNetwork
from repro.core.report import AnonymizationReport
from repro.core.passlist import PassList, DEFAULT_PASSLIST
from repro.core.ipanon import PrefixPreservingMap, SpecialAddresses
from repro.core.asn import AsnPermutation, is_public_asn, is_private_asn
from repro.core.community import CommunityAnonymizer
from repro.core.strings import StringHasher
from repro.core.faults import FaultInjected, FaultPlan, build_fault_plan
from repro.core.runner import RunResult, RunnerError, run_anonymization

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "build_fault_plan",
    "RunResult",
    "RunnerError",
    "run_anonymization",
    "Anonymizer",
    "AnonymizedNetwork",
    "AnonymizerConfig",
    "AnonymizationReport",
    "PassList",
    "DEFAULT_PASSLIST",
    "PrefixPreservingMap",
    "SpecialAddresses",
    "AsnPermutation",
    "is_public_asn",
    "is_private_asn",
    "CommunityAnonymizer",
    "StringHasher",
]
