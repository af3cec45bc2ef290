"""E13 — ablation: the shaped keyed map vs Crypto-PAn (Section 4.3).

The paper chose Minshall's data-structure scheme over Xu's cryptographic
scheme because a stored trie can be *shaped* (class preservation,
subnet-address preservation), accepting the cost of per-owner state.
Here both are one keyed map: without a shaping set it is Crypto-PAn
with class preservation; with the freeze's shaping set Z′ it also maps
subnet addresses to subnet addresses.  This bench quantifies the trade:
shaping support, state to share, digests computed, and throughput.
"""

import random

from _tables import report

from repro.core.ipanon import PrefixPreservingMap
from repro.netutil import trailing_zero_bits

_RNG = random.Random(5)
ADDRESSES = [_RNG.randrange(0x01000000, 0xDF000000) for _ in range(4000)]
SUBNETS = [base & 0xFFFFFF00 for base in ADDRESSES[:500]]


def _maps(salt):
    """(shaped, unshaped): the same keyed map with and without the Z′
    the freeze fixes over ADDRESSES and SUBNETS."""
    shaped = PrefixPreservingMap(salt)
    shaped.freeze(ADDRESSES + SUBNETS)
    return shaped, PrefixPreservingMap(salt)


def test_property_support_matrix(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    shaped, crypto = _maps(b"abl")
    subnets = sorted(set(SUBNETS))
    shaped_ok, crypto_ok = (
        sum(trailing_zero_bits(mapping.map_int(s)) >= 8 for s in subnets)
        for mapping in (shaped, crypto)
    )
    for address in ADDRESSES:
        crypto.map_int(address)
    total = len(subnets)
    rows = [
        ("prefix preserving", "both", "both", ""),
        ("class preserving", "both (static constraint)", "both", ""),
        ("special-address passthrough", "both", "both", ""),
        ("subnet-address shaping", "trie only",
         "with Z′ {}/{} vs without {}/{}".format(shaped_ok, total, crypto_ok, total),
         "shaping needs the set Z′"),
        ("state to share for consistency", "trie: the trie; crypto: ~none",
         "Z′ of {} addresses vs key only".format(len(shaped.shaping)),
         "Z′: scanned addresses with >= 2 trailing zeros"),
        ("stride digests computed", "(n/a)",
         "{} vs {}".format(shaped.stride_digests, crypto.stride_digests),
         "one HMAC per 8-level stride walked"),
    ]
    report("E13", "shaped keyed map vs Crypto-PAn ablation", rows)
    assert shaped_ok == total
    assert crypto_ok < total


def test_trie_throughput(benchmark):
    def run():
        mapping, _ = _maps(b"t")
        for address in ADDRESSES:
            mapping.map_int(address)

    benchmark(run)


def test_cryptopan_throughput(benchmark):
    def run():
        mapping = PrefixPreservingMap(b"t")
        for address in ADDRESSES:
            mapping.map_int(address)

    benchmark(run)
