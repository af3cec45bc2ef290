"""E6 — IP anonymization properties (paper Section 4.3).

Measures, over a large address sample: bijectivity, exact prefix
preservation, class preservation, special-address fixedness, collision-
walk frequency, and subnet-shaping success — plus raw mapping throughput.
"""

import random

from _tables import fmt, report

from repro.core.ipanon import PrefixPreservingMap, SpecialAddresses
from repro.netutil import address_class, trailing_zero_bits

SAMPLE = 20_000


def _shared_prefix(a, b):
    xor = a ^ b
    return 32 if xor == 0 else 32 - xor.bit_length()


def test_ip_map_properties(anonymized_dataset, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rng = random.Random(99)
    mapping = PrefixPreservingMap(b"e6-salt")
    addresses = [rng.randrange(0x01000000, 0xDF000000) for _ in range(SAMPLE)]
    unique = sorted(set(addresses))
    mapped = {a: mapping.map_int(a) for a in unique}

    bijective = len(set(mapped.values())) == len(unique)
    class_ok = sum(
        address_class(mapped[a]) == address_class(a) for a in unique
    )
    prefix_ok = 0
    pair_sample = [
        (rng.choice(unique), rng.choice(unique)) for _ in range(5000)
    ]
    for a, b in pair_sample:
        if _shared_prefix(mapped[a], mapped[b]) == _shared_prefix(a, b):
            prefix_ok += 1

    specials_fixed = all(
        mapping.map_int(v) == v
        for v in (0xFFFFFF00, 0x000000FF, 0xE0000001, 0, 0xFFFFFFFF)
    )

    # Ablation 1: declaring all of 127/8 special forces collisions (see the
    # SpecialAddresses docstring) — quantify the affected fraction under
    # the paper's walk policy.
    walker = PrefixPreservingMap(
        b"e6-loopback",
        specials=SpecialAddresses(include_loopback=True),
        collision_policy="walk",
    )
    for a in unique[:5000]:
        walker.map_int(a)
    walked_fraction = walker.collision_walks / 5000

    # Ablation 2: the unlucky-/8 case — under the paper's walk policy the
    # /8 base whose image is 0/8 loses its prefix relations; under the
    # default allow policy it keeps them.
    def unlucky_delta(policy):
        probe = PrefixPreservingMap(b"e6-unlucky", collision_policy=policy)
        base = probe.map_int(0x0A000000)   # 10.0.0.0 (maps near 0/8 for
        host = probe.map_int(0x0A000005)   # this salt's flip stream)
        return _shared_prefix(base, host), probe.collision_walks

    # Subnet shaping: a fresh map frozen over /24 subnet addresses.
    shaper = PrefixPreservingMap(b"e6-shape")
    subnet_bases = [rng.randrange(0x0A0000, 0x0AFFFF) << 8 for _ in range(2000)]
    shaper.freeze(subnet_bases)
    shaped = sum(
        trailing_zero_bits(shaper.map_int(base)) >= 8 for base in set(subnet_bases)
    )

    # Fixed points over the corpus: every non-special address each
    # network's freeze mapped, under that network's salt.
    corpus_fixed = corpus_total = 0
    for _network, anonymizer, _result in anonymized_dataset:
        walks = anonymizer.ip_map._raw_cache
        corpus_total += len(walks)
        corpus_fixed += sum(value == mapped for value, mapped in walks.items())

    rows = [
        ("sample size", "(4.3M lines)", str(len(unique)), "distinct addresses"),
        ("bijective", "required", "yes" if bijective else "NO", ""),
        ("prefix relations preserved", "100%",
         fmt(100.0 * prefix_ok / len(pair_sample)) + "%", "5000 random pairs"),
        ("class preserved", "100%", fmt(100.0 * class_ok / len(unique)) + "%", ""),
        ("special addresses fixed", "required", "yes" if specials_fixed else "NO", ""),
        ("collision walks (paper special set)", "rare", str(mapping.collision_walks),
         "recursive remap count"),
        ("walked fraction if 127/8 were special", "(n/a)",
         fmt(walked_fraction * 100, 2) + "%",
         "why loopback is opt-in"),
        ("collision policy", "walk (recursive remap)", "allow (default)",
         "walk breaks walked addresses' prefix relations; see ipanon.py"),
        ("subnet addresses shaped (in the shaping set)", "always",
         fmt(100.0 * shaped / len(set(subnet_bases))) + "%", ""),
        ("shaping set size / stride digests", "(n/a)",
         "{} / {}".format(len(shaper.shaping), shaper.stride_digests),
         "the shaping map; the sample map has no shaping set"),
        ("corpus addresses mapped to themselves", "(n/a)",
         "{} of {}".format(corpus_fixed, corpus_total),
         "non-special addresses of all 31 networks"),
    ]
    report("E6", "IP map properties vs paper Section 4.3", rows)
    assert bijective
    assert prefix_ok == len(pair_sample)
    assert class_ok == len(unique)
    assert specials_fixed
    assert mapping.collision_walks == 0
    assert shaped == len(set(subnet_bases))
    assert corpus_fixed < corpus_total // 100


def test_ip_map_throughput(benchmark):
    rng = random.Random(7)
    addresses = [rng.randrange(0x01000000, 0xDF000000) for _ in range(5000)]

    def run():
        mapping = PrefixPreservingMap(b"bench")
        for address in addresses:
            mapping.map_int(address)
        return mapping

    result = benchmark(run)
    assert result.addresses_mapped == len(addresses)
