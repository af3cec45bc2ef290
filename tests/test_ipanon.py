"""Tests for prefix-preserving IP anonymization — the paper's key
algorithmic invariants (Section 4.3), several property-based."""

import hmac
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ipanon import (
    Prefix6PreservingMap,
    PrefixPreservingMap,
    SpecialAddresses,
)
from repro.core import Anonymizer, AnonymizerConfig
from repro.core.state import export_state, import_state
from repro.netutil import IPV6_MAX, address_class, ip_to_int, trailing_zero_bits

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
unicast = st.integers(min_value=0x01000000, max_value=0xDFFFFFFF)


def shared_prefix_len(a: int, b: int, bits: int = 32) -> int:
    return bits - (a ^ b).bit_length()


def _examples(default):
    """The hypothesis budget: *default*, or CI's raised REPRO_FUZZ_EXAMPLES."""
    return int(os.environ.get("REPRO_FUZZ_EXAMPLES", default))


class _V4:
    """The IPv4 family: its map class, width and value strategies."""

    make = PrefixPreservingMap
    bits = 32
    addresses = addresses
    unicast = unicast


class _V6:
    """The IPv6 family; unicast values are drawn from 2000::/3."""

    make = Prefix6PreservingMap
    bits = 128
    addresses = st.integers(min_value=0, max_value=IPV6_MAX)
    unicast = st.integers(min_value=0x2000 << 112, max_value=(0x4000 << 112) - 1)


class TestSpecialAddresses:
    def test_netmasks_are_special(self):
        specials = SpecialAddresses()
        for text in ("255.255.255.0", "255.255.255.252", "255.0.0.0",
                     "0.0.0.0", "255.255.255.255"):
            assert ip_to_int(text) in specials

    def test_inverse_masks_are_special(self):
        specials = SpecialAddresses()
        for text in ("0.0.0.255", "0.0.0.3", "0.255.255.255"):
            assert ip_to_int(text) in specials

    def test_multicast_special_loopback_optional(self):
        specials = SpecialAddresses()
        assert ip_to_int("224.0.0.5") in specials
        assert ip_to_int("239.1.2.3") in specials
        # Loopback is opt-in (the paper's set is masks + multicast).
        assert ip_to_int("127.0.0.1") not in specials
        assert ip_to_int("127.0.0.1") in SpecialAddresses(include_loopback=True)

    def test_ordinary_addresses_not_special(self):
        specials = SpecialAddresses()
        for text in ("10.1.2.3", "6.0.0.1", "192.168.1.1", "128.32.5.9"):
            assert ip_to_int(text) not in specials

    def test_why_special(self):
        specials = SpecialAddresses(include_loopback=True)
        assert specials.why_special(ip_to_int("255.255.0.0")) == "mask-or-configured"
        assert specials.why_special(ip_to_int("224.0.0.1")) == "multicast-or-reserved"
        assert specials.why_special(ip_to_int("127.1.1.1")) == "loopback"
        assert specials.why_special(ip_to_int("10.0.0.1")) is None

    def test_extra_values(self):
        specials = SpecialAddresses(extra=[ip_to_int("10.9.9.9")])
        assert ip_to_int("10.9.9.9") in specials

    def test_families_can_be_disabled(self):
        specials = SpecialAddresses(include_multicast=False)
        assert ip_to_int("224.0.0.5") not in specials
        assert ip_to_int("127.0.0.1") not in specials


def _raw_trie_properties(family):
    """Injectivity and exact prefix preservation of *family*'s raw trie
    walk.  A fresh class per family, so each family's test classes hold
    their own hypothesis tests."""

    class RawTrieProperties:
        @settings(max_examples=_examples(60), deadline=None)
        @given(st.lists(family.addresses, min_size=2, max_size=40, unique=True))
        def test_raw_map_injective(self, values):
            mapping = family.make(b"prop")
            outputs = [mapping.raw_map(v) for v in values]
            assert len(set(outputs)) == len(values)

        @settings(max_examples=_examples(80), deadline=None)
        @given(a=family.addresses, b=family.addresses)
        def test_prefix_preserving_property(self, a, b):
            """shared_prefix(map(a), map(b)) == shared_prefix(a, b) exactly."""
            mapping = family.make(b"prop", preserve_specials=False)
            ma, mb = mapping.raw_map(a), mapping.raw_map(b)
            bits = family.bits
            assert shared_prefix_len(ma, mb, bits) == shared_prefix_len(a, b, bits)

    return RawTrieProperties


class TestRawTrieMap(_raw_trie_properties(_V4)):
    def test_deterministic_same_salt(self):
        a = PrefixPreservingMap(b"k")
        b = PrefixPreservingMap(b"k")
        for text in ("10.0.0.1", "1.2.3.4", "200.1.1.1"):
            assert a.map_address(text) == b.map_address(text)

    def test_different_salts_differ(self):
        a = PrefixPreservingMap(b"k1")
        b = PrefixPreservingMap(b"k2")
        diffs = sum(
            a.map_address(t) != b.map_address(t)
            for t in ("10.0.0.1", "1.2.3.4", "200.1.1.1", "6.7.8.9")
        )
        assert diffs >= 3  # overwhelming probability

    def test_input_validation(self):
        with pytest.raises(ValueError):
            PrefixPreservingMap(b"k").raw_map(-1)
        with pytest.raises(ValueError):
            PrefixPreservingMap(b"k").raw_map(1 << 32)


class TestRawTrieMap6(_raw_trie_properties(_V6)):
    def test_input_validation(self):
        with pytest.raises(ValueError):
            Prefix6PreservingMap(b"k").raw_map(-1)
        with pytest.raises(ValueError):
            Prefix6PreservingMap(b"k").raw_map(1 << 128)
        assert 0 <= Prefix6PreservingMap(b"k").raw_map(IPV6_MAX) <= IPV6_MAX


class TestClassPreservation:
    @settings(max_examples=100, deadline=None)
    @given(addresses)
    def test_class_preserved(self, value):
        mapping = PrefixPreservingMap(b"cls", preserve_specials=False)
        assert address_class(mapping.raw_map(value)) == address_class(value)

    def test_can_be_disabled(self):
        mapping = PrefixPreservingMap(b"cls2", class_preserving=False,
                                      preserve_specials=False, subnet_shaping=False)
        changed = sum(
            address_class(mapping.raw_map(v)) != address_class(v)
            for v in range(0x01000000, 0x01000000 + 256)
        )
        # With a free top bit roughly half of class-A inputs leave class A.
        assert changed > 0


def _collision_properties(family):
    """Bijection under the walk policy and injectivity under the allow
    policy, for *family* (see :func:`_raw_trie_properties`)."""

    class CollisionProperties:
        @settings(max_examples=_examples(40), deadline=None)
        @given(st.lists(family.unicast, min_size=2, max_size=50, unique=True))
        def test_bijection_with_cycle_walking(self, values):
            mapping = family.make(b"bij", collision_policy="walk")
            nonspecial = [v for v in values if v not in mapping.specials]
            outputs = [mapping.map_int(v) for v in nonspecial]
            assert len(set(outputs)) == len(nonspecial)

        @settings(max_examples=_examples(40), deadline=None)
        @given(st.lists(family.unicast, min_size=2, max_size=50, unique=True))
        def test_injective_under_allow_policy(self, values):
            mapping = family.make(b"bij2")
            nonspecial = [v for v in values if v not in mapping.specials]
            outputs = [mapping.map_int(v) for v in nonspecial]
            assert len(set(outputs)) == len(nonspecial)

    return CollisionProperties


class TestSpecialHandling(_collision_properties(_V4)):
    def test_specials_are_fixed_points(self):
        mapping = PrefixPreservingMap(b"fix")
        for text in ("255.255.255.0", "0.0.0.255", "224.0.0.5",
                     "0.0.0.0", "255.255.255.255"):
            assert mapping.map_address(text) == text

    def test_loopback_fixed_when_opted_in(self):
        mapping = PrefixPreservingMap(
            b"fix", specials=SpecialAddresses(include_loopback=True)
        )
        assert mapping.map_address("127.0.0.1") == "127.0.0.1"

    def test_exact_prefix_preservation_with_default_specials(self):
        import random as _random

        rng = _random.Random(1)
        mapping = PrefixPreservingMap(b"exact")
        values = [rng.randrange(0x01000000, 0xDF000000) for _ in range(4000)]
        mapped = {v: mapping.map_int(v) for v in set(values)}
        assert mapping.collision_walks == 0
        pairs = list(mapped.items())[:500]
        for (a, ma) in pairs:
            b, mb = pairs[(hash(a) % len(pairs))]
            xor_in, xor_out = a ^ b, ma ^ mb
            assert xor_in.bit_length() == xor_out.bit_length()

    def test_output_never_special_with_walk_policy(self):
        mapping = PrefixPreservingMap(b"out", collision_policy="walk")
        specials = mapping.specials
        for value in range(0x06000000, 0x06000000 + 2000, 7):
            assert mapping.map_int(value) not in specials

    def test_allow_policy_keeps_prefix_relations_always(self):
        # The default policy: even the unlucky /8-base case (the one that
        # breaks the walk policy) keeps exact prefix structure.
        mapping = PrefixPreservingMap(b"allow-pol")
        base = mapping.map_int(ip_to_int("10.0.0.0"))
        host = mapping.map_int(ip_to_int("10.0.0.5"))
        assert shared_prefix_len(base, host) >= 29

    def test_collision_policy_validated(self):
        with pytest.raises(ValueError):
            PrefixPreservingMap(b"x", collision_policy="bogus")

    def test_collision_counters(self):
        # Class-A inputs can collide with inverse masks (0.x.y.z region):
        # hammer the 0/1 boundary region to exercise both policies.
        walker = PrefixPreservingMap(b"walk", collision_policy="walk")
        allower = PrefixPreservingMap(b"walk", collision_policy="allow")
        for value in range(1, 40000, 11):
            walker.map_int(value)
            allower.map_int(value)
        assert walker.collision_walks >= 0
        assert allower.collision_walks == 0
        assert walker.map_int(23) == walker.map_int(23)


class TestSpecialHandling6(_collision_properties(_V6)):
    pass


class TestSubnetShaping:
    def test_subnet_address_maps_to_subnet_address(self):
        mapping = PrefixPreservingMap(b"shape")
        mapping.freeze([ip_to_int("10.1.1.0")])
        mapped = mapping.map_address("10.1.1.0")
        assert trailing_zero_bits(ip_to_int(mapped)) >= 8

    def test_hosts_follow_shaped_subnet(self):
        mapping = PrefixPreservingMap(b"shape2")
        mapping.freeze([ip_to_int("10.1.1.0")])
        host = ip_to_int(mapping.map_address("10.1.1.5"))
        subnet = ip_to_int(mapping.map_address("10.1.1.0"))
        assert shared_prefix_len(subnet, host) >= 24

    def test_shaping_can_be_disabled(self):
        mapping = PrefixPreservingMap(b"shape3", subnet_shaping=False)
        subnets = [ip_to_int("10.{}.0.0".format(i)) for i in range(1, 30)]
        mapping.freeze(subnets)
        assert mapping.shaping == frozenset()
        shaped = sum(trailing_zero_bits(mapping.map_int(v)) >= 16 for v in subnets)
        assert shaped < 10  # random tails rarely have 16 zero bits

    def test_min_zeros_threshold(self):
        mapping = PrefixPreservingMap(b"shape4", subnet_shaping_min_zeros=2)
        mapping.freeze([ip_to_int("10.1.1.4"), ip_to_int("10.1.1.6")])
        assert mapping.shaping == {ip_to_int("10.1.1.4")}  # /30 base only
        mapped = ip_to_int(mapping.map_address("10.1.1.4"))
        assert trailing_zero_bits(mapped) >= 2

    def test_shaping_set_is_fixed_once(self):
        mapping = PrefixPreservingMap(b"shape5")
        mapping.freeze([ip_to_int("10.1.1.0")])
        mapping.freeze([ip_to_int("10.2.2.0")])
        assert mapping.shaping == {ip_to_int("10.1.1.0")}
        assert mapping.addresses_mapped == 2

    def test_mapping_before_the_freeze_fixes_an_empty_set(self):
        mapping = PrefixPreservingMap(b"shape6")
        host = mapping.map_address("10.1.1.5")
        mapping.freeze([ip_to_int("10.1.1.0")])
        assert mapping.shaping == frozenset()
        assert mapping.map_address("10.1.1.5") == host


class TestPrefixHelpers:
    def test_map_prefix_keeps_length(self):
        mapping = PrefixPreservingMap(b"p")
        out = mapping.map_prefix("10.1.1.0/24")
        assert out.endswith("/24")

    def test_map_prefix_requires_slash(self):
        with pytest.raises(ValueError):
            PrefixPreservingMap(b"p").map_prefix("10.1.1.0")

    def test_stats(self):
        mapping = PrefixPreservingMap(b"p")
        mapping.map_address("10.0.0.1")
        assert mapping.addresses_mapped == 1
        assert mapping.stride_digests == 4


class TestCryptoPan:
    """Without a shaping set the map is Xu's Crypto-PAn with class
    preservation: a keyed flip-bit PRF, so little state to share."""

    def test_stateless_consistency(self):
        a = PrefixPreservingMap(b"k")
        b = PrefixPreservingMap(b"k")
        # Map in different orders: outputs must agree (the paper's point
        # about Xu's scheme needing little shared state).
        addrs = ["10.0.0.1", "1.2.3.4", "6.6.6.6", "150.20.3.9"]
        out_a = {t: a.map_address(t) for t in addrs}
        out_b = {t: b.map_address(t) for t in reversed(addrs)}
        assert out_a == out_b

    @settings(max_examples=60, deadline=None)
    @given(a=addresses, b=addresses)
    def test_prefix_preserving(self, a, b):
        mapping = PrefixPreservingMap(b"prop", preserve_specials=False)
        assert shared_prefix_len(mapping.raw_map(a), mapping.raw_map(b)) == (
            shared_prefix_len(a, b)
        )

    @settings(max_examples=60, deadline=None)
    @given(addresses)
    def test_class_preserved(self, value):
        mapping = PrefixPreservingMap(b"cls", preserve_specials=False)
        assert address_class(mapping.raw_map(value)) == address_class(value)

    def test_specials_fixed(self):
        mapping = PrefixPreservingMap(b"fix")
        assert mapping.map_address("255.255.0.0") == "255.255.0.0"
        assert mapping.map_address("224.1.2.3") == "224.1.2.3"

    def test_no_insertion_order_dependence_vs_trie(self):
        # Shaping no longer depends on insertion order either: with the
        # subnet in the shaping set, host-first and subnet-first agree.
        scanned = [ip_to_int("10.1.1.5"), ip_to_int("10.1.1.0")]
        host_first, subnet_first = PrefixPreservingMap(b"o"), PrefixPreservingMap(b"o")
        host_first.freeze(scanned)
        subnet_first.freeze(reversed(scanned))
        host_first.map_address("10.1.1.5")
        assert host_first.map_address("10.1.1.0") == subnet_first.map_address("10.1.1.0")
        # The same salt without a shaping set is a different, unshaped map.
        crypto = PrefixPreservingMap(b"o")
        assert crypto.map_address("10.1.1.5") != host_first.map_address("10.1.1.5")


def _cold_raw_map(ip_map, value):
    """The keyed walk as the rules state it: 32 (or 128) levels from the
    root, one digest per node, and the class and Z′ pins tested per node."""
    bits = ip_map.bits
    output = 0
    for depth in range(bits):
        top, level = depth - depth % 8, depth % 8
        digest = hmac.digest(
            ip_map._key, b"%d:%d" % (top, value >> (bits - top)), "sha256"
        )
        prefix = value >> (bits - depth)
        flip = int.from_bytes(digest, "little") >> (1 << level | prefix % (1 << level)) & 1
        if ip_map.class_preserving and depth < 4 and prefix == (1 << depth) - 1:
            flip = 0
        if depth >= bits - ip_map.shaping_max_zeros and (
            prefix << (bits - depth) in (ip_map.shaping or ())
        ):
            flip = 0
        output = output << 1 | ((value >> (bits - 1 - depth)) & 1) ^ flip
    return output


@st.composite
def clustered_values(draw, bits):
    """Values around a few bases, so walks share long prefixes as well as
    diverging near the root; some with forced zero tails."""
    bases = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=4))
    values = []
    for _ in range(draw(st.integers(1, 40))):
        low_bits = draw(st.integers(0, bits))
        value = draw(st.sampled_from(bases)) ^ draw(st.integers(0, (1 << low_bits) - 1))
        zeros = draw(st.sampled_from([0, 0, 2, 8, 16, 64]))
        values.append(value >> zeros << zeros if zeros < bits else 0)
    return values


class TestPrefixResumingWalk:
    """The walk that resumes at the deepest memoized 8-bit boundary maps
    every value as a cold per-node walk from the root does."""

    def _run(self, ip_map, values, scanned):
        ip_map.freeze(scanned)
        for value in values:
            assert ip_map.raw_map(value) == _cold_raw_map(ip_map, value)
        for value in values:  # memoized repeats
            assert ip_map.raw_map(value) == _cold_raw_map(ip_map, value)

    @settings(max_examples=_examples(80), deadline=None)
    @given(
        values=clustered_values(32),
        scanned=clustered_values(32),
        class_preserving=st.booleans(),
        subnet_shaping=st.booleans(),
    )
    def test_v4_matches_cold_walk(self, values, scanned, class_preserving, subnet_shaping):
        ip_map = PrefixPreservingMap(
            b"resume", class_preserving=class_preserving, subnet_shaping=subnet_shaping
        )
        self._run(ip_map, values, scanned)

    @settings(max_examples=_examples(30), deadline=None)
    @given(
        values=clustered_values(128),
        scanned=clustered_values(128),
        subnet_shaping=st.booleans(),
    )
    def test_v6_matches_cold_walk(self, values, scanned, subnet_shaping):
        ip_map = Prefix6PreservingMap(b"resume6", subnet_shaping=subnet_shaping)
        self._run(ip_map, values, scanned)

    def test_walk_resumes_at_divergence_depth(self):
        ip_map = PrefixPreservingMap(b"resume")
        ip_map.map_address("10.1.1.4")
        # The first walk computes the digest of every stride on its path.
        assert ip_map.stride_digests == 4
        # 10.1.1.6 shares the /24 boundary with 10.1.1.4: no new digest.
        ip_map.map_address("10.1.1.6")
        assert ip_map.stride_digests == 4
        # 10.1.2.1 resumes at the /16 boundary and adds the new /24's.
        ip_map.map_address("10.1.2.1")
        assert ip_map.stride_digests == 5
        ip_map.set_shaping(None)
        assert ip_map.stride_digests == 0


def _order_independent(make, values, scanned, order):
    """Map *values* in two orders in fresh maps frozen over *scanned*,
    and return both output lists in the first order."""
    outputs = []
    for permutation in (range(len(values)), order):
        ip_map = make()
        ip_map.freeze(scanned)
        mapped = {values[i]: ip_map.map_int(values[i]) for i in permutation}
        outputs.append([mapped[v] for v in values])
    return outputs


class TestOrderIndependence:
    """The same values mapped in two random orders map identically, in
    fresh maps and after a state import."""

    @settings(max_examples=_examples(40), deadline=None)
    @given(
        data=st.data(),
        family=st.sampled_from([_V4, _V6]),
        shaping=st.booleans(),
        policy=st.sampled_from(["allow", "walk"]),
    )
    def test_fresh_maps(self, data, family, shaping, policy):
        values = list(dict.fromkeys(data.draw(clustered_values(family.bits))))
        order = data.draw(st.permutations(range(len(values))))
        scanned = data.draw(st.lists(st.sampled_from(values)))

        def make():
            return family.make(b"order", subnet_shaping=shaping, collision_policy=policy)

        first, second = _order_independent(make, values, scanned, order)
        assert first == second

    @settings(max_examples=_examples(20), deadline=None)
    @given(
        data=st.data(),
        shaping=st.booleans(),
        policy=st.sampled_from(["allow", "walk"]),
    )
    def test_after_state_import(self, data, shaping, policy):
        config = AnonymizerConfig(
            salt=b"order", plugins=["ipv6"], subnet_shaping=shaping,
            ip_collision_policy=policy,
        )
        donor = Anonymizer(config)
        v4 = data.draw(clustered_values(32))
        v6 = data.draw(clustered_values(128))
        donor.ip_map.freeze(v4[::2])
        donor.ip6_map.freeze(v6[::2])
        state = export_state(donor)
        for values, prefix in ((v4, "ip"), (v6, "ip6")):
            values = list(dict.fromkeys(values))
            order = data.draw(st.permutations(range(len(values))))
            outputs = []
            for permutation in (range(len(values)), order):
                anonymizer = Anonymizer(config)
                import_state(anonymizer, state)
                ip_map = anonymizer.tries()[prefix]
                mapped = {values[i]: ip_map.map_int(values[i]) for i in permutation}
                outputs.append([mapped[v] for v in values])
            donor_map = donor.tries()[prefix]
            assert outputs[0] == outputs[1] == [donor_map.map_int(v) for v in values]
