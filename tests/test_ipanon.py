"""Tests for prefix-preserving IP anonymization — the paper's key
algorithmic invariants (Section 4.3), several property-based."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cryptopan import CryptoPanMap
from repro.core.ipanon import (
    _NO_WALK,
    Prefix6PreservingMap,
    PrefixPreservingMap,
    SpecialAddresses,
)
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
        # Insert the subnet address FIRST (the paper's best-effort case).
        mapped = mapping.map_address("10.1.1.0")
        assert trailing_zero_bits(ip_to_int(mapped)) >= 8

    def test_hosts_follow_shaped_subnet(self):
        mapping = PrefixPreservingMap(b"shape2")
        subnet = ip_to_int(mapping.map_address("10.1.1.0"))
        host = ip_to_int(mapping.map_address("10.1.1.5"))
        assert shared_prefix_len(subnet, host) >= 24

    def test_shaping_can_be_disabled(self):
        mapping = PrefixPreservingMap(b"shape3", subnet_shaping=False)
        shaped = sum(
            trailing_zero_bits(ip_to_int(mapping.map_address("10.{}.0.0".format(i)))) >= 16
            for i in range(1, 30)
        )
        assert shaped < 10  # random tails rarely have 16 zero bits

    def test_min_zeros_threshold(self):
        mapping = PrefixPreservingMap(b"shape4", subnet_shaping_min_zeros=2)
        mapped = ip_to_int(mapping.map_address("10.1.1.4"))  # /30 base
        assert trailing_zero_bits(mapped) >= 2


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
        assert mapping.nodes_created > 0


class TestCryptoPan:
    def test_stateless_consistency(self):
        a = CryptoPanMap(b"k")
        b = CryptoPanMap(b"k")
        # Map in different orders: outputs must agree (the paper's point
        # about Xu's scheme needing little shared state).
        addrs = ["10.0.0.1", "1.2.3.4", "6.6.6.6", "150.20.3.9"]
        out_a = {t: a.map_address(t) for t in addrs}
        out_b = {t: b.map_address(t) for t in reversed(addrs)}
        assert out_a == out_b

    @settings(max_examples=60, deadline=None)
    @given(a=addresses, b=addresses)
    def test_prefix_preserving(self, a, b):
        mapping = CryptoPanMap(b"prop", preserve_specials=False)
        assert shared_prefix_len(mapping.raw_map(a), mapping.raw_map(b)) == (
            shared_prefix_len(a, b)
        )

    @settings(max_examples=60, deadline=None)
    @given(addresses)
    def test_class_preserved(self, value):
        mapping = CryptoPanMap(b"cls", preserve_specials=False)
        assert address_class(mapping.raw_map(value)) == address_class(value)

    def test_specials_fixed(self):
        mapping = CryptoPanMap(b"fix")
        assert mapping.map_address("255.255.0.0") == "255.255.0.0"
        assert mapping.map_address("224.1.2.3") == "224.1.2.3"

    def test_no_insertion_order_dependence_vs_trie(self):
        # The trie map's subnet shaping depends on insertion order; the
        # crypto map's output for one address never does.
        trie1 = PrefixPreservingMap(b"o")
        trie2 = PrefixPreservingMap(b"o")
        trie1.map_address("10.1.1.5")     # host first
        trie1_sub = trie1.map_address("10.1.1.0")
        trie2_sub = trie2.map_address("10.1.1.0")  # subnet first
        crypto1 = CryptoPanMap(b"o")
        crypto2 = CryptoPanMap(b"o")
        crypto1.map_address("10.1.1.5")
        assert crypto1.map_address("10.1.1.0") == crypto2.map_address("10.1.1.0")
        # (the trie outputs may or may not differ; both stay valid mappings)
        assert trie1_sub != "" and trie2_sub != ""


class _ColdWalk:
    """Forgets the previous walk before every trie walk, so each one
    starts at the root: the reference the resuming walk must match."""

    def raw_map(self, value):
        self._last_walk = _NO_WALK
        return super().raw_map(value)


class _ColdMap(_ColdWalk, PrefixPreservingMap):
    pass


class _ColdMap6(_ColdWalk, Prefix6PreservingMap):
    pass


@st.composite
def clustered_values(draw, bits):
    """Values around a few bases, so consecutive walks share long prefixes
    (the freeze's sorted runs) as well as diverging near the root."""
    bases = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=4))
    values = []
    for _ in range(draw(st.integers(1, 40))):
        low_bits = draw(st.integers(0, bits))
        values.append(draw(st.sampled_from(bases)) ^ draw(st.integers(0, (1 << low_bits) - 1)))
    if draw(st.booleans()):  # the freeze's order: most trailing zeros first
        values.sort(key=lambda v: (-(((v & -v).bit_length() - 1) if v else bits), v))
    return values


def _import_state(ip_map, donor):
    """The state-import path: replace the trie wholesale, then invalidate."""
    ip_map._flips = dict(donor._flips)
    ip_map._rng.setstate(donor._rng.getstate())
    ip_map.invalidate_cache()


def _trie_state(ip_map):
    return (
        list(ip_map._flips.items()),
        list(ip_map._raw_cache.items()),
        ip_map.addresses_mapped,
        ip_map.collision_walks,
        ip_map.collision_allowed,
    )


class TestPrefixResumingWalk:
    """The walk that resumes below the previous walk's shared prefix
    creates the same nodes, in the same order, as a walk from the root."""

    def _run(self, make, values, donor_values, freeze_at, import_at):
        resumed, cold, donor = make(False), make(True), make(False)
        for value in donor_values:
            donor.map_int(value)
        outputs = ([], [])
        for index, value in enumerate(values):
            for ip_map in (resumed, cold):
                if index == freeze_at:
                    ip_map.freeze()
                if index == import_at:
                    _import_state(ip_map, donor)
            outputs[0].append(resumed.map_int(value))
            outputs[1].append(cold.map_int(value))
        assert outputs[0] == outputs[1]
        assert _trie_state(resumed) == _trie_state(cold)

    @settings(max_examples=_examples(80), deadline=None)
    @given(
        values=clustered_values(32),
        donor_values=clustered_values(32),
        class_preserving=st.booleans(),
        subnet_shaping=st.booleans(),
        policy=st.sampled_from(["walk", "allow"]),
        freeze_at=st.integers(0, 45),
        import_at=st.one_of(st.none(), st.integers(0, 45)),
    )
    def test_v4_matches_cold_walk(
        self, values, donor_values, class_preserving, subnet_shaping, policy,
        freeze_at, import_at,
    ):
        def make(cold):
            return (_ColdMap if cold else PrefixPreservingMap)(
                b"resume",
                class_preserving=class_preserving,
                subnet_shaping=subnet_shaping,
                collision_policy=policy,
            )

        self._run(make, values, donor_values, freeze_at, import_at)

    @settings(max_examples=_examples(60), deadline=None)
    @given(
        values=clustered_values(128),
        donor_values=clustered_values(128),
        subnet_shaping=st.booleans(),
        policy=st.sampled_from(["walk", "allow"]),
        freeze_at=st.integers(0, 45),
        import_at=st.one_of(st.none(), st.integers(0, 45)),
    )
    def test_v6_matches_cold_walk(
        self, values, donor_values, subnet_shaping, policy, freeze_at, import_at
    ):
        def make(cold):
            return (_ColdMap6 if cold else Prefix6PreservingMap)(
                b"resume6", subnet_shaping=subnet_shaping, collision_policy=policy
            )

        self._run(make, values, donor_values, freeze_at, import_at)

    def test_walk_resumes_at_divergence_depth(self):
        class CountingDict(dict):
            probes = 0

            def get(self, key, default=None):
                CountingDict.probes += 1
                return super().get(key, default)

        ip_map = PrefixPreservingMap(b"resume")
        ip_map._flips = CountingDict()
        ip_map.invalidate_cache()
        ip_map.map_address("10.1.1.4")
        # The first walk starts at the root; the empty trie's root is
        # missing, so every node below it is created without a probe.
        assert CountingDict.probes == 1
        nodes = ip_map.nodes_created
        # 10.1.1.6 shares 30 bits with 10.1.1.4: only depths 30 and 31 are
        # probed, and the one new node is the depth-31 node of 10.1.1.6.
        ip_map.map_address("10.1.1.6")
        assert CountingDict.probes == 3
        assert ip_map.nodes_created == nodes + 1
        assert ip_map._last_walk[0] == ip_to_int("10.1.1.6")
        ip_map.invalidate_cache()
        assert ip_map._last_walk == _NO_WALK
