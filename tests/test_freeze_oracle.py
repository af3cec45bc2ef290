"""The freeze against a reference copy of its earlier form.

``Anonymizer.freeze_mappings`` finds addresses in the corpus's distinct
words, sorts them by one int key, fills the trie by creating each walk's
missing tail in one loop, and leaves the ASN and community memos to the
rewrite.  The reference below does it the earlier way: a regexp scan of
every text, a tuple sort, a walk that probes every node and draws each
flip bit through a per-node call, and an ASN/community warm-up scan.
Both must leave the same trie, RNG state and memos behind and produce
the same bytes and report.
"""

import functools
import hashlib
import hmac
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DOTTED_QUAD_RE, Anonymizer, FreezeStats
from repro.core.ipanon import Prefix6PreservingMap, PrefixPreservingMap
from repro.iosgen import NetworkSpec, generate_network
from repro.netutil import int_to_ip, ip_to_int, trailing_zero_bits
from repro.plugins.registry import resolve_active_plugins


def _examples(default):
    """The hypothesis budget: *default*, or CI's raised REPRO_FUZZ_EXAMPLES."""
    return int(os.environ.get("REPRO_FUZZ_EXAMPLES", default))


# -- the reference freeze ---------------------------------------------------

_ASN_CONTEXT_RE = re.compile(
    r"\b(?:router bgp|remote-as|local-as|peer-as|autonomous-system|"
    r"bgp confederation identifier|set origin egp) (\d+)\b",
    re.IGNORECASE,
)
_COMMUNITY_TOKEN_RE = re.compile(r"\b\d{1,5}:\d{1,5}\b")
_CLASS_NODES = frozenset((depth, (1 << depth) - 1) for depth in range(4))


class _ReferenceWalk:
    """A walk from the root that probes every node and creates each
    missing one through :meth:`_new_flip`."""

    BITS = 32

    def raw_map(self, value):
        cached = self._raw_cache.get(value)
        if cached is not None:
            return cached
        bits = self.BITS
        if not 0 <= value <= (1 << bits) - 1:
            raise ValueError(value)
        output = 0
        for depth in range(bits):
            prefix = value >> (bits - depth)
            flip = self._flips.get((depth, prefix))
            if flip is None:
                flip = self._new_flip(depth, prefix, value)
                self._flips[depth, prefix] = flip
            output = (output << 1) | (((value >> (bits - 1 - depth)) & 1) ^ flip)
        self._raw_cache[value] = output
        self._last_walk = (value, output)
        return output

    def _class_node(self, depth, prefix):
        return False

    def _new_flip(self, depth, prefix, value):
        bits = self.BITS
        if self._frozen:
            material = b"%d:%d" % (depth, prefix)
            digest = hmac.new(self._frozen_flip_key, material, hashlib.sha256)
            return 0 if self._class_node(depth, prefix) else digest.digest()[0] & 1
        drawn = self._rng.getrandbits(1)
        if self._class_node(depth, prefix):
            return 0
        if self.subnet_shaping and value & ((1 << (bits - depth)) - 1) == 0:
            if bits - depth <= self._shapeable_zeros(value):
                return 0
        return drawn


class _ReferenceMap(_ReferenceWalk, PrefixPreservingMap):
    def _class_node(self, depth, prefix):
        return self.class_preserving and (depth, prefix) in _CLASS_NODES


class _ReferenceMap6(_ReferenceWalk, Prefix6PreservingMap):
    BITS = 128


def _text_scan(configs):
    """Every valid dotted quad found by scanning each text."""
    quads = set()
    for text in configs.values():
        quads.update(DOTTED_QUAD_RE.findall(text))
    seen = set()
    for quad in quads:
        try:
            seen.add(ip_to_int(quad))
        except ValueError:
            continue
    return seen


def reference_freeze(anonymizer, configs):
    """The freeze as it was: text scan, tuple sort, per-node walk, and
    the ASN/community warm-up.  Swaps in the reference trie walk, which
    stays in place for the rewrite's post-freeze walks too."""
    anonymizer.ip_map.__class__ = _ReferenceMap
    if anonymizer.ip6_map is not None:
        anonymizer.ip6_map.__class__ = _ReferenceMap6
    stats = FreezeStats()
    addresses = _text_scan(configs)
    system_ids = anonymizer._scan_system_ids(configs) - addresses
    stats.addresses = len(addresses)
    stats.system_ids = len(system_ids)
    ordered = sorted(addresses | system_ids, key=lambda v: (-trailing_zero_bits(v), v))
    for value in ordered:
        anonymizer.ip_map.map_int(value)
    warm = anonymizer.token_anon.warm
    words = set()
    for text in configs.values():
        words.update(text.split())
    stats.words_warmed = sum(1 for word in words if warm(word))
    for text in configs.values():
        for match in _ASN_CONTEXT_RE.finditer(text):
            asn = int(match.group(1))
            if asn <= 0xFFFF:
                anonymizer.asn_map.map_asn(asn)
        for match in _COMMUNITY_TOKEN_RE.finditer(text):
            anonymizer.community.map_community(match.group(0))
    for plugin in anonymizer.plugins:
        plugin.freeze_scan(anonymizer, configs, stats)
    anonymizer.mark_frozen()
    anonymizer.last_freeze_stats = stats
    return stats


def _trie_state(ip_map):
    if ip_map is None:
        return None
    return (
        list(ip_map._flips.items()),
        ip_map._rng.getstate(),
        list(ip_map._raw_cache.items()),
        ip_map.addresses_mapped,
    )


def _freeze_and_rewrite(freeze, configs, plugins, salt=b"oracle"):
    anonymizer = Anonymizer(salt=salt, plugins=plugins)
    stats = freeze(anonymizer, dict(configs))
    frozen = (_trie_state(anonymizer.ip_map), _trie_state(anonymizer.ip6_map))
    outputs = {
        name: anonymizer.anonymize_text(text, source=name)
        for name, text in sorted(configs.items())
    }
    return {
        "frozen": frozen,
        "stats": stats,
        "outputs": outputs,
        "report": anonymizer.report.to_dict(),
        "after": (_trie_state(anonymizer.ip_map), _trie_state(anonymizer.ip6_map)),
    }


def _assert_same_as_reference(configs, plugins):
    expected = _freeze_and_rewrite(reference_freeze, configs, plugins)
    actual = _freeze_and_rewrite(Anonymizer.freeze_mappings, configs, plugins)
    assert actual["frozen"] == expected["frozen"]
    assert actual["stats"] == expected["stats"]
    assert actual["outputs"] == expected["outputs"]
    assert actual["report"] == expected["report"]
    assert actual["after"] == expected["after"]
    return actual


# -- seeded networks --------------------------------------------------------

_NETWORKS = {
    "backbone": NetworkSpec(
        name="o-bb",
        kind="backbone",
        seed=31,
        num_pops=3,
        aggs_per_pop=2,
        access_per_pop=2,
        local_asn=7132,
        num_ebgp_peers=3,
        lans_per_access=(2, 5),
        use_aspath_range_regexps=True,
        use_community_regexps=True,
        use_confederation=True,
        archaic_policies=True,
        use_rfc1918=False,
        public_block=(0x06000000, 8),
    ),
    "enterprise": NetworkSpec(
        name="o-ent",
        kind="enterprise",
        seed=47,
        num_pops=3,
        igp="isis",
        lans_per_access=(2, 5),
        eos_fraction=0.3,
        dialer_backup=True,
    ),
}


#: A NET whose system id encodes 172.31.255.254, an address no dotted
#: quad in the corpus spells: only the system-id scan finds it.
_ISIS_ONLY = "router isis\n net 49.0001.1720.3125.5254.00\n"


@functools.lru_cache(maxsize=None)
def _network(kind):
    return dict(generate_network(_NETWORKS[kind]).configs, isis_only=_ISIS_ONLY)


@pytest.mark.parametrize("plugins", [None, ()], ids=["all-plugins", "no-plugins"])
@pytest.mark.parametrize("kind", sorted(_NETWORKS))
def test_freeze_matches_reference_on_network(kind, plugins):
    actual = _assert_same_as_reference(_network(kind), plugins)
    assert actual["stats"].addresses > 0
    assert actual["stats"].system_ids == 1
    # plugins=None honours REPRO_PLUGINS_DISABLE, which may turn ipv6 off.
    active = {plugin.family for plugin in resolve_active_plugins(plugins)}
    if kind == "enterprise" and "ipv6" in active:
        assert actual["stats"].ipv6_addresses > 0


# -- random texts -----------------------------------------------------------

_SEPARATORS = [" ", "\n", "\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]
_PIECES = [
    "1.2.3.4",
    "10.0.0.0/8",
    "1.2.3.4/24",
    "1.2.3.4.5",
    "999.1.1.1",
    "6.0.0.0",
    "255.255.255.0",
    "0.0.0.255",
    "\u0663.1.1.1",
    "1.\u0663.2.300",
    "a1.2.3.4",
    "x.1.2.3.4",
    "ip address",
    "router bgp 701",
    "neighbor 6.1.1.2 remote-as 1239",
    "set community 701:120 65000:5",
    "99999:1",
    "match ip address",
    "-",
    "/",
    ".",
    "_",
]
_digits = st.text(alphabet="0123456789.\u0663\u0967", min_size=1, max_size=16)


def _with_zero_tail(bits):
    """Values with 0 to 12 trailing zeros forced, so subnet addresses with
    every zero count meet in one sort; half from the upper half of the
    space, which plain integer draws seldom reach."""
    top = 1 << bits
    return st.builds(
        lambda value, zeros: value >> zeros << zeros,
        st.integers(0, top - 1) | st.integers(top >> 1, top - 1),
        st.integers(0, 12),
    )


_quad = st.builds(
    lambda value, suffix: int_to_ip(value) + suffix,
    _with_zero_tail(32),
    st.sampled_from(["", "", "/24", "/30"]),
)
_piece = st.one_of(
    st.sampled_from(_PIECES),
    st.sampled_from(_SEPARATORS),
    _digits,
    _quad,
    st.integers(0, 300).map(str),
)
_text = st.lists(_piece, max_size=40).map("".join)


@functools.lru_cache(maxsize=None)
def _scanner():
    return Anonymizer(salt=b"scan", plugins=())


@settings(max_examples=_examples(200), deadline=None)
@given(texts=st.lists(_text, min_size=1, max_size=4))
def test_word_scan_matches_text_scan(texts):
    configs = {"r{}".format(index): text for index, text in enumerate(texts)}
    words = set()
    for text in texts:
        words.update(text.split())
    assert _scanner()._scan_addresses(words) == _text_scan(configs)


@settings(max_examples=_examples(25), deadline=None)
@given(
    texts=st.lists(_text, min_size=1, max_size=3),
    quads=st.lists(_quad, max_size=30),
    plugins=st.sampled_from([None, ()]),
)
def test_freeze_matches_reference_on_random_texts(texts, quads, plugins):
    configs = {"r{}.cfg".format(index): text for index, text in enumerate(texts)}
    # Many addresses in one file, so the sort meets every zero count.
    configs["quads.cfg"] = " ".join(quads)
    _assert_same_as_reference(configs, plugins)


# -- the trie alone ---------------------------------------------------------


@pytest.mark.parametrize(
    "new, reference",
    [(PrefixPreservingMap, _ReferenceMap), (Prefix6PreservingMap, _ReferenceMap6)],
    ids=["v4", "v6"],
)
@settings(max_examples=_examples(60), deadline=None)
@given(data=st.data(), freeze_at=st.integers(0, 40), shaping=st.booleans())
def test_trie_matches_reference_walk(new, reference, data, freeze_at, shaping):
    # Without special passthrough every value is walked, class D and E
    # included, so the class nodes are created before and after a freeze.
    options = {"subnet_shaping": shaping, "preserve_specials": False}
    if new is PrefixPreservingMap:
        options["class_preserving"] = data.draw(st.booleans())
    maps = [new(b"trie", **options), reference(b"trie", **options)]
    values = data.draw(st.lists(_with_zero_tail(reference.BITS), max_size=40))
    for index, value in enumerate(values):
        if index == freeze_at:
            for ip_map in maps:
                ip_map.freeze()
        assert maps[0].map_int(value) == maps[1].map_int(value)
    assert _trie_state(maps[0]) == _trie_state(maps[1])
