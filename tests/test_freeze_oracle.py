"""The freeze's shaping set against Minshall's stored trie.

``Anonymizer.freeze_mappings`` fixes a shaping set Z′ and pins, besides
the class nodes, every node ``(d, p)`` with ``d >= bits - cap`` whose
zero extension ``p << (bits - d)`` lies in Z′.  The reference below is
the freeze as a stored trie did it: a regexp scan of every text, then
every non-special address inserted most-trailing-zeros-first, each new
node's flip bit drawn from an RNG and pinned to zero on the class path
or along the inserting address's capped zero tail.  With the RNG forced
to 1, the reference's zero flips are exactly its pinned nodes, and they
must equal the class nodes plus the Z′-rule nodes.
"""

import functools
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DOTTED_QUAD_RE, Anonymizer
from repro.core.ipanon import Prefix6PreservingMap, PrefixPreservingMap
from repro.iosgen import NetworkSpec, generate_network
from repro.iosgen.dataset import paper_dataset_specs
from repro.netutil import int_to_ip, ip6_to_int, ip_to_int, trailing_zero_bits
from repro.plugins.builtin.ipv6 import CANDIDATE_RE
from repro.plugins.registry import resolve_active_plugins


def _examples(default):
    """The hypothesis budget: *default*, or CI's raised REPRO_FUZZ_EXAMPLES."""
    return int(os.environ.get("REPRO_FUZZ_EXAMPLES", default))


# -- the reference trie -----------------------------------------------------


def reference_flips(ip_map, values):
    """The stored trie a freeze over *values* left behind, for *ip_map*'s
    options, with every RNG draw forced to 1: ``{(depth, prefix): flip}``."""
    bits = ip_map.bits
    flips = {}
    for value in sorted(values, key=lambda v: (-trailing_zero_bits(v, bits), v)):
        if ip_map.preserve_specials and value in ip_map.specials:
            continue
        zeros = trailing_zero_bits(value, bits)
        shapeable = 0
        if ip_map.subnet_shaping and zeros >= ip_map.subnet_shaping_min_zeros:
            shapeable = min(zeros, ip_map.shaping_max_zeros)
        for depth in range(bits):
            node = (depth, value >> (bits - depth))
            if node in flips:
                continue
            flip = 1  # the RNG draw
            if ip_map.class_preserving and depth < 4 and node[1] == (1 << depth) - 1:
                flip = 0
            if depth >= bits - shapeable:
                flip = 0
            flips[node] = flip
    return flips


def rule_pins(ip_map, nodes):
    """The class nodes among *nodes*, plus every node the Z′ rule pins
    for *ip_map*'s shaping set."""
    bits = ip_map.bits
    pins = {
        (depth, prefix)
        for depth, prefix in nodes
        if ip_map.class_preserving and depth < 4 and prefix == (1 << depth) - 1
    }
    for value in ip_map.shaping:
        first = max(bits - ip_map.shaping_max_zeros, bits - trailing_zero_bits(value, bits))
        pins.update((depth, value >> (bits - depth)) for depth in range(first, bits))
    return pins


def assert_pins_match(ip_map, values):
    flips = reference_flips(ip_map, values)
    pinned = {node for node, flip in flips.items() if flip == 0}
    assert pinned == rule_pins(ip_map, flips)
    return pinned


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


def _text_scan6(configs):
    """Every IPv6 address the ``ipv6`` plugin's candidate regexp finds."""
    seen = set()
    for text in configs.values():
        for match in CANDIDATE_RE.finditer(text):
            if match.group(1).count(":") >= 2:
                try:
                    seen.add(ip6_to_int(match.group(1)))
                except ValueError:
                    continue
    return seen


def assert_freeze_matches_reference(configs, plugins=None, salt=b"oracle"):
    """Freeze *configs* and check both maps' pins against the reference
    over a plain text scan of the same corpus."""
    anonymizer = Anonymizer(salt=salt, plugins=plugins)
    stats = anonymizer.freeze_mappings(dict(configs))
    addresses = _text_scan(configs)
    system_ids = anonymizer._scan_system_ids(configs) - addresses
    assert (stats.addresses, stats.system_ids) == (len(addresses), len(system_ids))
    assert_pins_match(anonymizer.ip_map, addresses | system_ids)
    if anonymizer.ip6_map is not None:
        values6 = _text_scan6(configs)
        assert stats.ipv6_addresses == len(values6)
        assert_pins_match(anonymizer.ip6_map, values6)
    return anonymizer, stats


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
    anonymizer, stats = assert_freeze_matches_reference(_network(kind), plugins)
    assert stats.addresses > 0 and anonymizer.ip_map.shaping
    assert stats.system_ids == 1
    # plugins=None honours REPRO_PLUGINS_DISABLE, which may turn ipv6 off.
    active = {plugin.family for plugin in resolve_active_plugins(plugins)}
    if kind == "enterprise" and "ipv6" in active:
        assert stats.ipv6_addresses > 0 and anonymizer.ip6_map.shaping


@pytest.mark.parametrize("name", ["net01", "net04", "net12"])
def test_freeze_matches_reference_on_paper_network(name):
    (spec,) = [spec for spec in paper_dataset_specs(42, 0.1) if spec.name == name]
    anonymizer, stats = assert_freeze_matches_reference(
        generate_network(spec).configs, plugins=()
    )
    assert len(anonymizer.ip_map.shaping) > stats.addresses // 4


def test_freeze_matches_reference_on_dualstack_corpus():
    fixture = Path(__file__).parent / "data" / "dualstack_eos" / "configs.json"
    configs = json.loads(fixture.read_text())
    anonymizer, stats = assert_freeze_matches_reference(configs, ["blobs", "eos", "ipv6"])
    assert stats.ipv6_addresses > 0 and anonymizer.ip6_map.shaping


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
    """Values with 0 to 12 (or any number of) trailing zeros forced, so
    subnet addresses with every zero count meet in one sort; half from
    the upper half of the space, which plain integer draws seldom reach."""
    top = 1 << bits
    return st.builds(
        lambda value, zeros: value >> zeros << zeros,
        st.integers(0, top - 1) | st.integers(top >> 1, top - 1),
        st.integers(0, 12) | st.integers(0, bits),
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
    assert_freeze_matches_reference(configs, plugins)


# -- the map alone ----------------------------------------------------------


@pytest.mark.parametrize(
    "make, bits", [(PrefixPreservingMap, 32), (Prefix6PreservingMap, 128)], ids=["v4", "v6"]
)
@settings(max_examples=_examples(60), deadline=None)
@given(data=st.data(), shaping=st.booleans(), specials=st.booleans())
def test_trie_matches_reference_walk(make, bits, data, shaping, specials):
    options = {"subnet_shaping": shaping, "preserve_specials": specials}
    if make is PrefixPreservingMap:
        options["class_preserving"] = data.draw(st.booleans())
    ip_map = make(b"trie", **options)
    values = data.draw(st.lists(_with_zero_tail(bits), max_size=40))
    ip_map.freeze(values)
    assert_pins_match(ip_map, values)
