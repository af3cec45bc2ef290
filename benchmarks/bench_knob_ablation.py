"""E21 (extension) — ablation of the paper's IP-mapping extensions.

Section 4.3 argues the stored-trie scheme was chosen because it can be
shaped: class preservation keeps classful commands (RIP/EIGRP ``network``)
meaningful, and subnet shaping keeps output readable.  This experiment
turns each knob off and measures what actually breaks — the empirical
justification for the paper's design choices.
"""

from _tables import report

from repro.configmodel import ParsedNetwork
from repro.core import Anonymizer, AnonymizerConfig
from repro.core.ipanon import PrefixPreservingMap
from repro.iosgen import NetworkSpec, generate_network
from repro.netutil import ip_to_int, trailing_zero_bits
from repro.validation import compare_characteristics, compare_designs


def _rip_network():
    return generate_network(
        NetworkSpec(
            name="ablation-rip", kind="enterprise", seed=55, num_pops=3,
            igp="rip", lans_per_access=(2, 5), static_burst=(0, 4),
        )
    )


def _suites(network, salt=b"ablate", **config_kwargs):
    anonymizer = Anonymizer(AnonymizerConfig(salt=salt, **config_kwargs))
    result = anonymizer.anonymize_network(dict(network.configs))
    pre = ParsedNetwork.from_configs(network.configs)
    post = ParsedNetwork.from_configs(result.configs)
    return (
        compare_characteristics(pre, post).passed,
        compare_designs(pre, post).passed,
    )


def _class_changing_salt():
    """A salt under which disabling class preservation actually moves the
    10/8 block out of class A (the flip draws are salt-dependent, so the
    demonstration must pick a salt where the coin lands on 'change')."""
    from repro.netutil import address_class

    for index in range(64):
        salt = "ablate-{}".format(index).encode()
        probe = PrefixPreservingMap(salt, class_preserving=False)
        if address_class(probe.map_int(0x0A000001)) != "A":
            return salt
    raise AssertionError("no class-changing salt found in 64 tries")


def test_knob_ablation(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    network = _rip_network()

    baseline = _suites(network)
    no_class = _suites(network, salt=_class_changing_salt(), class_preserving=False)
    no_shaping = _suites(network, subnet_shaping=False)

    # Subnet shaping success rate with and without the knob (measured on
    # a fresh map frozen over the subnet addresses).
    def shaping_rate(enabled):
        mapping = PrefixPreservingMap(b"ablate-shape", subnet_shaping=enabled)
        bases = [ip_to_int("10.{}.{}.0".format(i, j)) for i in range(1, 11)
                 for j in range(0, 250, 25)]
        mapping.freeze(bases)
        shaped = sum(trailing_zero_bits(mapping.map_int(b)) >= 8 for b in bases)
        return shaped, len(bases)

    shaped_on, total = shaping_rate(True)
    shaped_off, _ = shaping_rate(False)

    rows = [
        ("baseline: suites 1+2 pass", "(the paper's config)",
         "yes" if all(baseline) else "NO", ""),
        ("class preservation OFF: suites pass", "classful commands break",
         "suite1={} suite2={}".format(*no_class),
         "RIP `network` coverage is lost exactly as §4.3 warns"),
        ("subnet shaping OFF: suites pass", "readability only",
         "suite1={} suite2={}".format(*no_shaping),
         "semantics survive; §4.3 calls shaping a readability aid"),
        ("subnet addresses shaped (knob on)", "always (in the shaping set)",
         "{}/{}".format(shaped_on, total), ""),
        ("subnet addresses shaped (knob off)", "rarely",
         "{}/{}".format(shaped_off, total), "random tails"),
    ]
    report("E21", "ablation of the Section 4.3 mapping extensions", rows)

    assert all(baseline)
    # Class preservation is load-bearing for classful designs:
    assert not all(no_class)
    # Subnet shaping is cosmetic: everything still validates without it.
    assert all(no_shaping)
    assert shaped_on == total
    assert shaped_off < total // 2
