#!/usr/bin/env python
"""Longitudinal anonymization: consistent uploads across time.

The clearinghouse vision (Section 7) implies repeated uploads: an owner
shares configs today and again after the next maintenance window, and
researchers need the two snapshots to be *comparable* — the same router,
subnet, or peer must carry the same anonymized identity in both.

Every mapping is keyed off the salt (ASNs, hashes, the IP maps' flip
bits), so it is stable by construction — save the IP maps' subnet-shaping
sets, which day 1's freeze fixes from day 1's subnet addresses.  Day 30
must shape with the same sets, or a day-1 address below a subnet first
seen on day 30 could map differently; so `repro.core.state` carries them
between sessions, and a subnet first seen on day 30 is not shaped.

Run:  python examples/longitudinal.py
"""

import re
import tempfile
from pathlib import Path

from repro.core import Anonymizer
from repro.core.state import load_state, save_state
from repro.iosgen import NetworkSpec, generate_network
from repro.netutil import trailing_zero_bits

SALT = b"acme-owner-secret"


def day1_configs() -> dict:
    """The initial network."""
    spec = NetworkSpec(name="acme", kind="enterprise", seed=77,
                       num_pops=2, lans_per_access=(2, 4))
    return dict(generate_network(spec).configs)


def day30_configs(day1: dict) -> dict:
    """The same network, evolved: one existing router gained an
    interface, and a brand-new router appeared with a new subnet;
    everything else is untouched."""
    configs = dict(day1)
    grown = sorted(configs)[0]
    configs[grown] += (
        "interface FastEthernet3/0\n"
        " ip address 10.99.1.1 255.255.255.0\n!\n"
    )
    configs["new-rtr.acme"] = (
        "hostname new-rtr.acme\n"
        "interface Loopback0\n ip address 10.99.0.1 255.255.255.255\n"
        "router ospf 100\n network 10.99.0.1 0.0.0.0 area 2\n"
        " network 10.99.1.0 0.0.0.255 area 2\n"
    )
    return configs


def run_two_days(state_path: Path, day1: dict, day30: dict):
    """Anonymize *day1* and save its state; then load it and anonymize
    *day30*.  Returns both anonymizers and both results."""
    first = Anonymizer(salt=SALT)
    result1 = first.anonymize_network(dict(day1))
    save_state(first, str(state_path))
    second = Anonymizer(salt=SALT)
    load_state(second, str(state_path))
    result30 = second.anonymize_network(dict(day30))
    save_state(second, str(state_path))
    return first, result1, second, result30


def unshaped_subnets(anonymizer: Anonymizer, configs: dict) -> list:
    """Subnet addresses in *configs* outside the anonymizer's (fixed)
    IPv4 shaping set: they map like any host address."""
    ip_map = anonymizer.ip_map
    words = set()
    for text in configs.values():
        words.update(text.split())
    return sorted(
        value
        for value in anonymizer._scan_addresses(words)
        if trailing_zero_bits(value) >= ip_map.subnet_shaping_min_zeros
        and value not in ip_map.specials
        and value not in ip_map.shaping
    )


def main() -> None:
    state_path = Path(tempfile.mkdtemp()) / "acme-mapping-state.json"
    day1 = day1_configs()
    day30 = day30_configs(day1)
    _, result1, anonymizer2, result30 = run_two_days(state_path, day1, day30)
    print("day 1: anonymized {} routers, state saved ({} KB)".format(
        len(result1.configs), state_path.stat().st_size // 1024))

    # ---- the consistency check the researcher depends on ------------
    # Routers present on both days must have byte-identical anonymized
    # names, and their shared addresses identical anonymized values.
    common = sorted(set(day1) & set(day30))
    stable_names = sum(
        1 for name in common
        if result1.name_map[name] == result30.name_map[name]
    )
    print("day 30: {} routers ({} carried over)".format(
        len(result30.configs), len(common)))
    print("stable anonymized hostnames: {}/{}".format(stable_names, len(common)))

    def loopback_of(configs, name):
        text = configs[name]
        match = re.search(r"ip address (\S+) 255.255.255.255", text)
        return match.group(1) if match else None

    stable_loopbacks = 0
    for name in common:
        a = loopback_of(result1.configs, result1.name_map[name])
        b = loopback_of(result30.configs, result30.name_map[name])
        if a is not None and a == b:
            stable_loopbacks += 1
    print("stable anonymized loopbacks: {}/{}".format(stable_loopbacks, len(common)))
    unshaped = unshaped_subnets(anonymizer2, day30)
    print("day-30 subnet addresses outside day 1's shaping set: {}".format(
        len(unshaped)))
    print("\nWithout the state file, day 30 would fix its own shaping set,")
    print("and a day-1 address below a subnet first seen on day 30 could")
    print("map differently; the state file removes that risk entirely.")


if __name__ == "__main__":
    main()
