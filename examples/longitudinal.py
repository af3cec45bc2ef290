#!/usr/bin/env python
"""Longitudinal anonymization: consistent uploads across time.

The clearinghouse vision (Section 7) implies repeated uploads: an owner
shares configs today and again after the next maintenance window, and
researchers need the two snapshots to be *comparable* — the same router,
subnet, or peer must carry the same anonymized identity in both.

Everything keyed purely off the salt (ASNs, hashes) is automatically
stable; the IP trie also depends on insertion order, so it is persisted
with `repro.core.state` between sessions.

Run:  python examples/longitudinal.py
"""

import json
import tempfile
from pathlib import Path

from repro.core import Anonymizer
from repro.core.state import load_state, save_state
from repro.iosgen import NetworkSpec, generate_network


def main() -> None:
    state_path = Path(tempfile.mkdtemp()) / "acme-mapping-state.json"
    salt = b"acme-owner-secret"

    # ---- day 1: initial network -------------------------------------
    day1_spec = NetworkSpec(name="acme", kind="enterprise", seed=77,
                            num_pops=2, lans_per_access=(2, 4))
    day1 = generate_network(day1_spec)
    anonymizer = Anonymizer(salt=salt)
    result1 = anonymizer.anonymize_network(dict(day1.configs))
    save_state(anonymizer, str(state_path))
    print("day 1: anonymized {} routers, state saved ({} KB)".format(
        len(result1.configs), state_path.stat().st_size // 1024))

    # ---- day 30: the same network, evolved --------------------------
    # One existing router gained an interface, and a brand-new router
    # appeared; everything else is untouched.
    day30_configs = dict(day1.configs)
    grown = sorted(day30_configs)[0]
    day30_configs[grown] += (
        "interface FastEthernet3/0\n"
        " ip address 10.99.1.1 255.255.255.0\n!\n"
    )
    day30_configs["new-rtr.acme"] = (
        "hostname new-rtr.acme\n"
        "interface Loopback0\n ip address 10.99.0.1 255.255.255.255\n"
        "router ospf 100\n network 10.99.0.1 0.0.0.0 area 2\n"
    )
    anonymizer2 = Anonymizer(salt=salt)
    load_state(anonymizer2, str(state_path))
    result30 = anonymizer2.anonymize_network(dict(day30_configs))
    save_state(anonymizer2, str(state_path))
    day30 = type("D", (), {"configs": day30_configs})()

    # ---- the consistency check the researcher depends on ------------
    # Routers present on both days must have byte-identical anonymized
    # names, and their shared addresses identical anonymized values.
    common = sorted(set(day1.configs) & set(day30.configs))
    stable_names = sum(
        1 for name in common
        if result1.name_map[name] == result30.name_map[name]
    )
    print("day 30: {} routers ({} carried over)".format(
        len(result30.configs), len(common)))
    print("stable anonymized hostnames: {}/{}".format(stable_names, len(common)))

    import re

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
    print("\nWithout --state-file both runs would still share ASN/hash maps")
    print("(salt-derived) but the IP trie could diverge on new-vs-old")
    print("insertion orders; the state file removes that risk entirely.")


if __name__ == "__main__":
    main()
