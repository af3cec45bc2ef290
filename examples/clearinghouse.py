#!/usr/bin/env python
"""The Section 7 single-blind clearinghouse, end to end.

An owner anonymizes their network, uploads through the portal's acceptance
gate (which independently re-runs the leak scanner), a researcher fetches
the data, reconstructs the topology, and sends a comment back through the
blinding function — neither party ever learns the other's identity.

Run:  python examples/clearinghouse.py
"""

from repro.configmodel import ParsedNetwork
from repro.core import Anonymizer
from repro.iosgen import NetworkSpec, generate_network
from repro.portal import Clearinghouse


def main() -> None:
    portal = Clearinghouse(portal_secret=b"the-portal-operator-secret")

    # --- the owner's side (identity: Initech Corp — never told to anyone)
    spec = NetworkSpec(name="initech-wan", kind="enterprise", seed=1234,
                       num_pops=3, igp="ospf", lans_per_access=(3, 7))
    network = generate_network(spec)
    anonymizer = Anonymizer(salt=b"initech-owner-secret")
    result = anonymizer.anonymize_network(dict(network.configs))

    owner = portal.register_owner("initech-registration-token")
    print("owner registered under blind handle:", owner)

    receipt = portal.upload(owner, anonymizer, result.configs,
                            description="mid-size enterprise, OSPF+BGP")
    print("upload accepted:", receipt.accepted, "->", receipt.dataset_id)

    # A malicious/mistaken upload is caught by the gate:
    tampered = dict(result.configs)
    victim = sorted(tampered)[0]
    leaked = next(iter(anonymizer.report.seen_asns))
    tampered[victim] += "\nrouter bgp {}\n".format(leaked)
    bad = portal.upload(owner, anonymizer, tampered)
    print("tampered upload accepted:", bad.accepted, "-", bad.reason)

    # --- the researcher's side
    researcher = portal.register_researcher("alice@university")
    print("\nresearcher registered under blind handle:", researcher)
    print("catalog:", portal.catalog())

    configs = portal.fetch(researcher, receipt.dataset_id)
    parsed = ParsedNetwork.from_configs(configs)
    print("reconstructed topology: {} routers, {} adjacencies, {} subnets".format(
        len(parsed.routers), len(parsed.adjacencies()), len(parsed.subnets())))
    print("BGP speakers:", len(parsed.bgp_speakers()))

    portal.comment(researcher, receipt.dataset_id,
                   "Your OSPF area 2 has a single point of failure at its ABR.")

    # --- the owner checks their blind inbox
    print("\nowner inbox:")
    for message in portal.inbox(owner):
        print("  [{} via {}] {}".format(
            message.dataset_id, message.researcher_handle, message.text))


if __name__ == "__main__":
    main()
