"""Parser for JunOS-style hierarchical configurations -> ParsedRouter.

Walks the brace structure into (path, statement) pairs and maps the
statements onto the same :class:`~repro.configmodel.model.ParsedRouter`
model the IOS parser produces, so the validation suites and design
extraction run unchanged over either vendor's configs.

OSPF/RIP interface references are resolved to the referenced interface's
subnet so the design extractor's coverage logic (built around IOS
``network`` statements) sees equivalent (base, wildcard, area) tuples.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple

from repro.configmodel.model import (
    ParsedAsPathAcl,
    ParsedBgp,
    ParsedBgpNeighbor,
    ParsedCommunityList,
    ParsedIgp,
    ParsedInterface,
    ParsedPrefixList,
    ParsedRouteMapClause,
    ParsedRouter,
    ParsedStaticRoute,
)
from repro.netutil import ip_to_int, is_ipv4, looks_like_junos, parse_prefix

Statement = Tuple[Tuple[str, ...], str]


def iter_statements(text: str) -> Iterator[Statement]:
    """Yield (context_path, statement) for every terminal statement."""
    path: List[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("/*"):
            continue
        # Strip trailing annotations/comments.
        line = re.sub(r"\s*##.*$", "", line)
        if line.endswith("{"):
            path.append(line[:-1].strip())
            continue
        if line == "}":
            if path:
                path.pop()
            continue
        if line.endswith(";"):
            yield tuple(path), line[:-1].strip()


def parse_junos_config(text: str) -> ParsedRouter:
    router = ParsedRouter()
    bgp_asn: Optional[int] = None
    bgp = ParsedBgp(asn=0)
    has_bgp = False
    ospf_terms: List[Tuple[str, str, bool]] = []  # (area, ifl, passive)
    rip_neighbors: List[str] = []
    statics: List[Tuple[int, int, str]] = []

    group_peer_as: dict = {}
    current_clause_index: dict = {}
    pending_descriptions: dict = {}

    for path, statement in iter_statements(text):
        words = statement.split()
        if not words:
            continue
        head = words[0]

        if path[:1] == ("system",):
            if head == "host-name" and len(words) > 1:
                router.hostname = words[1]
            elif head == "domain-name" and len(words) > 1:
                router.domain_name = words[1]
            elif len(path) >= 2 and path[1].startswith("login") and path[-1].startswith("user "):
                pass  # statements inside a user block handled below
            elif head == "server" and path[-1] == "ntp" and is_ipv4(words[1]):
                router.ntp_servers.append(ip_to_int(words[1]))

        if len(path) >= 2 and path[0] == "system":
            for element in path:
                if element.startswith("user "):
                    user = element.split()[1]
                    if user not in router.usernames:
                        router.usernames.append(user)
                if element.startswith("host ") and "syslog" in path:
                    host = element.split()[1]
                    if is_ipv4(host):
                        value = ip_to_int(host)
                        if value not in router.logging_hosts:
                            router.logging_hosts.append(value)

        if path[:1] == ("interfaces",) and head == "address" and len(path) >= 3:
            ifd = path[1].split()[0]
            unit = path[2].split()[1] if path[2].startswith("unit") else "0"
            name = "{}.{}".format(ifd, unit)
            try:
                address, length = parse_prefix(words[1])
            except ValueError:
                continue
            interface = router.interfaces.setdefault(name, ParsedInterface(name=name))
            interface.address = address
            interface.prefix_len = length
        elif path[:1] == ("interfaces",) and head == "description" and len(path) >= 2:
            ifd = path[1].split()[0]
            pending_descriptions[ifd] = statement.split(None, 1)[1].strip('"')

        elif path[:1] == ("routing-options",):
            if head == "autonomous-system" and words[1].isdigit():
                bgp_asn = int(words[1])
            elif head == "router-id" and is_ipv4(words[1]):
                bgp.router_id = ip_to_int(words[1])
            elif head == "route" and len(path) >= 2 and path[1] == "static":
                try:
                    prefix, length = parse_prefix(words[1])
                except ValueError:
                    continue
                target = "Null0"
                if "next-hop" in words:
                    target = words[words.index("next-hop") + 1]
                elif "discard" in words:
                    target = "Null0"
                statics.append((prefix, length, target))

        elif path[:2] == ("protocols", "bgp") or (
            len(path) >= 2 and path[0] == "protocols" and path[1] == "bgp"
        ):
            has_bgp = True
            group = path[2].split()[1] if len(path) >= 3 and path[2].startswith("group") else None
            if head == "peer-as" and group and words[1].isdigit():
                group_peer_as[group] = int(words[1])
            elif head == "neighbor" and len(words) >= 2:
                peer = words[1]
                neighbor = bgp.neighbors.setdefault(peer, ParsedBgpNeighbor(address=peer))
                neighbor.remote_as = group_peer_as.get(group)
            elif head in ("import", "export", "authentication-key") and len(path) >= 4:
                neighbor_element = path[3]
                if neighbor_element.startswith("neighbor "):
                    peer = neighbor_element.split()[1]
                    neighbor = bgp.neighbors.setdefault(
                        peer, ParsedBgpNeighbor(address=peer)
                    )
                    neighbor.remote_as = group_peer_as.get(group)
                    if head == "import":
                        neighbor.route_map_in = words[1]
                    elif head == "export":
                        neighbor.route_map_out = words[1]
                    else:
                        neighbor.has_password = True
            elif head == "type" and group:
                pass

        elif path[:2] == ("protocols", "ospf"):
            if len(path) >= 3 and path[2].startswith("area"):
                area = path[2].split()[1].split(".")[-1]
                if head == "interface" and len(words) >= 2:
                    ospf_terms.append((area, words[1], False))
                elif head == "passive" and len(path) >= 4 and path[3].startswith("interface"):
                    ospf_terms.append((area, path[3].split()[1], True))

        elif path[:2] == ("protocols", "rip"):
            if head == "neighbor" and len(words) >= 2:
                rip_neighbors.append(words[1])

        elif path[:1] == ("policy-options",):
            _parse_policy_statement(
                router, path, statement, words, current_clause_index
            )

        elif path[:1] == ("snmp",):
            for element in path:
                if element.startswith("community "):
                    community = element.split()[1]
                    if community not in router.snmp_communities:
                        router.snmp_communities.append(community)

    # Attach buffered descriptions to real interfaces (never create one
    # from a description alone — pre/post interface counts must agree).
    for ifd, description in pending_descriptions.items():
        for name in sorted(router.interfaces):
            if name.split(".")[0] == ifd:
                router.interfaces[name].description = description
                break

    # Resolve IGP interface references into coverage tuples.
    def subnet_tuple(ifl: str, area):
        interface = router.interfaces.get(ifl)
        if interface is None or interface.address is None:
            return None
        length = interface.prefix_len or 32
        wildcard = (0xFFFFFFFF >> length) if length else 0xFFFFFFFF
        base = interface.address & ((~wildcard) & 0xFFFFFFFF)
        return (base, wildcard, area)

    if ospf_terms:
        igp = ParsedIgp(protocol="ospf", process_id=0)
        seen_passive = set()
        for area, ifl, passive in ospf_terms:
            entry = subnet_tuple(ifl, area)
            if entry is not None:
                igp.networks.append(entry)
            if passive and ifl not in seen_passive:
                seen_passive.add(ifl)
                igp.passive_interfaces.append(ifl)
        router.igps.append(igp)
    if rip_neighbors:
        igp = ParsedIgp(protocol="rip")
        for ifl in rip_neighbors:
            entry = subnet_tuple(ifl, None)
            if entry is not None:
                igp.networks.append(entry)
        router.igps.append(igp)

    for prefix, length, target in statics:
        router.static_routes.append(ParsedStaticRoute(prefix, length, target))

    if has_bgp or bgp_asn is not None:
        bgp.asn = bgp_asn or 0
        # peer-as statements may arrive after neighbors; re-resolve.
        router.bgp = bgp
    return router


def _parse_policy_statement(router, path, statement, words, clause_index) -> None:
    head = words[0]
    if head == "as-path" and len(words) >= 3:
        name = words[1]
        regex = statement.split(None, 2)[2].strip('"')
        router.aspath_acls.append(ParsedAsPathAcl(name, "permit", regex))
        return
    if head == "community" and "members" in words:
        name = words[1]
        body = statement.split("members", 1)[1].strip()
        expanded = body.startswith('"')
        body = body.strip('"').strip("[] ").strip()
        router.community_lists.append(
            ParsedCommunityList(name, "permit", body, expanded)
        )
        return
    if path[-1].startswith("prefix-list") and "/" in head:
        name = path[-1].split()[1]
        try:
            prefix, length = parse_prefix(head)
        except ValueError:
            return
        router.prefix_lists.append(
            ParsedPrefixList(name, None, "permit", prefix, length)
        )
        return

    # Inside a policy-statement term.
    statement_name = None
    term_name = None
    for element in path:
        if element.startswith("policy-statement "):
            statement_name = element.split()[1]
        elif element.startswith("term "):
            term_name = element.split()[1]
    if statement_name is None:
        return
    key = (statement_name, term_name)
    if key not in clause_index:
        clause = ParsedRouteMapClause(
            name=statement_name,
            action="permit",
            sequence=len([k for k in clause_index if k[0] == statement_name]) * 10 + 10,
        )
        clause_index[key] = clause
        router.route_maps.append(clause)
    clause = clause_index[key]
    if path[-1] == "from":
        clause.matches.append(statement)
    elif path[-1] == "then" or (len(path) >= 1 and path[-1].startswith("term")):
        if statement == "reject":
            clause.action = "deny"
        elif statement == "accept":
            pass
        else:
            clause.sets.append(statement)
