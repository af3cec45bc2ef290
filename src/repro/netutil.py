"""Small IPv4 utility functions shared across the library.

Deliberately integer-based (an IPv4 address is a 32-bit int everywhere
internally); strings only appear at the parse/format boundary.  Also
home to :func:`looks_like_junos`, the syntax sniff both the engine and
the config-model parsers use, so the engine need not import
:mod:`repro.configmodel` for it.
"""

from __future__ import annotations

import ipaddress as _ipaddress
import re
from typing import Optional, Tuple

_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

IPV4_MAX = 0xFFFFFFFF


def ip_to_int(text: str) -> int:
    """Parse a dotted quad into a 32-bit integer; raises ValueError."""
    match = _DOTTED_QUAD.match(text)
    if not match:
        raise ValueError("not a dotted quad: {!r}".format(text))
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise ValueError("octet out of range in {!r}".format(text))
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format a 32-bit integer as a dotted quad."""
    if not 0 <= value <= IPV4_MAX:
        raise ValueError("not a 32-bit address: {!r}".format(value))
    return "{}.{}.{}.{}".format(
        (value >> 24) & 0xFF, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF
    )


def is_ipv4(text: str) -> bool:
    """Whether *text* is a syntactically valid dotted quad."""
    try:
        ip_to_int(text)
    except ValueError:
        return False
    return True


def parse_prefix(text: str) -> Tuple[int, int]:
    """Parse ``a.b.c.d/len`` into ``(address_int, prefix_len)``."""
    addr_text, _, len_text = text.partition("/")
    if not len_text:
        raise ValueError("missing /len in {!r}".format(text))
    prefix_len = int(len_text)
    if not 0 <= prefix_len <= 32:
        raise ValueError("bad prefix length in {!r}".format(text))
    return ip_to_int(addr_text), prefix_len


def format_prefix(addr: int, prefix_len: int) -> str:
    return "{}/{}".format(int_to_ip(addr), prefix_len)


def mask_for_len(prefix_len: int) -> int:
    """Contiguous netmask for a prefix length (0 -> 0, 32 -> all ones)."""
    if not 0 <= prefix_len <= 32:
        raise ValueError("bad prefix length {!r}".format(prefix_len))
    if prefix_len == 0:
        return 0
    return (IPV4_MAX << (32 - prefix_len)) & IPV4_MAX


#: The 33 contiguous netmasks, inverted (mask -> prefix length).
_MASK_TO_LEN = {
    ((IPV4_MAX << (32 - n)) & IPV4_MAX if n else 0): n for n in range(33)
}


def mask_to_len(mask: int) -> Optional[int]:
    """Prefix length of a contiguous netmask, or None if non-contiguous."""
    return _MASK_TO_LEN.get(mask)


def wildcard_to_len(wildcard: int) -> Optional[int]:
    """Prefix length implied by a contiguous inverse (wildcard) mask."""
    return mask_to_len(wildcard ^ IPV4_MAX)


def trailing_zero_bits(value: int, width: int = 32) -> int:
    """Number of trailing zero bits in a *width*-bit value (*width* for zero)."""
    if value == 0:
        return width
    # The lowest set bit isolated; its bit position is the zero count.
    return (value & -value).bit_length() - 1


def address_class(value: int) -> str:
    """Classful class of an address: 'A', 'B', 'C', 'D' (multicast), 'E'."""
    top = (value >> 28) & 0xF
    if top < 0x8:
        return "A"
    if top < 0xC:
        return "B"
    if top < 0xE:
        return "C"
    if top < 0xF:
        return "D"
    return "E"


def classful_prefix_len(value: int) -> int:
    """The implicit prefix length classful protocols (RIP v1) assume."""
    cls = address_class(value)
    return {"A": 8, "B": 16, "C": 24}.get(cls, 32)


def network_address(addr: int, prefix_len: int) -> int:
    return addr & mask_for_len(prefix_len)


def is_private_rfc1918(value: int) -> bool:
    """Whether the address falls in 10/8, 172.16/12, or 192.168/16."""
    return (
        (value >> 24) == 10
        or (value >> 20) == (172 << 4 | 1)  # 172.16.0.0/12
        or (value >> 16) == (192 << 8 | 168)
    )


# -- IPv6 ------------------------------------------------------------------
#
# Same shape as the IPv4 helpers above: an IPv6 address is a 128-bit int
# everywhere internally; RFC 4291 text only appears at the parse/format
# boundary.  Formatting is RFC 5952 canonical (lowercase hex, longest
# zero run compressed), delegated to the stdlib ``ipaddress`` module.

IPV6_MAX = (1 << 128) - 1

#: Necessary syntactic condition for IPv6 text: either a ``::`` or two
#: hex groups joined by a colon with a trailing colon after the second
#: (``h:h:``).  BGP communities like ``65000:100`` have no trailing
#: colon, so ordinary IOS lines do not match.
_IPV6_HINT = re.compile(r"::|[0-9A-Fa-f]{1,4}:[0-9A-Fa-f]{1,4}:")


def ip6_to_int(text: str) -> int:
    """Parse IPv6 text into a 128-bit integer; raises ValueError."""
    try:
        return int(_ipaddress.IPv6Address(text))
    except _ipaddress.AddressValueError as exc:
        raise ValueError(str(exc)) from None


def int_to_ip6(value: int) -> str:
    """Format a 128-bit integer as RFC 5952 canonical IPv6 text."""
    if not 0 <= value <= IPV6_MAX:
        raise ValueError("not a 128-bit address: {!r}".format(value))
    return str(_ipaddress.IPv6Address(value))


def is_ipv6(text: str) -> bool:
    """Whether *text* is syntactically valid IPv6 (no /len, no zone)."""
    if "%" in text or not _IPV6_HINT.search(text):
        return False
    try:
        _ipaddress.IPv6Address(text)
    except (ValueError, _ipaddress.AddressValueError):
        return False
    return True


def parse_prefix6(text: str) -> Tuple[int, int]:
    """Parse ``addr/len`` IPv6 notation into ``(address_int, prefix_len)``."""
    addr_text, _, len_text = text.partition("/")
    if not len_text:
        raise ValueError("missing /len in {!r}".format(text))
    prefix_len = int(len_text)
    if not 0 <= prefix_len <= 128:
        raise ValueError("bad prefix length in {!r}".format(text))
    return ip6_to_int(addr_text), prefix_len


def looks_like_junos(text: str) -> bool:
    """Cheap syntax sniff used to pick a parser automatically."""
    head = text[:2000]
    return bool(re.search(r"^\s*(system|interfaces)\s*\{", head, re.M)) or (
        head.count("{") >= 3 and ";" in head
    )
