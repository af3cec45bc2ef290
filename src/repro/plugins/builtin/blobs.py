"""Opaque credential blobs (family ``blobs``, rules B*).

Certificates, SSH public keys, and SNMPv3 user credentials are
privileged material the paper's per-line rules cannot express: PEM
certificates and IOS ``crypto pki`` chains span many lines, and a
half-recognized blob must *never* leak its remainder.  This family
contributes:

* **B1** — a multi-line block filter replacing complete PEM blocks
  (``-----BEGIN X-----`` .. ``-----END X-----``) and IOS certificate hex
  blobs (``certificate ...`` + hex lines + ``quit``) with one salted
  digest placeholder line.  An *unterminated* block fails closed: every
  remaining line is swallowed into a partial-blob placeholder and the
  file is flagged for review.
* **B2** — single-line SSH public keys (``ssh-rsa AAAA...``): the key
  material and the trailing ``user@host`` comment are hashed.
* **B3** — SNMPv3 users: ``snmp-server user`` names and ``auth``/
  ``priv`` passphrases are hashed, the algorithm keywords kept.
"""

from __future__ import annotations

import hashlib
import re

from repro.core.rulebase import Rule
from repro.plugins.base import FinalLine, RecognizerPlugin

#: IOS certificate-chain blob: a `certificate ...` header followed by
#: lines of 2+ eight-hex-digit groups, terminated by a bare `quit`.
CERT_HEADER_RE = re.compile(r"^\s*certificate\s+\S", re.IGNORECASE)
HEX_BLOB_RE = re.compile(r"^\s*(?:[0-9A-Fa-f]{8}\s+){1,}[0-9A-Fa-f]{2,8}\s*$")

SSH_KEY_RE = re.compile(
    r"\b(ssh-(?:rsa|dss|ed25519)|ecdsa-sha2-[0-9a-z-]+)( )([A-Za-z0-9+/=]{16,})"
    r"( \S+)?"
)

SNMP_USER_RE = re.compile(
    r"(\bsnmp-server user )(\S+)( )(\S+)( v3)?", re.IGNORECASE
)
AUTH_PRIV_RE = re.compile(
    r"(\b(?:auth (?:md5|sha2?) |priv (?:des|3des|aes(?: \d+)? ))\s*)(\S+)",
    re.IGNORECASE,
)


#: ``certificate`` under :data:`CERT_HEADER_RE`'s own case rules, which
#: also match ``i`` with ``ı`` (U+0131) and ``İ`` (U+0130).
CERT_WORD_RE = re.compile(r"certificate", re.IGNORECASE)


def _may_hold_block(text: str) -> bool:
    """False only when *text* can start no B1 block: it holds neither
    ``-----BEGIN `` nor, in any case, ``certificate``."""
    if "-----BEGIN " in text:
        return True
    if text.isascii():
        # On ASCII text str.lower() folds exactly as the IGNORECASE
        # regex does, and a substring scan is far cheaper than a search.
        return "certificate" in text.lower()
    return CERT_WORD_RE.search(text) is not None


def _digest(salt: bytes, lines) -> str:
    payload = "\n".join(lines).encode("utf-8", "backslashreplace")
    return hashlib.sha256(salt + payload).hexdigest()[:16]


class BlobBlockFilter:
    """The multi-line pre-pass behind rule B1 (see module docstring)."""

    def __call__(self, lines, ctx):
        # Every block starts on a line holding "-----BEGIN " or, in any
        # case, "certificate".  Most files hold neither: a few C-level
        # scans of the joined file return them untouched, instead of a
        # Python loop over every line.
        if not _may_hold_block("\n".join(lines)):
            return lines
        out = []
        salt = ctx.config.salt
        report = ctx.report
        i = 0
        total = len(lines)
        while i < total:
            line = lines[i]
            indent = line[: len(line) - len(line.lstrip())]
            if "-----BEGIN " in line:
                j = i + 1
                while j < total and "-----END " not in lines[j]:
                    j += 1
                if j >= total:
                    out.append(
                        FinalLine(
                            "{}! REPRO-BLOB-PARTIAL {}".format(
                                indent, _digest(salt, lines[i:])
                            )
                        )
                    )
                    report.record_rule_hit("B1")
                    report.lines_failed_closed += 1
                    report.flag(
                        ctx.source,
                        i + 1,
                        "B1",
                        "unterminated PEM block; remainder of file "
                        "replaced by fail-closed placeholder",
                    )
                    i = total
                else:
                    out.append(
                        FinalLine(
                            "{}! REPRO-PEM-BLOB {}".format(
                                indent, _digest(salt, lines[i : j + 1])
                            )
                        )
                    )
                    report.record_rule_hit("B1")
                    i = j + 1
                continue
            if (
                CERT_HEADER_RE.match(line)
                and i + 1 < total
                and HEX_BLOB_RE.match(lines[i + 1])
            ):
                j = i + 1
                while j < total and HEX_BLOB_RE.match(lines[j]):
                    j += 1
                if j < total and lines[j].strip() == "quit":
                    out.append(
                        FinalLine(
                            "{}! REPRO-CERT-BLOB {}".format(
                                indent, _digest(salt, lines[i : j + 1])
                            )
                        )
                    )
                    report.record_rule_hit("B1")
                    i = j + 1
                else:
                    # Hex blob without its `quit` terminator: fail closed
                    # on the partial block rather than trust its shape.
                    out.append(
                        FinalLine(
                            "{}! REPRO-BLOB-PARTIAL {}".format(
                                indent, _digest(salt, lines[i:j])
                            )
                        )
                    )
                    report.record_rule_hit("B1")
                    report.lines_failed_closed += 1
                    report.flag(
                        ctx.source,
                        i + 1,
                        "B1",
                        "certificate hex blob without quit terminator "
                        "replaced by fail-closed placeholder",
                    )
                    i = j
                continue
            out.append(line)
            i += 1
        return out


def _apply_ssh_key(line, ctx):
    def handler(match):
        pieces = [
            (match.group(1), True),
            (match.group(2), True),
            (ctx.hash_secret(match.group(3)), True),
        ]
        comment = match.group(4)
        if comment:
            pieces.append((" ", True))
            pieces.append((ctx.hash_secret(comment[1:]), True))
        return pieces

    return line.apply_rule(SSH_KEY_RE, handler)


def _apply_snmp_user(line, ctx):
    def user_handler(match):
        pieces = [
            (match.group(1), True),
            (ctx.hash_secret(match.group(2)), True),
            (match.group(3), True),
            (ctx.hash_secret(match.group(4)), True),
        ]
        if match.group(5):
            # Freeze the version keyword: "v3" segments as the alpha run
            # "v", which is not on the pass-list and would be hashed.
            pieces.append((match.group(5), True))
        return pieces

    def secret_handler(match):
        return [(match.group(1), True), (ctx.hash_secret(match.group(2)), True)]

    hits = line.apply_rule(SNMP_USER_RE, user_handler)
    if hits:
        hits += line.apply_rule(AUTH_PRIV_RE, secret_handler)
    return hits


class BlobsPlugin(RecognizerPlugin):
    family = "blobs"
    rule_prefix = "B"
    description = (
        "Certificate / SSH-key / SNMPv3 opaque-blob recognizers, "
        "multi-line aware, fail-closed on partial matches."
    )

    def build_rules(self):
        return [
            Rule(
                "B1",
                "certificate-blobs",
                "secret",
                "PEM blocks and IOS `crypto pki` certificate hex blobs "
                "are replaced by one salted-digest placeholder line; an "
                "unterminated block fails closed (placeholder + flag). "
                "Realized by a multi-line block filter, not a line rule.",
                None,
                trigger=None,
            ),
            Rule(
                "B2",
                "ssh-public-keys",
                "secret",
                "SSH public key material (ssh-rsa/ssh-ed25519/ecdsa-*) "
                "and its user@host comment are hashed.",
                _apply_ssh_key,
                trigger=("ssh-rsa", "ssh-dss", "ssh-ed25519", "ecdsa-sha2-"),
            ),
            Rule(
                "B3",
                "snmpv3-users",
                "secret",
                "`snmp-server user` names, group names, and auth/priv "
                "passphrases are hashed; algorithm keywords are kept.",
                _apply_snmp_user,
                trigger="snmp-server user ",
            ),
        ]

    def block_filter(self):
        return BlobBlockFilter()

    def passlist_words(self):
        # "pubkey" rides lines like "ip ssh pubkey-chain"; absent from
        # the curated list because v4-era corpora never emit it.
        return ("pubkey",)


PLUGIN = BlobsPlugin()
