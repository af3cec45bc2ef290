"""Persisting and restoring anonymizer mapping state.

The paper's single-blind workflow is ongoing: an owner uploads anonymized
configs today and again after the next maintenance window, and the two
snapshots must anonymize *consistently* (the same loopback, route-map
name, or peer ASN must map identically across uploads) or longitudinal
research is impossible.

Every mapping is a keyed function of the salt (ASN/community Feistel,
string hashes, the IP maps' flip bits), so it is consistent across runs
by construction — save one input: the IP maps' subnet-shaping sets Z′,
fixed at the lineage's first freeze.  A later run must shape with the
same Z′, or nodes an earlier run walked unpinned could become pinned.
This module serializes the mapping state to a JSON document:

    state = export_state(anonymizer)         # dict (JSON-serializable)
    save_state(anonymizer, path)
    anonymizer2 = Anonymizer(config)
    load_state(anonymizer2, path)            # same mappings as anonymizer

The state file contains each IP map's shaping set and counters and the
token-hash cache.  Treat it with the same secrecy as the salt: the hash
cache reveals original->anonymized pairs, and the shaping sets are
original subnet addresses.  Format 1 documents (which carried the old
RNG-drawn trie) are refused.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Dict

from repro.core.engine import Anonymizer

STATE_FORMAT_VERSION = 2

#: A delta without a ``<prefix>_shaping`` field leaves Z′ as it is.
_UNCHANGED = object()


class StateError(ValueError):
    """A mapping-state file cannot be used (corrupt, truncated, wrong
    version, or incompatible with this anonymizer).

    Subclasses :class:`ValueError` so existing callers that catch
    ``ValueError`` keep working; the CLI catches :class:`StateError` to
    turn any of these into a one-line error and a nonzero exit instead of
    a raw traceback.
    """


def _trie_fields(prefix: str, ip_map, shaping: bool = True) -> Dict:
    """One map's state fields: ``<prefix>_shaping`` (Z′ as a sorted list,
    or null while not fixed yet; with *shaping*) and
    ``<prefix>_counters``."""
    fields: Dict = {}
    if shaping:
        fields[prefix + "_shaping"] = (
            None if ip_map.shaping is None else sorted(ip_map.shaping)
        )
    fields[prefix + "_counters"] = {
        "collision_walks": ip_map.collision_walks,
        "addresses_mapped": ip_map.addresses_mapped,
    }
    return fields


def _decode_trie_fields(document: Dict, prefix: str, ip_map, required: bool) -> tuple:
    """``(shaping or _UNCHANGED, collision_walks, addresses_mapped)``
    from one map's fields; raises on anything malformed."""
    key = prefix + "_shaping"
    shaping = _UNCHANGED
    if required or key in document:
        shaping = document[key]
        if shaping is not None:
            shaping = frozenset(shaping)
            if not all(type(v) is int and 0 <= v and not v >> ip_map.bits for v in shaping):
                raise ValueError("{} holds a value that is not an address".format(key))
    counters = document[prefix + "_counters"]
    return (
        shaping,
        int(counters["collision_walks"]),
        int(counters["addresses_mapped"]),
    )


def _install(ip_map, fields: tuple) -> None:
    shaping, ip_map.collision_walks, ip_map.addresses_mapped = fields
    if shaping is not _UNCHANGED:
        ip_map.set_shaping(shaping)


def _present_tries(anonymizer: Anonymizer, document: Dict) -> list:
    """The ``(prefix, map)`` pairs whose fields *document* must carry:
    the v4 map always, a plugin map only where the document has it
    (documents written without that plugin lack its fields)."""
    return [
        (prefix, ip_map)
        for prefix, ip_map in anonymizer.tries().items()
        if prefix == "ip" or prefix + "_counters" in document
    ]


def export_state(anonymizer: Anonymizer) -> Dict:
    """Capture the mapping state of *anonymizer* as a JSON-able dict."""
    tries = iter(anonymizer.tries().items())
    # save_state writes keys in insertion order: the v4 map's fields
    # lead, any plugin map's fields trail.
    state = {"format_version": STATE_FORMAT_VERSION, **_trie_fields(*next(tries))}
    state.update(
        hash_cache=dict(anonymizer.hasher._cache),
        seen_asns=sorted(anonymizer.report.seen_asns),
        hash_length=anonymizer.hasher.length,
        # The recognizer plugin families active when this state was
        # written.  Import refuses a mismatch: mapping state produced
        # under one rule set must not silently serve another.
        active_plugins=sorted(getattr(anonymizer, "active_plugin_families", ())),
    )
    for prefix, ip_map in tries:
        state.update(_trie_fields(prefix, ip_map))
    return state


def import_state(anonymizer: Anonymizer, state: Dict) -> None:
    """Restore mapping state captured by :func:`export_state`.

    The anonymizer must have been constructed with the same salt and
    compatible configuration; the salt itself is never stored.
    """
    if not isinstance(state, dict):
        raise StateError(
            "state document must be a JSON object, not {}".format(
                type(state).__name__
            )
        )
    version = state.get("format_version")
    if version != STATE_FORMAT_VERSION:
        raise StateError(
            "unsupported state format version {!r} (expected {})".format(
                version, STATE_FORMAT_VERSION
            )
        )
    if state.get("hash_length") != anonymizer.hasher.length:
        raise StateError(
            "state was written with hash_length={} but this anonymizer "
            "uses {}".format(state.get("hash_length"), anonymizer.hasher.length)
        )
    if "active_plugins" in state:
        # Documents written before the plugin registry existed lack the
        # key and import unchanged; documents that carry it must match.
        try:
            stored_plugins = sorted(str(f) for f in state["active_plugins"])
        except TypeError as exc:
            raise StateError(
                "state document is malformed ({}: {}); was the file "
                "truncated or edited?".format(type(exc).__name__, exc)
            ) from exc
        active = sorted(getattr(anonymizer, "active_plugin_families", ()))
        if stored_plugins != active:
            raise StateError(
                "state was written with plugins {} but this anonymizer "
                "runs {}; re-run with a matching --plugins set".format(
                    stored_plugins or "[]", active or "[]"
                )
            )
    try:
        tries = [
            (ip_map, _decode_trie_fields(state, prefix, ip_map, required=True))
            for prefix, ip_map in _present_tries(anonymizer, state)
        ]
        hash_cache = dict(state["hash_cache"])
        seen_asns = {int(a) for a in state.get("seen_asns", [])}
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise StateError(
            "state document is malformed ({}: {}); was the file truncated "
            "or edited?".format(type(exc).__name__, exc)
        ) from exc
    # All fields decoded and validated before any mutation: a malformed
    # document can never leave the anonymizer half-restored.
    for ip_map, fields in tries:
        _install(ip_map, fields)
    anonymizer.hasher._cache = hash_cache
    anonymizer.report.seen_asns.update(seen_asns)


def export_state_json(anonymizer: Anonymizer) -> str:
    """The anonymizer's mapping state as a JSON string.

    The service's ``GET /sessions/<id>/state`` endpoint returns this so
    an owner can carry a session's mappings across daemon restarts.
    Treat the document with the same secrecy as the salt.
    """
    return json.dumps(export_state(anonymizer), sort_keys=True)


def import_state_json(anonymizer: Anonymizer, text: str) -> None:
    """Restore mapping state from a JSON string (see :func:`export_state_json`).

    Raises :class:`StateError` for anything that is not a valid state
    document — never a raw ``json.JSONDecodeError``.
    """
    try:
        state = json.loads(text)
    except ValueError as exc:
        raise StateError(
            "state document is not valid JSON (corrupt or truncated): "
            "{}".format(exc)
        ) from exc
    import_state(anonymizer, state)


def save_state(anonymizer: Anonymizer, path: str) -> None:
    """Write the anonymizer's mapping state to *path* as JSON."""
    with open(path, "w") as handle:
        json.dump(export_state(anonymizer), handle)


def load_state(anonymizer: Anonymizer, path: str) -> None:
    """Load mapping state previously written by :func:`save_state`.

    Raises :class:`StateError` (never a raw ``json.JSONDecodeError`` or
    ``KeyError`` traceback) for an unreadable, corrupt, truncated, or
    incompatible state file — with the path in the message so the
    operator knows exactly which file to inspect.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)
    except OSError as exc:
        raise StateError("cannot read state file {}: {}".format(path, exc)) from exc
    except ValueError as exc:  # json.JSONDecodeError subclasses ValueError
        raise StateError(
            "state file {} is not valid JSON (corrupt or truncated): "
            "{}".format(path, exc)
        ) from exc
    try:
        import_state(anonymizer, state)
    except StateError as exc:
        raise StateError("state file {}: {}".format(path, exc)) from exc


class StateCursor:
    """A position in an anonymizer's mapping state.

    The token-hash cache only ever *gains* entries (a hash is never
    rewritten), and CPython dicts preserve insertion order — so "hashed
    since cursor" is simply the entries past the recorded length.
    ``seen_asns`` is a set (no stable order), so the cursor keeps a
    frozen copy instead, and each map's shaping set is replaced whole
    when it changes, so the cursor keeps the set it saw.  The service
    journal uses cursors to write per-request state *deltas* rather than
    full state documents.
    """

    __slots__ = ("shaping", "cache_len", "seen_asns")

    def __init__(self, anonymizer: Anonymizer):
        #: Shaping set per map, keyed like :meth:`Anonymizer.tries`.
        self.shaping = {
            prefix: ip_map.shaping for prefix, ip_map in anonymizer.tries().items()
        }
        self.cache_len = len(anonymizer.hasher._cache)
        self.seen_asns = frozenset(anonymizer.report.seen_asns)


def state_delta_since(anonymizer: Anonymizer, cursor: StateCursor) -> Dict:
    """Mapping-state changes since *cursor*, as a JSON-able dict.

    Mirrors :func:`export_state` field for field, but carries only new
    hash-cache entries / ASNs, and a map's shaping set only when it
    changed (in practice: in the freeze record).  The small absolute
    counters always travel.  Applying every delta in order on top of a
    snapshot reproduces :func:`export_state` exactly.
    """
    cache_items = islice(
        anonymizer.hasher._cache.items(), cursor.cache_len, None
    )
    delta: Dict = {
        "hash_cache": dict(cache_items),
        "seen_asns": sorted(anonymizer.report.seen_asns - cursor.seen_asns),
    }
    for prefix, ip_map in anonymizer.tries().items():
        changed = ip_map.shaping is not cursor.shaping.get(prefix)
        delta.update(_trie_fields(prefix, ip_map, shaping=changed))
    return delta


def apply_state_delta(anonymizer: Anonymizer, delta: Dict) -> None:
    """Apply one :func:`state_delta_since` document (journal replay).

    Like :func:`import_state`, everything is decoded and validated
    before any mutation, so a malformed delta raises :class:`StateError`
    without leaving the anonymizer half-updated.
    """
    if not isinstance(delta, dict):
        raise StateError(
            "state delta must be a JSON object, not {}".format(
                type(delta).__name__
            )
        )
    try:
        tries = [
            (ip_map, _decode_trie_fields(delta, prefix, ip_map, required=False))
            for prefix, ip_map in _present_tries(anonymizer, delta)
        ]
        hash_cache = dict(delta["hash_cache"])
        seen_asns = {int(a) for a in delta.get("seen_asns", [])}
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise StateError(
            "state delta is malformed ({}: {}); was the journal record "
            "truncated or edited?".format(type(exc).__name__, exc)
        ) from exc
    for ip_map, fields in tries:
        _install(ip_map, fields)
    anonymizer.hasher._cache.update(hash_cache)
    anonymizer.report.seen_asns.update(seen_asns)
