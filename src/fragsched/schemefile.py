"""Scheme file format (JSON, schema version 1).

A scheme document carries exactly the fields
``{format, B, V, R, K, mu, occupancy}`` where ``occupancy`` lists, for each
fragment 1..V in order, the servers holding a replica. ``format`` is the
JSON integer 1; any other value, ``true`` and ``1.0`` included, is
``SchemaVersionUnsupported``. A field of the wrong
JSON type (B, V, R, K and server ids are integers, not booleans) is a
``ParseError`` naming it. Validation enforces the declared uniform R and K,
naming the offending fragment or server.
``scheme_hash`` digests the canonical serialization, so equal schemes yield
equal hashes and any emitted artifact can cite the scheme it used.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import ParseError, SchemaVersionUnsupported, ValidationFailed
from .model import StorageScheme, build_scheme

FORMAT_VERSION = 1

__all__ = ["FORMAT_VERSION", "scheme_to_doc", "doc_to_scheme", "read_scheme",
           "write_scheme", "scheme_hash"]


def scheme_to_doc(scheme: StorageScheme) -> dict:
    p = scheme.params
    if not all(len(s) == p.R for s in scheme.occupancy):
        raise ValidationFailed("only uniform-replication schemes are serializable")
    if not all(len(s) == p.K for s in scheme.fragment_sets):
        raise ValidationFailed("only uniform-capacity schemes are serializable")
    return {
        "format": FORMAT_VERSION,
        "B": p.B,
        "V": p.V,
        "R": p.R,
        "K": p.K,
        "mu": p.mu,
        "occupancy": [sorted(s) for s in scheme.occupancy],
    }


def doc_to_scheme(doc: dict) -> StorageScheme:
    if not isinstance(doc, dict):
        raise ParseError("scheme document must be a JSON object")
    version = doc.get("format")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise SchemaVersionUnsupported(f"unsupported scheme format {version!r}")
    missing = {"B", "V", "R", "K", "mu", "occupancy"} - doc.keys()
    if missing:
        raise ParseError(f"scheme document missing fields: {sorted(missing)}")
    B, V, R, K = (_integer(doc[k], k) for k in ("B", "V", "R", "K"))
    mu = doc["mu"]
    if isinstance(mu, bool) or not isinstance(mu, (int, float)):
        raise ParseError(f"mu must be a number, got {mu!r}")
    occupancy = doc["occupancy"]
    if not (isinstance(occupancy, list) and all(isinstance(s, list) for s in occupancy)):
        raise ParseError("occupancy must be a list of lists of server ids")
    for v, servers in enumerate(occupancy, start=1):
        for b in servers:
            _integer(b, f"occupancy of fragment {v}: server id")
    if len(occupancy) != V:
        raise ValidationFailed(f"occupancy lists {len(occupancy)} fragments, V={V}")
    scheme = build_scheme(occupancy, mu=float(mu), B=B)
    for v, servers in enumerate(scheme.occupancy, start=1):
        if len(servers) != R:
            raise ValidationFailed(
                f"fragment {v} has {len(servers)} replicas, declared R={R}"
            )
    for b, frags in enumerate(scheme.fragment_sets, start=1):
        if len(frags) != K:
            raise ValidationFailed(
                f"server {b} stores {len(frags)} fragments, declared K={K}"
            )
    return scheme


def _integer(value, what: str) -> int:
    if type(value) is not int:  # a JSON true or false would pass as 1 or 0
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def write_scheme(scheme: StorageScheme, path: str | Path) -> None:
    Path(path).write_text(canonical_json(scheme_to_doc(scheme)) + "\n")


def read_scheme(path: str | Path) -> StorageScheme:
    try:
        doc = json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return doc_to_scheme(doc)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def scheme_hash(scheme: StorageScheme) -> str:
    """Stable short digest of the canonical scheme document."""
    return hashlib.sha256(canonical_json(scheme_to_doc(scheme)).encode()).hexdigest()[:16]
