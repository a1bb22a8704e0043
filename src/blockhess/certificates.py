"""Embedded integer witness matrices, with loaders, verifiers, and a builder.

Ten records ship with the package, split over two catalogs: catalog 1 holds
the corank-1 witnesses, catalog 2 the invertibility and node-pair witnesses.
Each record stores only the upper blocks A_{pq} (p < q); assembly fills in
the symmetric/skew remainder.  Entries are fixed integers; a checksum over
the canonical payload serialization guards against silent edits, and
``verify`` re-runs the kind-appropriate computation from scratch, so the
records carry no trusted state beyond the numbers themselves.

Two sign orientations occur in the stored blocks (some lists put the +1 of
a skew pair above the diagonal, some below).  Transcription is literal
either way: the verifier's verdict, not the data, is the arbiter.
"""

from __future__ import annotations

import json
import hashlib
import random
import types
from pathlib import Path

from .exterior import ExteriorArray
from .hessian import (
    HessianMatrix,
    _assembly_plan,
    assemble,
    det_exact,
    position_split_embed,
    rank_report,
    specialize_embed,
)
from .multiindex import enumerate_indices
from .node_cusp import NodeConditionError, verify_node_pair_k3

KINDS = ("corank1", "invertible", "nodepair")

Blocks = dict[str, tuple[tuple[int, ...], ...]]


class Certificate(types.SimpleNamespace):
    """One embedded (or imported, or built) witness record: ``id``, ``kind``,
    ``k``, ``N``, ``blocks`` (upper blocks by name, rows as int tuples),
    ``claim`` and ``catalog``.  Two records are equal when every field is."""


# ---------------------------------------------------------------------------
# payload data
#
# Upper blocks only, row-major, exactly as fixed at transcription time.


_CORANK_CLAIM = "assembled {side}x{side} matrix has corank 1 while every block row keeps full rank {m}"
_NODE_CLAIM = (
    "coefficients vanish on every index meeting an end block at least twice; "
    "the matrices at the two opposite coordinate points are both nonsingular "
    "for the seeded completion"
)

_RAW: dict[str, dict] = {
    "corank-3-9": {
        "kind": "corank1",
        "k": 3,
        "N": 9,
        "catalog": 1,
        "blocks": {
            "A12": [
                [0, 1, 0, 0, 1, 0],
                [-1, 0, 1, 0, 1, 1],
                [0, -1, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 0],
                [-1, -1, -1, 0, 0, 0],
                [0, -1, 0, 0, 0, 0],
            ],
            "A13": [
                [0, 0, 1, 1, 0, 1],
                [0, 0, 0, 1, 0, 1],
                [-1, 0, 0, 0, 1, 0],
                [-1, -1, 0, 0, 1, 0],
                [0, 0, -1, -1, 0, 1],
                [-1, -1, 0, 0, -1, 0],
            ],
            "A23": [
                [0, 1, 1, 0, 1, 1],
                [-1, 0, 0, 1, 1, 1],
                [-1, 0, 0, 0, 0, 0],
                [0, -1, 0, 0, 0, 0],
                [-1, -1, 0, 0, 0, 1],
                [-1, -1, 0, 0, -1, 0],
            ],
        },
    },
    "corank-3-10": {
        "kind": "corank1",
        "k": 3,
        "N": 10,
        "catalog": 1,
        "blocks": {
            "A12": [
                [0, 0, 0, 1, 1, 0, 0],
                [0, 0, 0, 1, 0, 0, 0],
                [0, 0, 0, 1, 0, 1, 1],
                [-1, -1, -1, 0, 1, 0, 1],
                [-1, 0, 0, -1, 0, 1, 0],
                [0, 0, -1, 0, -1, 0, 1],
                [0, 0, -1, -1, 0, -1, 0],
            ],
            "A13": [
                [0, 1, 0, 0, 0, 1, 1],
                [-1, 0, 1, 0, 0, 1, 1],
                [0, -1, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 1, 0],
                [0, 0, 0, -1, 0, 0, 0],
                [-1, -1, 0, -1, 0, 0, 1],
                [-1, -1, 0, 0, 0, -1, 0],
            ],
            "A23": [
                [0, 0, 0, 0, 1, 1, 1],
                [0, 0, 0, 1, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0],
                [0, -1, -1, 0, 0, 0, 1],
                [-1, 0, 0, 0, 0, 1, 1],
                [-1, 0, 0, 0, -1, 0, 0],
                [-1, 0, 0, -1, -1, 0, 0],
            ],
        },
    },
    "corank-3-11": {
        "kind": "corank1",
        "k": 3,
        "N": 11,
        "catalog": 1,
        "blocks": {
            "A12": [
                [0, 1, 0, 0, 1, 1, 0, 0],
                [-1, 0, 0, 1, 1, 1, 1, 1],
                [0, 0, 0, 0, 0, 1, 1, 0],
                [0, -1, 0, 0, 1, 1, 0, 1],
                [-1, -1, 0, -1, 0, 0, 1, 1],
                [-1, -1, -1, -1, 0, 0, 0, 1],
                [0, -1, -1, 0, -1, 0, 0, 0],
                [0, -1, 0, -1, -1, -1, 0, 0],
            ],
            "A13": [
                [0, 1, 1, 0, 0, 1, 1, 0],
                [-1, 0, 0, 1, 1, 0, 0, 1],
                [-1, 0, 0, 0, 1, 0, 1, 1],
                [0, -1, 0, 0, 0, 0, 0, 1],
                [0, -1, -1, 0, 0, 1, 0, 0],
                [-1, 0, 0, 0, -1, 0, 1, 1],
                [-1, 0, -1, 0, 0, -1, 0, 0],
                [0, -1, -1, -1, 0, -1, 0, 0],
            ],
            "A23": [
                [0, 1, 0, 0, 1, 1, 0, 0],
                [-1, 0, 0, 0, 0, 1, 1, 1],
                [0, 0, 0, 0, 0, 1, 0, 1],
                [0, 0, 0, 0, 1, 1, 1, 1],
                [-1, 0, 0, -1, 0, 0, 1, 0],
                [-1, -1, -1, -1, 0, 0, 0, 1],
                [0, -1, 0, -1, -1, 0, 0, 0],
                [0, -1, -1, -1, 0, -1, 0, 0],
            ],
        },
    },
    "corank-4-8": {
        "kind": "corank1",
        "k": 4,
        "N": 8,
        "catalog": 1,
        "blocks": {
            "A12": [[0, 0, 1, 1], [0, 0, 0, 1], [-1, 0, 0, 0], [-1, -1, 0, 0]],
            "A13": [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, -1, -1, 0]],
            "A14": [[0, 1, 0, 1], [-1, 0, 0, 1], [0, 0, 0, 0], [-1, -1, 0, 0]],
            "A23": [[0, 0, 1, 0], [0, 0, 1, 1], [-1, -1, 0, 0], [0, -1, 0, 0]],
            "A24": [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [-1, -1, -1, 0]],
            "A34": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        },
    },
    "corank-4-9": {
        "kind": "corank1",
        "k": 4,
        "N": 9,
        "catalog": 1,
        "blocks": {
            "A12": [
                [0, 0, 1, 1, 0],
                [0, 0, 1, 0, 1],
                [-1, -1, 0, 0, 1],
                [-1, 0, 0, 0, 0],
                [0, -1, -1, 0, 0],
            ],
            "A13": [
                [0, 1, 1, 1, 1],
                [-1, 0, 0, 1, 0],
                [-1, 0, 0, 1, 0],
                [-1, -1, -1, 0, 0],
                [-1, 0, 0, 0, 0],
            ],
            "A14": [
                [0, 0, 0, 0, 0],
                [0, 0, 1, 0, 1],
                [0, -1, 0, 0, 1],
                [0, 0, 0, 0, 0],
                [0, -1, -1, 0, 0],
            ],
            "A23": [
                [0, 0, 0, 1, 1],
                [0, 0, 0, 0, 0],
                [0, 0, 0, 1, 1],
                [-1, 0, -1, 0, 1],
                [-1, 0, -1, -1, 0],
            ],
            "A24": [
                [0, 1, 1, 0, 0],
                [-1, 0, 0, 0, 1],
                [-1, 0, 0, 0, 1],
                [0, 0, 0, 0, 0],
                [0, -1, -1, 0, 0],
            ],
            "A34": [
                [0, 1, 1, 1, 0],
                [-1, 0, 1, 0, 1],
                [-1, -1, 0, 0, 1],
                [-1, 0, 0, 0, 0],
                [0, -1, -1, 0, 0],
            ],
        },
    },
    "corank-5-10": {
        "kind": "corank1",
        "k": 5,
        "N": 10,
        "catalog": 1,
        "blocks": {
            "A12": [
                [0, -1, -1, 0, -1],
                [1, 0, 0, -1, -1],
                [1, 0, 0, -1, -1],
                [0, 1, 1, 0, -1],
                [1, 1, 1, 1, 0],
            ],
            "A13": [
                [0, 0, -1, -1, -1],
                [0, 0, -1, -1, -1],
                [1, 1, 0, 0, -1],
                [1, 1, 0, 0, -1],
                [1, 1, 1, 1, 0],
            ],
            "A14": [
                [0, 0, 0, -1, 0],
                [0, 0, -1, -1, -1],
                [0, 1, 0, 0, -1],
                [1, 1, 0, 0, 0],
                [0, 1, 1, 0, 0],
            ],
            "A15": [
                [0, 0, -1, 0, 0],
                [0, 0, 0, 0, 0],
                [1, 0, 0, -1, 0],
                [0, 0, 1, 0, -1],
                [0, 0, 0, 1, 0],
            ],
            "A23": [
                [0, 0, 0, -1, 0],
                [0, 0, -1, -1, -1],
                [0, 1, 0, -1, 0],
                [1, 1, 1, 0, -1],
                [0, 1, 0, 1, 0],
            ],
            "A24": [
                [0, 0, -1, 0, -1],
                [0, 0, -1, 0, -1],
                [1, 1, 0, 0, 0],
                [0, 0, 0, 0, -1],
                [1, 1, 0, 1, 0],
            ],
            "A25": [
                [0, 0, -1, 0, 0],
                [0, 0, 0, -1, 0],
                [1, 0, 0, -1, 0],
                [0, 1, 1, 0, -1],
                [0, 0, 0, 1, 0],
            ],
            "A34": [
                [0, 0, -1, 0, -1],
                [0, 0, 0, 0, 0],
                [1, 0, 0, -1, 0],
                [0, 0, 1, 0, -1],
                [1, 0, 0, 1, 0],
            ],
            "A35": [
                [0, 0, 0, 0, -1],
                [0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0],
                [0, 0, 0, 0, -1],
                [1, 0, 0, 1, 0],
            ],
            "A45": [
                [0, 0, 0, -1, 0],
                [0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0],
                [1, 0, 0, 0, -1],
                [0, 0, 0, 1, 0],
            ],
        },
    },
    "invertible-4-8": {
        "kind": "invertible",
        "k": 4,
        "N": 8,
        "catalog": 2,
        "blocks": {
            "A12": [[0, 1, 1, 1], [-1, 0, 1, 0], [-1, -1, 0, 0], [-1, 0, 0, 0]],
            "A13": [[0, -1, 0, 0], [1, 0, -1, 0], [0, 1, 0, -1], [0, 0, 1, 0]],
            "A14": [[0, 0, 1, 0], [0, 0, 1, 0], [-1, -1, 0, 0], [0, 0, 0, 0]],
            "A23": [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0]],
            "A24": [[0, 0, -1, 0], [0, 0, -1, 0], [1, 1, 0, 0], [0, 0, 0, 0]],
            "A34": [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, -1, -1, 0]],
        },
    },
    "node-3-9": {
        "kind": "nodepair",
        "k": 3,
        "N": 9,
        "catalog": 2,
        "blocks": {
            "A12": [
                [0, 2, 3, 2, 1, 2],
                [-2, 0, 1, 0, 3, 2],
                [-3, -1, 0, 1, 3, 2],
                [-2, 0, -1, 0, 0, 0],
                [-1, -3, -3, 0, 0, 0],
                [-2, -2, -2, 0, 0, 0],
            ],
            "A13": [
                [0, -3, -2, -2, -3, -1],
                [3, 0, 0, -2, 0, -1],
                [2, 0, 0, -1, -3, -3],
                [2, 2, 1, 0, 0, 0],
                [3, 0, 3, 0, 0, 0],
                [1, 1, 3, 0, 0, 0],
            ],
            "A23": [
                [0, 2, 0, 0, 3, 3],
                [-2, 0, 1, 1, 0, 2],
                [0, -1, 0, 2, 1, 0],
                [0, -1, -2, 0, 0, 0],
                [-3, 0, -1, 0, 0, 0],
                [-3, -2, 0, 0, 0, 0],
            ],
        },
    },
    "node-3-10": {
        "kind": "nodepair",
        "k": 3,
        "N": 10,
        "catalog": 2,
        "blocks": {
            "A12": [
                [0, 1, 0, 0, 0, 2, 0],
                [-1, 0, 2, 1, 0, 2, 2],
                [0, -2, 0, 2, 0, 2, 2],
                [0, -1, -2, 0, 2, 0, 0],
                [0, 0, 0, -2, 0, 0, 0],
                [-2, -2, -2, 0, 0, 0, 0],
                [0, -2, -2, 0, 0, 0, 0],
            ],
            "A13": [
                [0, -2, -1, -2, -1, -1, -1],
                [2, 0, -1, -2, -1, 0, -1],
                [1, 1, 0, -1, -2, -2, -1],
                [2, 2, 1, 0, -1, 0, -1],
                [1, 1, 2, 1, 0, 0, 0],
                [1, 0, 2, 0, 0, 0, 0],
                [1, 1, 1, 1, 0, 0, 0],
            ],
            "A23": [
                [0, 1, 2, 2, 1, 1, 2],
                [-1, 0, 1, 2, 1, 2, 1],
                [-2, -1, 0, 2, 0, 1, 0],
                [-2, -2, -2, 0, 0, 2, 1],
                [-1, -1, 0, 0, 0, 0, 0],
                [-1, -2, -1, -2, 0, 0, 0],
                [-2, -1, 0, -1, 0, 0, 0],
            ],
        },
    },
    "node-3-11": {
        "kind": "nodepair",
        "k": 3,
        "N": 11,
        "catalog": 2,
        "blocks": {
            "A12": [
                [0, 1, 0, 2, 2, 2, 0, 1],
                [-1, 0, 0, 0, 0, 0, 1, 2],
                [0, 0, 0, 1, 2, 1, 1, 0],
                [-2, 0, -1, 0, 1, 0, 2, 0],
                [-2, 0, -2, -1, 0, 0, 2, 2],
                [-2, 0, -1, 0, 0, 0, 0, 0],
                [0, -1, -1, -2, -2, 0, 0, 0],
                [-1, -2, 0, 0, -2, 0, 0, 0],
            ],
            "A13": [
                [0, -1, -1, -1, -1, -2, -1, -2],
                [1, 0, -1, 0, -2, -2, 0, 0],
                [1, 1, 0, -1, 0, 0, 0, -1],
                [1, 0, 1, 0, 0, -1, -2, -2],
                [1, 2, 0, 0, 0, 0, -1, 0],
                [2, 2, 0, 1, 0, 0, 0, 0],
                [1, 0, 0, 2, 1, 0, 0, 0],
                [2, 0, 1, 2, 0, 0, 0, 0],
            ],
            "A23": [
                [0, 1, 0, 2, 1, 2, 2, 2],
                [-1, 0, 0, 1, 1, 0, 0, 2],
                [0, 0, 0, 0, 1, 2, 2, 0],
                [-2, -1, 0, 0, 2, 0, 0, 2],
                [-1, -1, -1, -2, 0, 1, 0, 0],
                [-2, 0, -2, 0, -1, 0, 0, 0],
                [-2, 0, -2, 0, 0, 0, 0, 0],
                [-2, -2, 0, -2, 0, 0, 0, 0],
            ],
        },
    },
}


def _claim_for(kind: str, k: int, N: int) -> str:
    side = k * (N - k)
    if kind == "corank1":
        return _CORANK_CLAIM.format(side=side, m=N - k)
    if kind == "invertible":
        return f"assembled {side}x{side} matrix is invertible over the integers"
    return _NODE_CLAIM


# ---------------------------------------------------------------------------
# payload -> array -> matrix


def to_array(cert: Certificate) -> ExteriorArray:
    """Rebuild the coefficient array determined by the upper blocks A_{pq}.

    Block entry (u, v) is the positional coefficient with rows p, q moved to
    the values k+u, k+v; each sorted index arises from exactly one (p, q, u<v)
    slot, so this is a bijection onto the coefficients meeting the leading
    window in exactly k-2 entries.  Blocks must be skew (the u > v triangle
    is redundant and is cross-checked, not trusted).
    """
    k, N, blocks = cert.k, cert.N, cert.blocks
    if k >= 10:
        raise ValueError("block names Apq use single digits; k must be below 10")
    m = N - k
    expected = {f"A{p}{q}" for p in range(1, k + 1) for q in range(p + 1, k + 1)}
    if set(blocks) != expected:
        raise ValueError(f"block names {sorted(blocks)} do not match {sorted(expected)}")
    upper: list[int] = []
    for p in range(1, k + 1):
        for q in range(p + 1, k + 1):
            rows = blocks[f"A{p}{q}"]
            if len(rows) != m or any(len(r) != m for r in rows):
                raise ValueError(f"block A{p}{q} is not {m}x{m}")
            for u in range(1, m + 1):
                if rows[u - 1][u - 1] != 0:
                    raise ValueError(f"block A{p}{q} has nonzero diagonal at ({u}, {u})")
                for v in range(u + 1, m + 1):
                    if rows[u - 1][v - 1] != -rows[v - 1][u - 1]:
                        raise ValueError(f"block A{p}{q} is not skew at ({u}, {v})")
                    upper.append(rows[u - 1][v - 1])
    # the plan runs over the same (p < q, u < v) slots in the same order
    keys, signs, _ = _assembly_plan(k, N)
    return ExteriorArray(k, N, {I: s * c for I, s, c in zip(keys, signs, upper) if c})


def to_hessian(cert: Certificate) -> HessianMatrix:
    return assemble(to_array(cert))


def blocks_from_hessian(H: HessianMatrix) -> Blocks:
    out: dict[str, tuple[tuple[int, ...], ...]] = {}
    for p in range(1, H.k + 1):
        for q in range(p + 1, H.k + 1):
            rows = H.block(p, q)
            # From lists: tuple(<generator>) reserves 10 slots and then
            # shrinks, so freed tuples pile up on a smaller size's free list.
            out[f"A{p}{q}"] = tuple([tuple([int(e) for e in row]) for row in rows])
    return out


# ---------------------------------------------------------------------------
# checksums and serialization


def payload_checksum(cert: Certificate) -> str:
    """sha256 over the canonical (k, N, blocks) serialization."""
    body = json.dumps(
        {"k": cert.k, "N": cert.N, "blocks": {n: [list(r) for r in rows] for n, rows in cert.blocks.items()}},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def to_json_dict(cert: Certificate) -> dict:
    return {
        "id": cert.id,
        "kind": cert.kind,
        "k": cert.k,
        "N": cert.N,
        "blocks": {n: [list(r) for r in rows] for n, rows in cert.blocks.items()},
        "claim": cert.claim,
        "catalog": cert.catalog,
    }


def export_certificate(cert: Certificate, path) -> None:
    """Write the canonical JSON form (byte-stable for equal certificates)."""
    text = json.dumps(to_json_dict(cert), sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text, encoding="ascii")


def certificate_from_json_dict(doc: dict) -> Certificate:
    if not isinstance(doc, dict):
        raise ValueError("certificate document must be a JSON object")
    for key in ("id", "kind", "k", "N", "blocks", "claim"):
        if key not in doc:
            raise ValueError(f"certificate document is missing {key!r}")
    kind = doc["kind"]
    if kind not in KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    k, N = doc["k"], doc["N"]
    if not (isinstance(k, int) and isinstance(N, int) and 0 < k < N):
        raise ValueError(f"bad shape parameters k={k!r}, N={N!r}")
    m = N - k
    raw_blocks = doc["blocks"]
    if not isinstance(raw_blocks, dict):
        raise ValueError("blocks must be an object of named matrices")
    frozen: dict[str, tuple[tuple[int, ...], ...]] = {}
    for name, rows in sorted(raw_blocks.items()):
        if not (isinstance(rows, list) and len(rows) == m):
            raise ValueError(f"block {name} must have {m} rows")
        for r in rows:
            if not (isinstance(r, list) and len(r) == m):
                raise ValueError(f"block {name} must have rows of length {m}")
            if not all(isinstance(e, int) and not isinstance(e, bool) for e in r):
                raise ValueError(f"block {name} has a non-integer entry")
        frozen[name] = tuple(tuple(r) for r in rows)
    catalog = doc.get("catalog", 0)
    if type(catalog) is not int:
        raise ValueError(f"catalog must be a JSON integer, got {catalog!r}")
    return Certificate(
        id=str(doc["id"]),
        kind=kind,
        k=k,
        N=N,
        blocks=frozen,
        claim=str(doc["claim"]),
        catalog=catalog,
    )


# embedded records pass the same validator as imported files
_REGISTRY: dict[str, Certificate] = {
    cid: certificate_from_json_dict({**rec, "id": cid, "claim": _claim_for(rec["kind"], rec["k"], rec["N"])})
    for cid, rec in _RAW.items()
}

CERTIFICATE_IDS: tuple[str, ...] = tuple(_RAW)


def load(cert_id: str) -> Certificate:
    """Return the embedded record for a known id; ValueError otherwise."""
    try:
        return _REGISTRY[cert_id]
    except KeyError:
        raise ValueError(f"unknown certificate id {cert_id!r}; known: {', '.join(CERTIFICATE_IDS)}") from None


# ---------------------------------------------------------------------------
# verification


def _first_discrepancy(cert: Certificate, ref: Certificate):
    if (cert.kind, cert.k, cert.N) != (ref.kind, ref.k, ref.N):
        return {"field": "header", "got": [cert.kind, cert.k, cert.N], "expected": [ref.kind, ref.k, ref.N]}
    if set(cert.blocks) != set(ref.blocks):
        return {"field": "blocks", "got": sorted(cert.blocks), "expected": sorted(ref.blocks)}
    for name in sorted(ref.blocks):
        got, want = cert.blocks[name], ref.blocks[name]
        for r, (gr, wr) in enumerate(zip(got, want), start=1):
            for c, (g, w) in enumerate(zip(gr, wr), start=1):
                if g != w:
                    return {"field": name, "row": r, "col": c, "got": g, "expected": w}
    return None


def verify(cert: Certificate | str, completion_seed: int = 0) -> dict:
    """Run the kind-appropriate checks; failures are report contents.

    Known ids are first compared entry-by-entry against the embedded copy,
    so a silently edited payload fails with the discrepancy located.
    """
    if isinstance(cert, str):
        cert = load(cert)
    report: dict = {
        "id": cert.id,
        "kind": cert.kind,
        "k": cert.k,
        "N": cert.N,
        "checksum": payload_checksum(cert),
        "claim": cert.claim,
    }
    if cert.id in _REGISTRY:
        diff = _first_discrepancy(cert, _REGISTRY[cert.id])
        if diff is not None:
            report["discrepancy"] = diff
            report["pass"] = False
            return report
        report["matches_embedded"] = True
    try:
        A = to_array(cert)
    except ValueError as exc:
        report["error"] = str(exc)
        report["pass"] = False
        return report
    if cert.kind == "corank1":
        report.update(rank_report(assemble(A)))
        report["pass"] = report["corank"] == 1 and all(r == cert.N - cert.k for r in report["block_row_ranks"])
    elif cert.kind == "invertible":
        H = assemble(A)
        report["det"] = det_exact(H)
        report["pass"] = report["det"] != 0
    elif cert.kind == "nodepair":
        try:
            inner = verify_node_pair_k3(A, completion_seed)
        except NodeConditionError as exc:
            report["error"] = str(exc)
            report["pass"] = False
            return report
        report["node"] = inner
        report["pass"] = bool(inner["pass"])
    else:  # pragma: no cover - guarded at import time
        report["error"] = f"unknown kind {cert.kind!r}"
        report["pass"] = False
    return report


# ---------------------------------------------------------------------------
# full-rank witnesses and the inductive builder
#
# Four composition rules, each consuming one corank-1 witness and one
# full-rank witness:
#   same-k, k=3: full(3,6) (+) cert(3, N-3)  ->  (3, N)
#   same-k, k=4: full(4,6) (+) cert(4, N-2)  ->  (4, N)
#   same-k, k=5: full(5,8) (+) cert(5, N-3)  ->  (5, N)
#   split, k>=5: cert(3, N-k+3) on rows {1,2,3} (+) full(k-3, N-3) -> (k, N)
# The same-k rules keep block rows full because each block row of the result
# is two strips with disjoint column support; the split rule is block
# diagonal outright.  Every built matrix is re-verified before a record is
# issued, so the rules themselves carry no trusted status.

def full_rank_hessian(k: int, n: int, seed: int = 0) -> HessianMatrix:
    """A (k, n) coefficient matrix of full rank, deterministic per seed.

    Small shapes have pinned witnesses; others come from a bounded seeded
    search over {-2..2} coefficients.  Nonsingularity is always re-checked
    before returning, so a bad pin cannot slip through.
    """
    m = n - k
    if k == 2:
        if m % 2:
            raise ValueError(f"(2, {n}) is identically singular (odd skew block)")
        coeffs = {(2 + u, 3 + u): 1 for u in range(1, m, 2)}
        H = assemble(ExteriorArray(2, n, coeffs))
    elif (k, n) == (3, 6):
        H = assemble(ExteriorArray(3, 6, {(3, 4, 5): 1, (2, 4, 6): 1, (1, 5, 6): 1}))
    elif (k, n) == (4, 6):
        H = assemble(ExteriorArray(4, 6, {(3, 4, 5, 6): 1, (1, 2, 5, 6): 1}))
    else:
        rng = random.Random(f"full-rank:{k}:{n}:{seed}")
        for _ in range(32):
            coeffs = {I: rng.randint(-2, 2) for I in enumerate_indices(k, n)}
            H = assemble(ExteriorArray(k, n, coeffs))
            if det_exact(H) != 0:
                return H
        raise RuntimeError(f"no full-rank witness for ({k}, {n}) in 32 seeded attempts")
    if det_exact(H) == 0:  # pragma: no cover - the pins are verified in tests
        raise RuntimeError(f"pinned witness for ({k}, {n}) is singular")
    return H


def _reachable_5(N: int) -> bool:
    """Whether ``build_corank1`` reaches (5, N): 10, every odd N >= 11, and
    N - 3 reachable for N >= 13, which closes to every N >= 10 but 12."""
    return N >= 10 and N != 12


def build_corank1(k: int, N: int, seed: int = 0) -> Certificate:
    """Compose a verified corank-1 record for (k, N) from the embedded bases.

    Raises ValueError when no composition rule reaches (k, N) — e.g. (5, 12)
    — and RuntimeError if a composed matrix fails its own re-verification.
    """
    if k < 3:
        raise ValueError("corank-1 records with full block rows need k >= 3")
    if k >= 10:
        raise ValueError("block names Apq use single digits; k must be below 10")
    if f"corank-{k}-{N}" in _REGISTRY:
        return _REGISTRY[f"corank-{k}-{N}"]
    if k == 3 and N >= 12:
        H = specialize_embed(full_rank_hessian(3, 6, seed), to_hessian(build_corank1(3, N - 3, seed)))
    elif k == 4 and N >= 10:
        H = specialize_embed(full_rank_hessian(4, 6, seed), to_hessian(build_corank1(4, N - 2, seed)))
    elif k == 5 and N >= 13 and _reachable_5(N - 3):
        H = specialize_embed(full_rank_hessian(5, 8, seed), to_hessian(build_corank1(5, N - 3, seed)))
    elif k == 5 and N % 2 == 1 and N >= 11:
        H = position_split_embed(to_hessian(build_corank1(3, N - 2, seed)), full_rank_hessian(2, N - 3, seed))
    elif k >= 6 and N - k >= 6:
        H = position_split_embed(to_hessian(build_corank1(3, N - k + 3, seed)), full_rank_hessian(k - 3, N - 3, seed))
    else:
        raise ValueError(f"no composition rule reaches (k, N) = ({k}, {N})")
    rep = rank_report(H)
    if rep["corank"] != 1 or any(r != N - k for r in rep["block_row_ranks"]):
        raise RuntimeError(f"composed ({k}, {N}) matrix fails its rank report {rep}")
    return Certificate(
        id=f"corank-{k}-{N}",
        kind="corank1",
        k=k,
        N=N,
        blocks=blocks_from_hessian(H),
        claim=_claim_for("corank1", k, N),
        catalog=0,
    )
