"""Problem instance files: exact-rational storage, digests, seeded generation.

Instances are single JSON documents. Matrix and vector entries may be JSON
numbers or strings like ``"1/2"``; strings are parsed exactly as rationals
before conversion to float, so golden data stays free of decimal-entry
drift. Spanning sets are stored pre-orthonormalization to remain
human-auditable and are orthonormalized on load.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .frames import FusionSystem, subspace_from_spanning
from .numerics import DEFAULT_TOL, ToleranceProfile


def parse_number(value, where: str) -> float:
    """Parse one finite scalar entry: JSON number, or exact rational/decimal string."""
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise ValueError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        number = float(Fraction(value) if isinstance(value, str) else value)
    except OverflowError as exc:
        raise ValueError(f"{where}: the value lies beyond the float range") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: cannot parse {value!r} as a rational") from exc
    if not math.isfinite(number):
        raise ValueError(f"{where}: expected a finite number")
    return number


def parse_int(value, where: str) -> int:
    """Parse one integer field: an int, or a number or string ``parse_number`` reads as integral."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = parse_number(value, where)
    if not number.is_integer():
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return int(number)


def _parse_vector(entries, length: int, where: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != length:
        raise ValueError(f"{where}: expected {length} entries")
    # finite JSON floats need no scalar parsing; a finite sum has finite terms, and a sum
    # that overflows only sends finite entries down the per-entry path
    if set(map(type, entries)) <= {float} and math.isfinite(sum(entries)):
        return np.array(entries)
    return np.array([parse_number(v, f"{where}[{i}]") for i, v in enumerate(entries)])


@dataclass(eq=False)
class ProblemInstance:
    """One parsed instance: ambient dimension, K, named systems, options."""

    ambient_dim: int
    k_matrix: np.ndarray
    systems: dict
    options: dict
    document: dict

    def system(self, name: str) -> FusionSystem:
        if not isinstance(name, str) or name not in self.systems:
            raise ValueError(f"instance has no system named {name!r}")
        return self.systems[name]


def _parse_k(doc_k, ambient_dim: int) -> np.ndarray:
    if not isinstance(doc_k, dict):
        raise ValueError("k_matrix: expected an object with rows, cols, entries")
    try:
        rows, cols = (parse_int(doc_k[name], f"k_matrix.{name}") for name in ("rows", "cols"))
        entries = doc_k["entries"]
    except KeyError as exc:
        raise ValueError(f"k_matrix: missing field {exc.args[0]!r}") from exc
    if rows != ambient_dim:
        raise ValueError("k_matrix: rows must equal ambient_dim")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ValueError(f"k_matrix: expected {rows} rows")
    return np.vstack(
        [_parse_vector(row, cols, f"k_matrix row {i}") for i, row in enumerate(entries)]
    ).reshape(rows, cols)


def _parse_system(name: str, body, ambient_dim: int, tol: ToleranceProfile):
    if not isinstance(body, dict) or not isinstance(body.get("members"), list):
        raise ValueError(f"system {name!r}: expected an object with a members list")
    members = []
    for i, member in enumerate(body["members"]):
        where = f"system {name!r} member {i}"
        if not isinstance(member, dict):
            raise ValueError(f"{where}: expected an object")
        weight = parse_number(member.get("weight", 1), f"{where} weight")
        if weight <= 0.0:
            raise ValueError(f"{where}: weight must be positive")
        span = member.get("span")
        if not isinstance(span, list):
            raise ValueError(f"{where}: expected a span list")
        vectors = [
            _parse_vector(v, ambient_dim, f"{where} span vector {j}")
            for j, v in enumerate(span)
        ]
        members.append((subspace_from_spanning(vectors, tol), weight))
    return FusionSystem(ambient_dim, tuple(members))


def instance_from_document(doc, tol: ToleranceProfile = DEFAULT_TOL) -> ProblemInstance:
    """Validate a parsed document and build the working instance."""
    if not isinstance(doc, dict):
        raise ValueError("instance document must be an object")
    if "ambient_dim" not in doc:
        raise ValueError("missing field 'ambient_dim'")
    ambient_dim = parse_int(doc["ambient_dim"], "ambient_dim")
    if ambient_dim <= 0:
        raise ValueError("ambient_dim must be positive")
    if "k_matrix" not in doc:
        raise ValueError("missing field 'k_matrix'")
    k = _parse_k(doc["k_matrix"], ambient_dim)
    raw_systems = doc.get("systems")
    if not isinstance(raw_systems, dict) or "W" not in raw_systems:
        raise ValueError("instance must name at least one system 'W'")
    systems = {
        name: _parse_system(name, body, ambient_dim, tol)
        for name, body in raw_systems.items()
    }
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ValueError("options must be an object")
    return ProblemInstance(ambient_dim, k, systems, options, doc)


def read_document(path):
    """Parse an instance file's JSON; a syntax error becomes a ValueError."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"parse error in {path} at line {exc.lineno}: {exc.msg}") from exc


def load_instance(path, tol: ToleranceProfile = DEFAULT_TOL) -> ProblemInstance:
    """Load and validate an instance file."""
    return instance_from_document(read_document(path), tol)


def canonical_text(doc) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_instance(instance: ProblemInstance, path) -> None:
    Path(path).write_text(canonical_text(instance.document))


def document_digest(doc) -> str:
    """Content hash of a document in canonical form."""
    return hashlib.sha256(canonical_text(doc).encode("utf-8")).hexdigest()


def instance_digest(instance: ProblemInstance) -> str:
    return document_digest(instance.document)


def _quantize(values: np.ndarray) -> np.ndarray:
    # 1e-12 grid keeps the JSON short while staying far above rank cutoffs
    return np.round(np.asarray(values, dtype=float) * 1e12) / 1e12


def random_instance(
    seed: int, ambient_dim: int, member_count: int, rank_k: int
) -> ProblemInstance:
    """Seeded instance: K as orthogonal factors times a diagonal, Gaussian members.

    Deterministic for a fixed seed; the emitted document reproduces the
    parsed arrays exactly because both come from the same quantized values.
    """
    if ambient_dim <= 0 or member_count <= 0:
        raise ValueError("ambient_dim and member_count must be positive")
    if not 0 <= rank_k <= ambient_dim:
        raise ValueError("rank_k must lie between 0 and ambient_dim")
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((ambient_dim, ambient_dim)))[0]
    right = np.linalg.qr(rng.standard_normal((ambient_dim, ambient_dim)))[0]
    diag = np.zeros(ambient_dim)
    diag[:rank_k] = np.sort(rng.uniform(0.5, 2.0, rank_k))[::-1]
    k = _quantize(left @ np.diag(diag) @ right.T)

    members = []
    for _ in range(member_count):
        dim = int(rng.integers(1, ambient_dim)) if ambient_dim > 1 else 1
        span = _quantize(rng.standard_normal((dim, ambient_dim)))
        weight = float(_quantize(rng.uniform(0.5, 2.0)))
        members.append(
            {"span": [[float(x) for x in row] for row in span], "weight": weight}
        )

    document = {
        "comment": f"seeded random instance (seed={seed})",
        "ambient_dim": ambient_dim,
        "k_matrix": {
            "rows": ambient_dim,
            "cols": ambient_dim,
            "entries": [[float(x) for x in row] for row in k],
        },
        "systems": {"W": {"members": members}},
    }
    return instance_from_document(document)
