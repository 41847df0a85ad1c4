"""Problem instance files: exact-rational storage, digests, seeded generation.

Instances are single JSON documents. Matrix and vector entries may be JSON
numbers or strings like ``"1/2"``; strings are parsed exactly as rationals
before conversion to float, so golden data stays free of decimal-entry
drift. Spanning sets are stored pre-orthonormalization to remain
human-auditable and are orthonormalized on load. This module reads every
field of a document, the ``options`` blocks included.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
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


def _finite_floats(entries) -> bool:
    """Every entry a finite float of exact type ``float``? A sum that overflows errs to False."""
    return set(map(type, entries)) <= {float} and math.isfinite(sum(entries))


def _parse_vector(entries, length: int, where: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != length:
        raise ValueError(f"{where}: expected {length} entries")
    if _finite_floats(entries):
        return np.array(entries)
    return np.array([parse_number(v, f"{where}[{i}]") for i, v in enumerate(entries)])


def _parse_span(span: list, length: int, where: str, tol: ToleranceProfile):
    """The subspace spanned by a list of vectors, the j-th labelled ``<where> span vector j``."""
    vectors = [_parse_vector(v, length, f"{where} span vector {j}") for j, v in enumerate(span)]
    return subspace_from_spanning(vectors, tol)


def _parse_fields(block: dict, where: str, parsers: dict) -> dict:
    """Each named field of ``block`` in order, read by ``parse(value, "<where>.<name>")``.

    A parser of None keeps the value as it is, and a missing field is an
    error. At the top level ``where`` is empty and a field's label is its name.
    """
    fields = {}
    for name, parse in parsers.items():
        if name not in block:
            raise ValueError(f"{where}: missing field {name!r}".lstrip(": "))
        label = f"{where}.{name}".lstrip(".")
        fields[name] = block[name] if parse is None else parse(block[name], label)
    return fields


def document_tolerance(doc: dict) -> ToleranceProfile:
    """The profile the document's ``options.tolerance`` sets, else ``DEFAULT_TOL``."""
    # an options block that is not an object is reported when the instance is built
    options = doc.get("options")
    block = options.get("tolerance", {}) if isinstance(options, dict) else {}
    if not isinstance(block, dict):
        raise ValueError("options.tolerance must be an object")
    names = ("rank_rel", "eq_abs", "eq_rel")
    for name in block:
        if name not in names:
            raise ValueError(f"options.tolerance: unknown field {name!r}")
    kwargs = {n: parse_number(block[n], f"options.tolerance.{n}") for n in names if n in block}
    return ToleranceProfile(**kwargs) if kwargs else DEFAULT_TOL


@dataclass(eq=False)
class ProblemInstance:
    """One parsed instance: ambient dimension, K, named systems, options, tolerance profile."""

    ambient_dim: int
    k_matrix: np.ndarray
    systems: dict
    options: dict
    document: dict
    tol: ToleranceProfile  # the spans were orthonormalized under it, and questions use it

    def system(self, name: str) -> FusionSystem:
        if not isinstance(name, str) or name not in self.systems:
            raise ValueError(f"instance has no system named {name!r}")
        return self.systems[name]

    def _option(self, name: str) -> dict:
        block = self.options.get(name)
        if not isinstance(block, dict):
            raise ValueError(f"instance option {name!r} is required for this command")
        return block

    def enlarge(self) -> tuple:
        """``options.enlarge`` as (system name, that system, member index, summand)."""
        block = self._option("enlarge")
        name = block.get("system", "V")
        base = self.system(name)
        parsers = {"index": parse_int, "span": None}
        index, span = _parse_fields(block, "options.enlarge", parsers).values()
        if not isinstance(span, list) or not all(isinstance(vec, list) for vec in span):
            raise ValueError("options.enlarge.span: expected a list of vectors")
        return name, base, index, _parse_span(span, self.ambient_dim, "options.enlarge", self.tol)

    def perturbation(self) -> dict:
        """``options.perturbation`` as its numbers epsilon, lambda1 and lambda2."""
        parsers = dict.fromkeys(("epsilon", "lambda1", "lambda2"), parse_number)
        return _parse_fields(self._option("perturbation"), "options.perturbation", parsers)


def _parse_k(doc_k, ambient_dim: int) -> np.ndarray:
    if not isinstance(doc_k, dict):
        raise ValueError("k_matrix: expected an object with rows, cols, entries")
    parsers = {"rows": parse_int, "cols": parse_int, "entries": None}
    rows, cols, entries = _parse_fields(doc_k, "k_matrix", parsers).values()
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
        members.append((_parse_span(span, ambient_dim, where, tol), weight))
    return FusionSystem(ambient_dim, tuple(members))


def instance_from_document(doc, tol: ToleranceProfile | None = None) -> ProblemInstance:
    """Validate a parsed document and build the instance under ``tol``, else its own profile."""
    if not isinstance(doc, dict):
        raise ValueError("instance document must be an object")
    own = document_tolerance(doc)  # validated even when ``tol`` replaces it
    tol = own if tol is None else tol
    ambient_dim = _parse_fields(doc, "", {"ambient_dim": parse_int})["ambient_dim"]
    if ambient_dim <= 0:
        raise ValueError("ambient_dim must be positive")
    k = _parse_k(_parse_fields(doc, "", {"k_matrix": None})["k_matrix"], ambient_dim)
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
    return ProblemInstance(ambient_dim, k, systems, options, doc, tol)


def read_document(path):
    """Parse an instance file's JSON; a syntax error becomes a ValueError."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"parse error in {path} at line {exc.lineno}: {exc.msg}") from exc


def load_instance(path, tol: ToleranceProfile | None = None) -> ProblemInstance:
    """Load and validate an instance file, under ``tol`` or else the file's own profile."""
    return instance_from_document(read_document(path), tol)


def _pieces(o, depth: int = 0):
    """``json.dumps(o, indent=2, sort_keys=True)`` in pieces; a row of finite floats is one."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if not (isinstance(o, (list, tuple, dict)) and o):
        yield json.dumps(o)
    elif isinstance(o, dict):
        for i, (key, value) in enumerate(sorted(o.items())):
            # the key as the encoder converts and quotes it: '{"<key>": null}' less its ends
            yield ("," if i else "{") + inner + json.dumps({key: None})[1:-7] + ": "
            yield from _pieces(value, depth + 1)
        yield outer + "}"
    elif _finite_floats(o):
        yield "[" + inner + ("," + inner).join(map(float.__repr__, o)) + outer + "]"
    else:
        for i, value in enumerate(o):
            yield ("," if i else "[") + inner
            yield from _pieces(value, depth + 1)
        yield outer + "]"


def canonical_text(doc) -> str:
    """Canonical serialization: ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline."""
    return "".join(_pieces(doc)) + "\n"


def save_document(doc, path) -> None:
    """Write the canonical text of ``doc`` to ``path`` piece by piece."""
    with Path(path).open("w") as fh:
        fh.writelines(_pieces(doc))
        fh.write("\n")


def save_instance(instance: ProblemInstance, path) -> None:
    """Save the document, with ``options.tolerance`` set to ``instance.tol`` where that differs."""
    doc = instance.document
    if instance.tol != document_tolerance(doc):
        doc = {**doc, "options": {**instance.options, "tolerance": asdict(instance.tol)}}
    save_document(doc, path)


def document_digest(doc) -> str:
    """SHA-256 of the document's canonical text, hashed piece by piece."""
    digest = hashlib.sha256()
    for piece in _pieces(doc):
        digest.update(piece.encode())
    digest.update(b"\n")
    return digest.hexdigest()


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
