"""JSON schemas for graphs, fixtures, and experiment configurations.

The module reads every schema; :func:`graph_bundle_to_json` is its one
writer, the inverse of :func:`graph_bundle_from_json`.  Conventions
shared by every schema here:

* rationals are JSON integers or strings like ``"3/2"`` (decimal strings
  are read exactly; floats are read via their shortest decimal form);
* complex numbers are two-element arrays ``[re, im]``;
* complex matrices are row-major nestings of those pairs;
* schema violations raise :class:`SchemaError`, whose message starts
  with the dotted path of the offending field.

This module checks only what is JSON: types, shapes, and required and
unknown keys (an object holding a key its reader does not read is
refused).  Every rule on a value (finite, within float range, signed,
integral, or tied to another field) belongs to the constructor of the
object the value goes into; its ``ValueError`` becomes a SchemaError
whose message is the JSON path of that object followed by the
constructor's message, which names the field.

The graph bundle is the shared input format, read into a
:class:`curves.GraphBundle`, which checks it whole as a stable curve::

    {"vertices": [{"id": str, "genus": int}, ...],
     "edges": [{"id": str, "tail": str, "head": str}, ...],
     "markings": [{"id": str, "vertex": str, "momentum": [rational...]}, ...],
     "minkowski": {"dim": int, "matrix": [[rational...], ...]},
     "golden": {"first": str, "second": str}}

``genus``, ``markings``, ``momentum``, ``minkowski``, ``golden`` and its
strings are optional; vertices may be plain id strings.  ``minkowski``
takes ``matrix`` or ``signature`` (``"euclidean"``, the default, or
``"lorentzian"``), not both.
"""

import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

# No layer is imported here: each parser imports the layer of the objects it
# builds, so a graph bundle loads no numpy and a biextension point no graph layer.


class SchemaError(ValueError):
    """Input does not match the expected JSON schema; carries the field path."""

    def __init__(self, message, path=()):
        self.path = tuple(path)
        loc = ".".join(str(p) for p in self.path) if self.path else "<root>"
        super().__init__(f"{loc}: {message}")


# The keys each reader reads, per object with fixed keys.
_BUNDLE = frozenset(("vertices", "edges", "markings", "minkowski", "golden"))
_VERTEX = frozenset(("id", "genus"))
_EDGE = frozenset(("id", "tail", "head"))
_MARKING = frozenset(("id", "vertex", "momentum"))
_GOLDEN = frozenset(("first", "second"))
_MINKOWSKI = frozenset(("dim", "matrix", "signature"))
_MONODROMY = frozenset(("edges", "sections1", "sections2"))
_MONODROMY_EDGE = frozenset(("c", "d1", "d2"))
_POINT = frozenset(("omega", "w", "z", "rho"))
_FIXTURE = frozenset(("genus", "dim", "edge_ids", "terms"))
_TERM = frozenset(("field", "coeff", "exponents"))
_SEGMENT = frozenset(("edges",))
_FAMILY = frozenset(("y_total", "divisor1", "divisor2", "minkowski", "alphas",
                     "imag_offset", "metric_scale"))
_INSERTION = frozenset(("c", "x", "momentum"))


def _object(data, keys, path):
    """``data`` if it is an object whose keys all lie in the frozenset ``keys``."""
    if not isinstance(data, dict):
        raise SchemaError("expected an object", path)
    if not data.keys() <= keys:
        raise SchemaError(f"unknown fields {sorted(data.keys() - keys)}", path)
    return data


def _require(data, key, path, kind=None):
    if key not in data:
        raise SchemaError(f"missing required field {key!r}", path)
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"field {key!r} has the wrong type", path + (key,))
    return value


def _as_list(value, path):
    if not isinstance(value, list):
        raise SchemaError("expected an array", path)
    return value


def _number(value, path):
    """``value`` if it is a JSON number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("expected a number", path)
    return value


def _built(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError it raises turned into a
    SchemaError at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from None


# ---------------------------------------------------------------------------
# Scalars

def rational_from_json(value, path=()):
    """Exact rational from an int, a "p/q" string, or a float literal."""
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a boolean", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"not a rational literal: {value!r}", path) from None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SchemaError("rational values must be finite", path)
        return Fraction(repr(value))
    raise SchemaError(f"expected a rational, got {type(value).__name__}", path)


def rational_to_json(value):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def complex_from_json(value, path=()):
    """Complex from a [re, im] pair (or a bare real number)."""
    if isinstance(value, bool):
        raise SchemaError("expected a complex number, got a boolean", path)
    if isinstance(value, (int, float)):
        value = [value, 0]
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
        raise SchemaError("expected [re, im]", path)
    try:
        out = complex(value[0], value[1])
    except OverflowError:  # an integer beyond the float range
        out = complex(math.inf)
    if not cmath.isfinite(out):
        raise SchemaError("complex values must be finite", path)
    return out


def complex_vector_from_json(value, path=()):
    return [complex_from_json(x, path + (i,)) for i, x in enumerate(_as_list(value, path))]


def complex_matrix_from_json(value, path=()):
    rows = _as_list(value, path)
    if not rows:
        raise SchemaError("matrix must be non-empty", path)
    out = [complex_vector_from_json(row, path + (i,)) for i, row in enumerate(rows)]
    if any(len(row) != len(out[0]) for row in out):
        raise SchemaError("matrix rows must all have the same length", path)
    return out


def rational_vector_from_json(value, path=()):
    return tuple(rational_from_json(x, path + (i,))
                 for i, x in enumerate(_as_list(value, path)))


# ---------------------------------------------------------------------------
# Files

def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from None


def json_files(directory):
    """The ``*.json`` files of ``directory``, sorted; a SchemaError unless
    it is a directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise SchemaError(f"corpus directory not found: {directory}")
    return sorted(p for p in directory.iterdir() if p.is_file() and p.suffix == ".json")


def dumps_canonical(obj):
    """Deterministic JSON text (sorted keys, trailing newline)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))


# ---------------------------------------------------------------------------
# Graph bundles

def minkowski_from_json(data, path=("minkowski",)):
    from .spaces import MinkowskiSpace
    dim = _require(_object(data, _MINKOWSKI, path), "dim", path)
    if "matrix" in data:
        if "signature" in data:
            raise SchemaError("give either matrix or signature, not both", path)
        # dim only declares the matrix's size; MinkowskiSpace checks it is >= 1.
        if type(dim) is not int:
            raise SchemaError("expected an integer", path + ("dim",))
        rows = _as_list(data["matrix"], path + ("matrix",))
        matrix = [rational_vector_from_json(row, path + ("matrix", i))
                  for i, row in enumerate(rows)]
        if len(matrix) != dim or any(len(r) != dim for r in matrix):
            raise SchemaError(f"matrix must be {dim}x{dim}", path + ("matrix",))
        return _built(path, MinkowskiSpace, matrix)
    signature = data.get("signature", "euclidean")
    if signature not in ("euclidean", "lorentzian"):
        raise SchemaError(f"unknown signature {signature!r}", path + ("signature",))
    return _built(path, getattr(MinkowskiSpace, signature), dim)


def minkowski_to_json(space):
    return {"dim": space.dim,
            "matrix": [[rational_to_json(x) for x in row] for row in space.matrix]}


def graph_bundle_from_json(data, path=()):
    """Parse the graph bundle schema into a :class:`curves.GraphBundle`."""
    from .curves import GraphBundle, Marking
    from .graphs import Multigraph
    _object(data, _BUNDLE, path)
    vertices = []
    genus = {}
    for i, v in enumerate(_as_list(_require(data, "vertices", path), path + ("vertices",))):
        if isinstance(v, str):
            vertices.append(v)
            continue
        vpath = path + ("vertices", i)
        vid = _require(_object(v, _VERTEX, vpath), "id", vpath, str)
        vertices.append(vid)
        if "genus" in v:
            genus[vid] = v["genus"]
    edges = []
    for i, e in enumerate(_as_list(_require(data, "edges", path), path + ("edges",))):
        epath = path + ("edges", i)
        _object(e, _EDGE, epath)
        edges.append((_require(e, "id", epath, str),
                      _require(e, "tail", epath, str),
                      _require(e, "head", epath, str)))
    graph = _built(path + ("edges",), Multigraph, vertices, edges)

    space = None
    if "minkowski" in data:
        space = minkowski_from_json(data["minkowski"], path + ("minkowski",))

    markings = []
    for i, m in enumerate(_as_list(data.get("markings", []), path + ("markings",))):
        mpath = path + ("markings", i)
        mid = _require(_object(m, _MARKING, mpath), "id", mpath, str)
        momentum = ()
        if "momentum" in m:
            momentum = rational_vector_from_json(m["momentum"], mpath + ("momentum",))
        markings.append(Marking(mid, _require(m, "vertex", mpath, str), momentum))

    golden = _object(data.get("golden", {}), _GOLDEN, path + ("golden",))
    for key in golden:
        _require(golden, key, path + ("golden",), str)
    return _built(path, GraphBundle, graph, genus, markings, space, golden)


def load_graph_bundle(path):
    return graph_bundle_from_json(load_json(path))


def graph_bundle_to_json(graph, genus=None, markings=(), space=None):
    # A genus is written only where it is positive: 0 is the reader's default.
    genus = genus or {}
    data = {
        "vertices": [
            {"id": v, **({"genus": genus[v]} if genus.get(v, 0) > 0 else {})}
            for v in sorted(graph.vertices)
        ],
        "edges": [
            {"id": eid, "tail": graph.endpoints(eid)[0], "head": graph.endpoints(eid)[1]}
            for eid in graph.edge_ids()
        ],
    }
    if markings:
        data["markings"] = [
            {"id": m.marking_id, "vertex": m.vertex,
             **({"momentum": [rational_to_json(x) for x in m.momentum]}
                if m.momentum else {})}
            for m in markings
        ]
    if space is not None:
        data["minkowski"] = minkowski_to_json(space)
    return data


# ---------------------------------------------------------------------------
# Monodromy fixtures

def monodromy_fixture_from_json(data, path=()):
    """Parse ``{"edges": {id: {"c": [...], "d1": {...}, "d2": {...}}}}``.

    Returns (vanishing-cycle data, crossing data).  Optional top-level
    ``sections1``/``sections2`` arrays pin the section order; otherwise
    the sorted union of the crossing keys is used.
    """
    from .monodromy import SectionCrossingData, VanishingCycleData
    edges = _require(_object(data, _MONODROMY, path), "edges", path)
    if not isinstance(edges, dict) or not edges:
        raise SchemaError("edges must be a non-empty object", path + ("edges",))
    coeffs = {}
    d1 = {}
    d2 = {}
    for eid, entry in edges.items():
        epath = path + ("edges", eid)
        _object(entry, _MONODROMY_EDGE, epath)
        coeffs[eid] = _as_list(_require(entry, "c", epath), epath + ("c",))
        for key, store in (("d1", d1), ("d2", d2)):
            store[eid] = entry.get(key, {})
            if not isinstance(store[eid], dict):
                raise SchemaError(f"{key} must be an object", epath + (key,))

    def section_list(key, blocks):
        if key in data:
            return [str(s) for s in _as_list(data[key], path + (key,))]
        return sorted({l for row in blocks.values() for l in row})

    sections1 = section_list("sections1", d1)
    sections2 = section_list("sections2", d2)
    # The genus is the length of the first cycle vector; the others must match
    # it.  The API takes a tree's genus 0, this format does not.
    genus = len(next(iter(coeffs.values())))
    if genus == 0:
        raise SchemaError("fixture needs positive genus", path)
    vc = _built(path, VanishingCycleData, genus, coeffs)
    return vc, _built(path, SectionCrossingData, sections1, sections2, d1, d2)


# ---------------------------------------------------------------------------
# Biextension points

def biextension_point_from_json(data, path=()):
    _object(data, _POINT, path)
    omega = complex_matrix_from_json(_require(data, "omega", path), path + ("omega",))
    w = complex_vector_from_json(_require(data, "w", path), path + ("w",))
    z = complex_vector_from_json(_require(data, "z", path), path + ("z",))
    rho = complex_from_json(_require(data, "rho", path), path + ("rho",))
    from .poincare import BiextensionPoint
    return _built(path, BiextensionPoint, omega, w, z, rho)


# ---------------------------------------------------------------------------
# Holomorphic fixtures and segments

def holomorphic_fixture_from_json(data, path=()):
    from .asymptotics import HolomorphicFixture
    genus = _require(_object(data, _FIXTURE, path), "genus", path)
    edge_ids = [str(e) for e in _as_list(data.get("edge_ids", []), path + ("edge_ids",))]
    fx = _built(path, HolomorphicFixture, genus, dim=data.get("dim", 1), edge_ids=edge_ids)
    if fx.genus == 0:  # the API takes a tree's genus 0, this format does not
        raise SchemaError("fixture needs positive genus", path + ("genus",))
    for i, term in enumerate(_as_list(_require(data, "terms", path), path + ("terms",))):
        tpath = path + ("terms", i)
        field = _require(_object(term, _TERM, tpath), "field", tpath, str)
        coeff = complex_matrix_from_json(_require(term, "coeff", tpath),
                                         tpath + ("coeff",))
        exponents = term.get("exponents", {})
        if not isinstance(exponents, dict):
            raise SchemaError("exponents must be an object", tpath + ("exponents",))
        _built(tpath, fx.add_term, field, coeff, exponents)
    return fx


def segment_from_json(data, path=()):
    from .asymptotics import AdmissibleSegment, SegmentEdge
    edges = _require(_object(data, _SEGMENT, path), "edges", path, dict)
    fields = frozenset(SegmentEdge._fields)
    for eid, entry in edges.items():
        epath = path + ("edges", eid)
        for k, v in _object(entry, fields, epath).items():
            _number(v, epath + (k,))
    return _built(path, AdmissibleSegment, edges)


# ---------------------------------------------------------------------------
# Degeneration families

def _divisor_from_json(value, path):
    out = []
    for i, ins in enumerate(_as_list(value, path)):
        ipath = path + (i,)
        c = rational_from_json(_require(_object(ins, _INSERTION, ipath), "c", ipath),
                               ipath + ("c",))
        x = _number(ins.get("x", 0), ipath + ("x",))
        momentum = rational_vector_from_json(_require(ins, "momentum", ipath),
                                             ipath + ("momentum",))
        out.append((c, x, momentum))
    return out


def degeneration_family_from_json(data, path=()):
    from .lab import DegenerationFamily
    y_total = rational_from_json(_require(_object(data, _FAMILY, path), "y_total", path),
                                 path + ("y_total",))
    divisor1 = _divisor_from_json(_require(data, "divisor1", path), path + ("divisor1",))
    divisor2 = None
    if data.get("divisor2") is not None:
        divisor2 = _divisor_from_json(data["divisor2"], path + ("divisor2",))
    space = None
    if "minkowski" in data:
        space = minkowski_from_json(data["minkowski"], path + ("minkowski",))
    kwargs = {}
    if "alphas" in data:
        kwargs["alphas"] = [_number(a, path + ("alphas", i))
                            for i, a in enumerate(_as_list(data["alphas"], path + ("alphas",)))]
    for key in ("imag_offset", "metric_scale"):
        if key in data:
            kwargs[key] = _number(data[key], path + (key,))
    return _built(path, DegenerationFamily, y_total, divisor1, divisor2, space=space, **kwargs)
