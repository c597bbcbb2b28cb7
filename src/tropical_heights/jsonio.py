"""JSON schemas for graphs, fixtures, and experiment configurations.

Conventions shared by every schema here:

* rationals are JSON integers or strings like ``"3/2"`` (decimal strings
  are read exactly; floats are read via their shortest decimal form);
* complex numbers are two-element arrays ``[re, im]``;
* complex matrices are row-major nestings of those pairs;
* schema violations raise :class:`SchemaError`, whose message starts
  with the dotted path of the offending field.

The graph bundle is the shared input format::

    {"vertices": [{"id": str, "genus": int}, ...],
     "edges": [{"id": str, "tail": str, "head": str}, ...],
     "markings": [{"id": str, "vertex": str, "momentum": [rational...]}, ...],
     "minkowski": {"dim": int, "matrix": [[rational...], ...]}}

``genus``, ``markings`` and ``minkowski`` are optional; vertices may be
plain id strings when no genus is attached.
"""

import cmath
import json
import math
from fractions import Fraction

# Only the exact layers are imported here.  The parsers of monodromy
# fixtures and of numeric objects (biextension points, holomorphic fixtures,
# segments, families) import their layer when called, so that loading a
# graph bundle does not load numpy.
from .curves import Marking, StableCurve, restrict_momenta
from .graphs import Multigraph
from .symanzik import MinkowskiSpace


class SchemaError(ValueError):
    """Input does not match the expected JSON schema; carries the field path."""

    def __init__(self, message, path=()):
        self.path = tuple(path)
        loc = ".".join(str(p) for p in self.path) if self.path else "<root>"
        super().__init__(f"{loc}: {message}")


def _require(data, key, path, kind=None):
    if not isinstance(data, dict):
        raise SchemaError("expected an object", path)
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


def complex_to_json(value):
    value = complex(value)
    return [value.real, value.imag]


def complex_vector_from_json(value, path=()):
    return [complex_from_json(x, path + (i,)) for i, x in enumerate(_as_list(value, path))]


def complex_vector_to_json(vec):
    return [complex_to_json(x) for x in vec]


def complex_matrix_from_json(value, path=()):
    rows = _as_list(value, path)
    if not rows:
        raise SchemaError("matrix must be non-empty", path)
    out = [complex_vector_from_json(row, path + (i,)) for i, row in enumerate(rows)]
    if any(len(row) != len(out[0]) for row in out):
        raise SchemaError("matrix rows must all have the same length", path)
    return out


def complex_matrix_to_json(mat):
    return [complex_vector_to_json(row) for row in mat]


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


def dumps_canonical(obj):
    """Deterministic JSON text (sorted keys, trailing newline)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))


# ---------------------------------------------------------------------------
# Graph bundles

class GraphBundle:
    """Parsed graph JSON: the multigraph plus optional curve/momentum data.

    ``space`` is the momentum space: the bundle's ``minkowski`` entry, or
    Euclidean of the marking momenta's dimension when that is omitted.
    It is None only when no marking carries a momentum.
    """

    __slots__ = ("graph", "genus", "markings", "space", "raw")

    def __init__(self, graph, genus=None, markings=(), space=None, raw=None):
        self.graph = graph
        self.genus = genus
        self.markings = tuple(markings)
        if space is None:
            dim = next((len(m.momentum) for m in self.markings if m.momentum), None)
            if dim is not None:
                space = MinkowskiSpace.euclidean(dim)
        self.space = space
        self.raw = raw if raw is not None else {}

    def curve(self):
        """The bundle as a stable-curve candidate (vertex genera default 0)."""
        return StableCurve(self.graph, genus=self.genus, markings=self.markings,
                           space=self.space)

    def momentum_assignment(self):
        """Per-vertex momenta summed from the markings (None if unmarked)."""
        if self.space is None:
            return None
        return restrict_momenta(self.curve())


def minkowski_from_json(data, path=("minkowski",)):
    dim = _require(data, "dim", path)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SchemaError("dim must be a positive integer", path + ("dim",))
    if "matrix" in data:
        rows = _as_list(data["matrix"], path + ("matrix",))
        matrix = [rational_vector_from_json(row, path + ("matrix", i))
                  for i, row in enumerate(rows)]
        if len(matrix) != dim or any(len(r) != dim for r in matrix):
            raise SchemaError(f"matrix must be {dim}x{dim}", path + ("matrix",))
        return MinkowskiSpace(matrix)
    signature = data.get("signature", "euclidean")
    if signature == "euclidean":
        return MinkowskiSpace.euclidean(dim)
    if signature == "lorentzian":
        return MinkowskiSpace.lorentzian(dim)
    raise SchemaError(f"unknown signature {signature!r}", path + ("signature",))


def minkowski_to_json(space):
    return {"dim": space.dim,
            "matrix": [[rational_to_json(x) for x in row] for row in space.matrix]}


def graph_bundle_from_json(data, path=()):
    """Parse the graph bundle schema into a :class:`GraphBundle`."""
    if not isinstance(data, dict):
        raise SchemaError("expected a graph object", path)
    vertices = []
    genus = {}
    has_genus = False
    for i, v in enumerate(_as_list(_require(data, "vertices", path), path + ("vertices",))):
        vpath = path + ("vertices", i)
        if isinstance(v, str):
            vertices.append(v)
            continue
        vid = _require(v, "id", vpath, str)
        vertices.append(vid)
        if "genus" in v:
            g = v["genus"]
            if isinstance(g, bool) or not isinstance(g, int) or g < 0:
                raise SchemaError("genus must be a non-negative integer",
                                  vpath + ("genus",))
            genus[vid] = g
            has_genus = True
    edges = []
    for i, e in enumerate(_as_list(_require(data, "edges", path), path + ("edges",))):
        epath = path + ("edges", i)
        edges.append((_require(e, "id", epath, str),
                      _require(e, "tail", epath, str),
                      _require(e, "head", epath, str)))
    try:
        graph = Multigraph(vertices, edges)
    except ValueError as exc:
        raise SchemaError(str(exc), path + ("edges",)) from None

    space = None
    if "minkowski" in data:
        space = minkowski_from_json(data["minkowski"], path + ("minkowski",))

    markings = []
    for i, m in enumerate(_as_list(data.get("markings", []), path + ("markings",))):
        mpath = path + ("markings", i)
        mid = _require(m, "id", mpath, str)
        vertex = _require(m, "vertex", mpath, str)
        if vertex not in graph.vertices:
            raise SchemaError(f"marking vertex {vertex!r} is not in the graph",
                              mpath + ("vertex",))
        momentum = ()
        if "momentum" in m:
            momentum = rational_vector_from_json(m["momentum"], mpath + ("momentum",))
        markings.append(Marking(mid, vertex, momentum))

    return GraphBundle(graph, genus=genus if has_genus else None,
                       markings=markings, space=space, raw=data)


def load_graph_bundle(path):
    return graph_bundle_from_json(load_json(path))


def graph_bundle_to_json(graph, genus=None, markings=(), space=None, extra=None):
    data = {
        "vertices": [
            {"id": v, **({"genus": genus[v]} if genus and v in genus else {})}
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
    if extra:
        data.update(extra)
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
    edges = _require(data, "edges", path)
    if not isinstance(edges, dict) or not edges:
        raise SchemaError("edges must be a non-empty object", path + ("edges",))
    coeffs = {}
    d1 = {}
    d2 = {}
    genus = None
    for eid, entry in edges.items():
        epath = path + ("edges", eid)
        c = _as_list(_require(entry, "c", epath), epath + ("c",))
        row = []
        for i, x in enumerate(c):
            if isinstance(x, bool) or not isinstance(x, int):
                raise SchemaError("cycle coefficients must be integers",
                                  epath + ("c", i))
            row.append(x)
        if genus is None:
            genus = len(row)
        elif len(row) != genus:
            raise SchemaError(f"cycle vector length {len(row)} != genus {genus}",
                              epath + ("c",))
        coeffs[eid] = tuple(row)
        for key, store in (("d1", d1), ("d2", d2)):
            block = entry.get(key, {})
            if not isinstance(block, dict):
                raise SchemaError(f"{key} must be an object", epath + (key,))
            out = {}
            for l, k in block.items():
                if isinstance(k, bool) or not isinstance(k, int):
                    raise SchemaError("crossing counts must be integers",
                                      epath + (key, l))
                out[str(l)] = k
            store[eid] = out
    if genus == 0:
        raise SchemaError("fixture needs positive genus", path)

    def section_list(key, blocks):
        if key in data:
            return [str(s) for s in _as_list(data[key], path + (key,))]
        return sorted({l for row in blocks.values() for l in row})

    sections1 = section_list("sections1", d1)
    sections2 = section_list("sections2", d2)
    vc = VanishingCycleData(genus, coeffs)
    sc = SectionCrossingData(sections1, sections2, d1, d2)
    return vc, sc


def monodromy_fixture_to_json(vc, sc):
    edges = {}
    for eid in vc.edges():
        edges[eid] = {
            "c": list(vc.vector(eid)),
            "d1": dict(sc.crossings(eid, 1)),
            "d2": dict(sc.crossings(eid, 2)),
        }
    return {"edges": edges,
            "sections1": list(sc.sections1),
            "sections2": list(sc.sections2)}


# ---------------------------------------------------------------------------
# Biextension points

def biextension_point_from_json(data, path=()):
    from .poincare import BiextensionPoint
    omega = complex_matrix_from_json(_require(data, "omega", path), path + ("omega",))
    w = complex_vector_from_json(_require(data, "w", path), path + ("w",))
    z = complex_vector_from_json(_require(data, "z", path), path + ("z",))
    rho = complex_from_json(_require(data, "rho", path), path + ("rho",))
    try:
        return BiextensionPoint(omega, w, z, rho)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from None


def biextension_point_to_json(point):
    return {
        "omega": complex_matrix_to_json(point.omega.tolist()),
        "w": complex_vector_to_json(point.w.tolist()),
        "z": complex_vector_to_json(point.z.tolist()),
        "rho": complex_to_json(point.rho),
    }


# ---------------------------------------------------------------------------
# Holomorphic fixtures and segments

def holomorphic_fixture_from_json(data, path=()):
    from .asymptotics import HolomorphicFixture
    genus = _require(data, "genus", path)
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 1:
        raise SchemaError("genus must be a positive integer", path + ("genus",))
    dim = data.get("dim", 1)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SchemaError("dim must be a positive integer", path + ("dim",))
    edge_ids = [str(e) for e in _as_list(data.get("edge_ids", []), path + ("edge_ids",))]
    fx = HolomorphicFixture(genus, dim=dim, edge_ids=edge_ids)
    for i, term in enumerate(_as_list(_require(data, "terms", path), path + ("terms",))):
        tpath = path + ("terms", i)
        field = _require(term, "field", tpath, str)
        coeff = complex_matrix_from_json(_require(term, "coeff", tpath),
                                         tpath + ("coeff",))
        exponents = term.get("exponents", {})
        if not isinstance(exponents, dict):
            raise SchemaError("exponents must be an object", tpath + ("exponents",))
        for e, k in exponents.items():
            if isinstance(k, bool) or not isinstance(k, int) or k < 0:
                raise SchemaError("exponents must be non-negative integers",
                                  tpath + ("exponents", e))
        try:
            fx.add_term(field, coeff, exponents)
        except ValueError as exc:
            raise SchemaError(str(exc), tpath) from None
    return fx


def holomorphic_fixture_to_json(fixture):
    terms = []
    for field in fixture._FIELDS:
        for key in sorted(fixture.terms[field]):
            coeff = fixture.terms[field][key]
            entry = {"field": field, "coeff": complex_matrix_to_json(coeff.tolist())}
            exponents = {e: k for e, k in zip(fixture.edge_ids, key) if k}
            if exponents:
                entry["exponents"] = exponents
            terms.append(entry)
    return {"genus": fixture.genus, "dim": fixture.dim,
            "edge_ids": list(fixture.edge_ids), "terms": terms}


def segment_from_json(data, path=()):
    from .asymptotics import AdmissibleSegment, SegmentEdge
    known = set(SegmentEdge._fields)
    edges = _require(data, "edges", path)
    if not isinstance(edges, dict) or not edges:
        raise SchemaError("edges must be a non-empty object", path + ("edges",))
    parsed = {}
    for eid, entry in edges.items():
        epath = path + ("edges", eid)
        if not isinstance(entry, dict):
            raise SchemaError("expected an object of segment fields", epath)
        unknown = set(entry) - known
        if unknown:
            raise SchemaError(f"unknown segment fields {sorted(unknown)}", epath)
        if "y_scale" not in entry:
            raise SchemaError("missing required field 'y_scale'", epath)
        fields = {}
        for k, v in entry.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"field {k!r} must be a number", epath + (k,))
            fields[k] = float(v)
        parsed[eid] = SegmentEdge(**fields)
    try:
        return AdmissibleSegment(parsed)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from None


def segment_to_json(segment):
    out = {}
    for eid, spec in sorted(segment.edges.items()):
        entry = {"y_scale": spec.y_scale}
        for field in ("phase_amplitude", "phase_frequency", "phase_offset",
                      "imag_offset"):
            value = getattr(spec, field)
            if value:
                entry[field] = value
        out[eid] = entry
    return {"edges": out}


# ---------------------------------------------------------------------------
# Degeneration families

def _divisor_from_json(value, path):
    out = []
    for i, ins in enumerate(_as_list(value, path)):
        ipath = path + (i,)
        c = rational_from_json(_require(ins, "c", ipath), ipath + ("c",))
        x = ins.get("x", 0)
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise SchemaError("x must be a number", ipath + ("x",))
        momentum = rational_vector_from_json(_require(ins, "momentum", ipath),
                                             ipath + ("momentum",))
        out.append((c, float(x), momentum))
    return out


def degeneration_family_from_json(data, path=()):
    from .lab import DegenerationFamily
    y_total = rational_from_json(_require(data, "y_total", path), path + ("y_total",))
    divisor1 = _divisor_from_json(_require(data, "divisor1", path), path + ("divisor1",))
    divisor2 = None
    if data.get("divisor2") is not None:
        divisor2 = _divisor_from_json(data["divisor2"], path + ("divisor2",))
    space = None
    if "minkowski" in data:
        space = minkowski_from_json(data["minkowski"], path + ("minkowski",))
    kwargs = {}
    if "alphas" in data:
        alphas = _as_list(data["alphas"], path + ("alphas",))
        for i, a in enumerate(alphas):
            if isinstance(a, bool) or not isinstance(a, (int, float)) or a <= 0:
                raise SchemaError("alphas must be positive numbers",
                                  path + ("alphas", i))
        kwargs["alphas"] = [float(a) for a in alphas]
    for key in ("imag_offset", "metric_scale"):
        if key in data:
            v = data[key]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"{key} must be a number", path + (key,))
            kwargs[key] = float(v)
    if "mode" in data:
        kwargs["mode"] = data["mode"]
    try:
        return DegenerationFamily(float(y_total), divisor1, divisor2, space=space,
                                  **kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from None


def degeneration_family_to_json(family):
    def divisor(insertions):
        return [{"c": rational_to_json(ins.c), "x": ins.x,
                 "momentum": [rational_to_json(p) for p in ins.momentum]}
                for ins in insertions]

    data = {"y_total": family.y_total,
            "divisor1": divisor(family.divisor1),
            "mode": family.mode,
            "alphas": list(family.alphas),
            "imag_offset": family.imag_offset,
            "metric_scale": family.metric_scale,
            "minkowski": minkowski_to_json(family.space)}
    if family.divisor2 is not None:
        data["divisor2"] = divisor(family.divisor2)
    return data
