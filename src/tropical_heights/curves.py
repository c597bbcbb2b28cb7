r"""Dual graphs of stable nodal curves.

A nodal curve is encoded by its dual graph: one vertex per component
with a geometric genus label, one edge per node, and marked points
(optionally carrying external momenta) attached to vertices.  A graph
bundle read from JSON is a :class:`GraphBundle`: the :class:`StableCurve`
it describes, checked whole when it is built.  The functions here cover
the standard bookkeeping: stability, arithmetic genus, pushing marking
momenta down to vertices, and the dimension count for deformations of
the curve.
"""

from typing import NamedTuple

from .graphs import first_betti
from .spaces import MinkowskiSpace, _integer
from .symanzik import MomentumAssignment


class Marking(NamedTuple):
    """Marked point: id, the vertex it lies on, optional momentum vector."""

    marking_id: str
    vertex: str
    momentum: tuple = ()


def _vertex_genera(graph, genus):
    """Every vertex's genus from the dict ``genus`` (default 0), in O(|V|);
    raises unless each is a non-negative int on a vertex of ``graph``."""
    genus = dict(genus or {})
    out = {v: _integer(genus.pop(v, 0), "genus", v, low=0) for v in graph.vertices}
    if genus:
        raise ValueError(f"genus given for unknown vertex {next(iter(genus))!r}")
    return out


class StableCurve:
    """Dual graph with per-vertex genus and marked points.

    Parameters
    ----------
    graph : Multigraph
        Dual graph (vertices = components, edges = nodes).
    genus : dict
        Vertex id to non-negative geometric genus; missing vertices
        default to 0.
    markings : iterable of Marking, optional
    space : MinkowskiSpace, optional
        Momentum space of the marking momenta; required when any marking
        carries a non-empty momentum.
    """

    __slots__ = ("graph", "genus", "markings", "space")

    def __init__(self, graph, genus=None, markings=(), space=None):
        self.graph = graph
        self.genus = _vertex_genera(graph, genus)
        marks = []
        seen = set()
        for m in markings:
            m = Marking(str(m[0]), str(m[1]), tuple(m[2]) if len(m) > 2 else ())
            if m.marking_id in seen:
                raise ValueError(f"duplicate marking id {m.marking_id!r}")
            seen.add(m.marking_id)
            if m.vertex not in graph.vertices:
                raise ValueError(f"marking {m.marking_id!r} on unknown vertex {m.vertex!r}")
            if m.momentum and space is None:
                raise ValueError("markings carry momenta but no momentum space was given")
            if m.momentum and len(m.momentum) != space.dim:
                raise ValueError(
                    f"marking {m.marking_id!r} momentum has dimension {len(m.momentum)}, "
                    f"expected {space.dim}"
                )
            marks.append(m)
        self.markings = tuple(marks)
        self.space = space

    def valence(self, v):
        """Number of node branches at v; loops count twice."""
        val = 0
        for _eid, tail, head in self.graph.edges:
            val += (tail == v) + (head == v)
        return val

    def markings_at(self, v):
        return tuple(m for m in self.markings if m.vertex == v)

    def __repr__(self):
        return (f"StableCurve(|V|={len(self.graph.vertices)}, "
                f"|E|={len(self.graph.edges)}, n={len(self.markings)})")


class GraphBundle(StableCurve):
    """A parsed graph bundle: the stable curve it describes, checked whole
    by :class:`StableCurve`, plus its ``golden`` strings.

    ``space`` is the momentum space: the bundle's ``minkowski`` entry, or
    Euclidean of the first marking momentum's dimension when that is
    omitted.  It is None only when no marking carries a momentum.
    ``golden`` maps ``first``/``second`` to the canonical strings the
    bundle's polynomials are expected to print as.
    """

    __slots__ = ("golden",)

    def __init__(self, graph, genus=None, markings=(), space=None, golden=None):
        markings = tuple(markings)
        if space is None:
            dim = next((len(m.momentum) for m in markings if m.momentum), None)
            if dim is not None:
                space = MinkowskiSpace.euclidean(dim)
        super().__init__(graph, genus, markings, space)
        self.golden = dict(golden or {})

    def curve(self):
        """The bundle's stable curve: the bundle itself."""
        return self

    def momentum_assignment(self):
        """Per-vertex momenta summed from the markings (None if unmarked)."""
        return None if self.space is None else restrict_momenta(self)


def is_stable(curve, with_markings=False):
    """Stability: every vertex has 2g_v - 2 + val(v) > 0, where markings
    count toward the valence when ``with_markings`` is set."""
    for v in curve.graph.vertices:
        val = curve.valence(v)
        if with_markings:
            val += len(curve.markings_at(v))
        if 2 * curve.genus[v] - 2 + val <= 0:
            return False
    return True


def arithmetic_genus(curve):
    """Genus of the nodal curve: first Betti number of the dual graph
    plus the sum of the component genera."""
    return first_betti(curve.graph) + sum(curve.genus.values())


def restrict_momenta(curve):
    """Push marking momenta down to a vertex assignment (sums per vertex)."""
    if curve.space is None:
        raise ValueError("curve has no momentum space; nothing to restrict")
    return MomentumAssignment(curve.space,
                              ((m.vertex, m.momentum) for m in curve.markings if m.momentum))


class DeformationDimensions(NamedTuple):
    """Moduli dimension count: total, equisingular (node-preserving), nodes."""

    total: int
    equisingular: int
    nodes: int


def deformation_dimensions(curve, with_markings=False):
    """Dimension of the deformation space of the curve and of its
    equisingular (node-preserving) subspace.

    ``total`` is 3g - 3 (+ number of markings when counted); the
    equisingular part sums 3g_v - 3 + val(v) (+ local markings) over the
    vertices; their difference is the number of nodes, one smoothing
    parameter per node.  Requires a stable curve.
    """
    if not is_stable(curve, with_markings=with_markings):
        raise ValueError("deformation dimensions are defined for stable curves only")
    g = arithmetic_genus(curve)
    n = len(curve.markings)
    total = 3 * g - 3 + (n if with_markings else 0)
    equi = 0
    for v in curve.graph.vertices:
        local = 3 * curve.genus[v] - 3 + curve.valence(v)
        if with_markings:
            local += len(curve.markings_at(v))
        equi += local
    nodes = len(curve.graph.edges)
    # Sanity check the textbook identity; it is structural, not input-dependent.
    assert total == equi + nodes
    return DeformationDimensions(total, equi, nodes)
