r"""Multigraphs, spanning forests, and integral cycle bases.

Graphs here are finite connected multigraphs with oriented edges (loops
and parallel edges allowed).  Orientation is bookkeeping only: every
quantity built downstream (Kirchhoff polynomials, momentum polynomials,
heights) is orientation independent, and the tests check that.

The designated spanning tree used by :func:`cycle_basis`, the momentum
lift and the monodromy fixtures is the greedy tree in lexicographic
edge-id order, so two runs over the same graph always agree; all three
read it through one walk, :func:`_tree_walk`.

Spanning trees and spanning 2-forests are the acyclic edge sets of size
|V|-1 and |V|-2.  Each enumeration is one depth-first search over the
non-loop edges in lexicographic order that extends a single union-find
and rolls it back when it backtracks, so an edge closing a cycle prunes
every subset through it and the output order is that of
``itertools.combinations``.  The search runs on vertex positions, with
the union-find's parents and ranks in lists; its find, union and
rollback are inline, and it yields each subset as an int mask in which
edge k of ``edge_ids()`` is bit k, the key convention of the packed
polynomials.  :func:`spanning_trees` and :func:`spanning_2forests`
decode the masks into edge-id tuples.
"""

from operator import add


class Multigraph:
    """Oriented multigraph.

    Parameters
    ----------
    vertices : iterable of str
        Vertex ids, unique.
    edges : iterable of (id, tail, head)
        Edge id plus endpoint vertex ids; ``tail == head`` gives a loop.
    """

    __slots__ = ("vertices", "edges", "_edge_by_id")

    def __init__(self, vertices, edges):
        vertices = tuple(str(v) for v in vertices)
        if not vertices:
            raise ValueError("a graph needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex ids")
        vset = set(vertices)
        norm = []
        seen = set()
        for e in edges:
            eid, tail, head = e
            eid, tail, head = str(eid), str(tail), str(head)
            if eid in seen:
                raise ValueError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if tail not in vset or head not in vset:
                raise ValueError(f"edge {eid!r} has unknown endpoint {tail!r} or {head!r}")
            norm.append((eid, tail, head))
        self.vertices = vertices
        self.edges = tuple(norm)
        self._edge_by_id = {eid: (tail, head) for eid, tail, head in self.edges}

    # -- simple accessors -------------------------------------------------

    def edge_ids(self):
        """Edge ids in lexicographic order (the canonical variable order)."""
        return tuple(sorted(self._edge_by_id))

    def endpoints(self, edge_id):
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise ValueError(f"no edge {edge_id!r} in this graph") from None

    def is_loop(self, edge_id):
        t, h = self.endpoints(edge_id)
        return t == h

    # -- connectivity -----------------------------------------------------

    def components(self, edge_subset=None):
        """Vertex sets of connected components, using only ``edge_subset``
        (all edges when None).  Deterministic: sorted by smallest member."""
        index = {v: i for i, v in enumerate(self.vertices)}
        uf = _UnionFind(len(index))
        for eid, tail, head in self.edges:
            if edge_subset is None or eid in edge_subset:
                uf.union(index[tail], index[head])
        groups = {}
        for i, v in enumerate(self.vertices):
            groups.setdefault(uf.find(i), set()).add(v)
        return sorted((frozenset(g) for g in groups.values()), key=min)

    def is_connected(self, edge_subset=None):
        return len(self.components(edge_subset)) == 1

    def __repr__(self):
        return f"Multigraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


class _UnionFind:
    """Union by rank over the positions 0..n-1, held in two lists.
    ``find`` does not compress paths, so the search of
    :func:`_acyclic_subsets` can roll a union back by resetting one
    parent; union by rank keeps every tree's depth at most log2(n)."""

    __slots__ = ("parent", "rank")

    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x):
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        rank = self.rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        return True


class CycleVector:
    """Integer 1-chain supported on a graph's edges, stored sparsely."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {e: int(c) for e, c in coeffs.items() if c != 0}

    def coefficient(self, edge_id):
        return self.coeffs.get(edge_id, 0)

    def support(self):
        return frozenset(self.coeffs)

    def boundary(self, graph):
        """Vertex-indexed boundary (head gets +c, tail gets -c per edge)."""
        out = {v: 0 for v in graph.vertices}
        for e, c in self.coeffs.items():
            tail, head = graph.endpoints(e)
            out[head] += c
            out[tail] -= c
        return out

    def is_cycle(self, graph):
        return all(c == 0 for c in self.boundary(graph).values())

    def __eq__(self, other):
        return isinstance(other, CycleVector) and self.coeffs == other.coeffs

    def __repr__(self):
        inner = " ".join(f"{c:+d}*{e}" for e, c in sorted(self.coeffs.items()))
        return f"CycleVector({inner or '0'})"


class CycleBasis:
    """Integral basis of the cycle lattice H_1(G; Z).

    ``cycles[i]`` is the fundamental cycle of the i-th non-tree edge in
    lexicographic order, with coefficient +1 on that edge.  ``walk`` is
    the :func:`_tree_walk` of a basis that :func:`cycle_basis` built, else None.
    """

    __slots__ = ("graph", "tree", "cycles", "nontree_edges", "walk")

    def __init__(self, graph, tree, cycles, nontree_edges):
        self.graph = graph
        self.tree = tree
        self.cycles = list(cycles)
        self.nontree_edges = tuple(nontree_edges)
        self.walk = None

    def __len__(self):
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    def matrix(self):
        """Dense coefficient table: rows are cycles, columns are the
        graph's edges in lexicographic id order."""
        edge_order = self.graph.edge_ids()
        return [[c.coefficient(e) for e in edge_order] for c in self.cycles]


def designated_tree(graph):
    """Edge ids of the canonical spanning tree (greedy, lex edge order).

    Raises ValueError if the graph is disconnected.
    """
    return _tree_walk(graph)[0]


def first_betti(graph):
    """Number of independent cycles, |E| - |V| + 1 (connected graphs)."""
    if not graph.is_connected():
        raise ValueError("first Betti number requires a connected graph")
    return len(graph.edges) - len(graph.vertices) + 1


def _tree_walk(graph):
    """The designated spanning tree, greedy in lexicographic edge order,
    and its breadth-first walk from the smallest vertex id over the tree
    edges in that order.  Raises ValueError if the graph is disconnected.

    Returns ``(tree, order, up, depth)``: the tree's edge ids; the vertices
    in walk order, root first; ``up[v] = (parent, edge, sign)`` for every
    other vertex v, with sign +1 when the edge runs from v to its parent
    and -1 when it runs from the parent to v; and ``depth[v]``, the number
    of tree edges from the root.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    uf = _UnionFind(len(index))
    tree, adj = [], {v: [] for v in graph.vertices}
    for eid in graph.edge_ids():
        tail, head = graph.endpoints(eid)
        if tail != head and uf.union(index[tail], index[head]):
            tree.append(eid)
            adj[tail].append((head, eid, -1))
            adj[head].append((tail, eid, +1))
    if len(tree) != len(graph.vertices) - 1:
        raise ValueError("graph is disconnected; no spanning tree exists")
    root = min(graph.vertices)
    order, up, depth = [root], {}, {root: 0}
    for u in order:  # the list grows as the walk reaches new vertices
        for w, eid, sign in adj[u]:
            if w not in depth:
                up[w] = (u, eid, sign)
                depth[w] = depth[u] + 1
                order.append(w)
    return frozenset(tree), order, up, depth


def cycle_basis(graph):
    """Fundamental-cycle basis for the designated spanning tree.

    Each non-tree edge e (in lexicographic id order) contributes one
    cycle: coefficient +1 on e, closed up by the tree path from its head
    to its tail, found by stepping the deeper end up the rooted tree until
    the two ends meet.  A loop is its own fundamental cycle (the unit
    vector on itself).

    Raises ValueError on disconnected input.
    """
    tree, _order, up, depth = walk = _tree_walk(graph)
    cycles = []
    nontree = [e for e in graph.edge_ids() if e not in tree]
    for eid in nontree:
        tail, head = graph.endpoints(eid)
        coeffs = {eid: 1}
        # From the head's side the path climbs, so an edge counts +1 when
        # it runs from child to parent; toward the tail it descends.
        a, b = head, tail
        while a != b:
            if depth[a] >= depth[b]:
                a, f, sign = up[a]
                coeffs[f] = sign
            else:
                b, f, sign = up[b]
                coeffs[f] = -sign
        cycles.append(CycleVector(coeffs))
    basis = CycleBasis(graph, tree, cycles, nontree)
    basis.walk = walk
    return basis


def boundary_matrix(graph):
    """Vertex-by-edge incidence matrix with +1 at the head, -1 at the tail.

    Rows follow sorted vertex ids, columns sorted edge ids; loop columns
    are zero.  Entries are plain ints.
    """
    vorder = sorted(graph.vertices)
    vindex = {v: i for i, v in enumerate(vorder)}
    eorder = graph.edge_ids()
    mat = [[0] * len(eorder) for _ in vorder]
    for j, eid in enumerate(eorder):
        tail, head = graph.endpoints(eid)
        if tail == head:
            continue
        mat[vindex[head]][j] += 1
        mat[vindex[tail]][j] -= 1
    return mat


def _acyclic_subsets(graph, size, uf, payload=None):
    """Yield every acyclic ``size``-subset of the non-loop edges, as an
    int mask in which edge k of ``graph.edge_ids()`` is bit k, in the
    order of ``itertools.combinations``.

    Depth-first search over the edges in lexicographic id order on ``uf``,
    a :class:`_UnionFind` over the positions of ``graph.vertices``: each
    edge is tried as included, its endpoints' roots are merged, and the
    merge is rolled back on backtracking by resetting the absorbed root's
    parent (and the rank it bumped).  An edge that closes a cycle is
    skipped, with every subset through it.  With ``payload``, a list of
    int tuples indexed by vertex position, each root's entry holds the
    elementwise sum over its component: a merge adds the absorbed root's
    entry, and the rollback puts back the entry it replaced.  At each
    yield ``uf`` and ``payload`` hold exactly the yielded subset's
    components; when the search ends they are as they were.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    ends = []
    for k, eid in enumerate(graph.edge_ids()):
        tail, head = graph.endpoints(eid)
        if tail != head:
            ends.append((1 << k, index[tail], index[head]))
    parent, rank = uf.parent, uf.rank
    slack = len(ends) - size  # how far past its depth a choice may reach
    # Per chosen edge: its position in ``ends``, the root it absorbed,
    # whether it bumped a rank, and the payload entry it replaced.
    undo = []
    mask = i = 0
    while True:
        if len(undo) == size:
            yield mask
        elif i <= slack + len(undo):
            bit, a, b = ends[i]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                if rank[a] < rank[b]:
                    a, b = b, a
                parent[b] = a
                bumped = rank[a] == rank[b]
                rank[a] += bumped
                old = None
                if payload is not None:
                    old = payload[a]
                    payload[a] = tuple(map(add, old, payload[b]))
                undo.append((i, b, bumped, old))
                mask |= bit
            i += 1
            continue
        if not undo:
            return
        # Backtrack: drop the latest edge and go on with the one after it.
        i, b, bumped, old = undo.pop()
        a = parent[b]
        parent[b] = b
        rank[a] -= bumped
        if old is not None:
            payload[a] = old
        mask ^= ends[i][0]
        i += 1


def _edge_tuple(ids, mask):
    """The ids ``ids[k]`` of the bits k set in ``mask``, in order."""
    return tuple(e for k, e in enumerate(ids) if mask >> k & 1)


def _tree_masks(graph, uf):
    """The spanning trees' edge masks, from the search of
    :func:`_acyclic_subsets` on ``uf``: a tree is an acyclic set of
    |V|-1 edges.  Raises ValueError on disconnected input, which has no
    spanning tree."""
    masks = list(_acyclic_subsets(graph, len(graph.vertices) - 1, uf))
    if not masks:  # a connected graph has at least one
        raise ValueError("graph is disconnected; it has no spanning trees")
    return masks


def spanning_trees(graph):
    """All spanning trees, as sorted tuples of edge ids, in lexicographic
    order.

    One depth-first search over the non-loop edges extends a single
    rollback union-find (see :func:`_acyclic_subsets`).  Raises
    ValueError on disconnected input, which has no spanning tree.
    """
    ids, uf = graph.edge_ids(), _UnionFind(len(graph.vertices))
    return [_edge_tuple(ids, mask) for mask in _tree_masks(graph, uf)]


def _two_forests(graph, uf, payload=None):
    """Iterator over the spanning 2-forests' edge masks, from the search
    of :func:`_acyclic_subsets` on ``uf`` (and ``payload``): an acyclic
    set of |V|-2 edges leaves exactly two components.  Raises ValueError
    on disconnected input."""
    if not graph.is_connected():
        raise ValueError("graph is disconnected; 2-forest enumeration needs connected input")
    nv = len(graph.vertices)
    return _acyclic_subsets(graph, nv - 2, uf, payload) if nv >= 2 else iter(())


def spanning_2forests(graph):
    """All spanning 2-forests, with their vertex bipartitions.

    Returns a list of ``(edges, (part0, part1))`` where ``edges`` is a
    sorted tuple of edge ids, the parts are frozensets of vertex ids
    covering all vertices, and ``part0`` contains the smallest vertex id.
    Forests have |V|-2 edges and exactly two components; they come in
    lexicographic order from the same search as :func:`spanning_trees`,
    and each forest's parts are read off the search's union-find.  Raises
    ValueError on disconnected input.
    """
    ids, vertices = graph.edge_ids(), graph.vertices
    vmin = vertices.index(min(vertices))
    everything = frozenset(vertices)
    uf = _UnionFind(len(vertices))
    find = uf.find
    out = []
    for mask in _two_forests(graph, uf):
        root = find(vmin)
        part0 = frozenset(v for i, v in enumerate(vertices) if find(i) == root)
        out.append((_edge_tuple(ids, mask), (part0, everything - part0)))
    return out
