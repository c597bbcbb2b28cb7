r"""Multigraphs, spanning forests, and integral cycle bases.

Graphs here are finite connected multigraphs with oriented edges (loops
and parallel edges allowed).  Orientation is bookkeeping only: every
quantity built downstream (Kirchhoff polynomials, momentum polynomials,
heights) is orientation independent, and the tests check that.

The designated spanning tree used by :func:`cycle_basis`, the momentum
lift and the monodromy fixtures is the greedy tree in lexicographic
edge-id order, so two runs over the same graph always agree; all three
read it through :func:`_rooted_tree`.

Spanning trees and spanning 2-forests are the acyclic edge sets of size
|V|-1 and |V|-2.  Each enumeration is one depth-first search over the
non-loop edges in lexicographic order that extends a single union-find
and rolls it back when it backtracks, so an edge closing a cycle prunes
every subset through it and the output order is that of
``itertools.combinations``.
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
        uf = _UnionFind(self.vertices)
        for eid, tail, head in self.edges:
            if edge_subset is None or eid in edge_subset:
                uf.union(tail, head)
        groups = {}
        for v in self.vertices:
            groups.setdefault(uf.find(v), set()).add(v)
        return sorted((frozenset(g) for g in groups.values()), key=min)

    def is_connected(self, edge_subset=None):
        return len(self.components(edge_subset)) == 1

    def __repr__(self):
        return f"Multigraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


class _UnionFind:
    """Union by rank with rollback: ``undo`` reverts the latest
    successful ``union``.  ``find`` does not compress paths, which
    rollback could not undo; union by rank keeps every tree's depth at
    most log2 of the item count.

    With ``payload`` (a dict from each item to a tuple of ints), each
    root's entry holds the elementwise sum over its component: ``union``
    adds the absorbed root's sum, and ``undo`` puts back the sum it
    replaced.
    """

    __slots__ = ("parent", "rank", "history", "payload")

    def __init__(self, items, payload=None):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}
        self.history = []
        self.payload = payload

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
        bumped = rank[ra] == rank[rb]
        if bumped:
            rank[ra] += 1
        payload = self.payload
        old = None
        if payload is not None:
            old = payload[ra]
            payload[ra] = tuple(map(add, old, payload[rb]))
        self.history.append((rb, bumped, old))
        return True

    def undo(self):
        rb, bumped, old = self.history.pop()
        ra = self.parent[rb]
        self.parent[rb] = rb
        if bumped:
            self.rank[ra] -= 1
        if old is not None:
            self.payload[ra] = old


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
    lexicographic order, with coefficient +1 on that edge.
    """

    __slots__ = ("graph", "tree", "cycles", "nontree_edges")

    def __init__(self, graph, tree, cycles, nontree_edges):
        self.graph = graph
        self.tree = tree
        self.cycles = list(cycles)
        self.nontree_edges = tuple(nontree_edges)

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
    uf = _UnionFind(graph.vertices)
    tree = []
    for eid in graph.edge_ids():
        tail, head = graph.endpoints(eid)
        if tail != head and uf.union(tail, head):
            tree.append(eid)
    if len(tree) != len(graph.vertices) - 1:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return frozenset(tree)


def first_betti(graph):
    """Number of independent cycles, |E| - |V| + 1 (connected graphs)."""
    if not graph.is_connected():
        raise ValueError("first Betti number requires a connected graph")
    return len(graph.edges) - len(graph.vertices) + 1


def _rooted_tree(graph, tree):
    """Breadth-first walk of the spanning tree ``tree`` (a set of edge ids)
    from the smallest vertex id, over the tree edges in lexicographic order.

    Returns ``(order, up, depth)``: the vertices in walk order, root first;
    for every other vertex v, ``up[v] = (parent, edge, sign)`` with sign +1
    when the edge runs from v to its parent and -1 when it runs from the
    parent to v; and ``depth[v]``, the number of tree edges from the root.
    """
    adj = {v: [] for v in graph.vertices}
    for eid in sorted(tree):
        tail, head = graph.endpoints(eid)
        adj[tail].append((head, eid, -1))
        adj[head].append((tail, eid, +1))
    root = min(graph.vertices)
    order, up, depth = [root], {}, {root: 0}
    for u in order:  # the list grows as the walk reaches new vertices
        for w, eid, sign in adj[u]:
            if w not in depth:
                up[w] = (u, eid, sign)
                depth[w] = depth[u] + 1
                order.append(w)
    return order, up, depth


def cycle_basis(graph):
    """Fundamental-cycle basis for the designated spanning tree.

    Each non-tree edge e (in lexicographic id order) contributes one
    cycle: coefficient +1 on e, closed up by the tree path from its head
    to its tail, found by stepping the deeper end up the rooted tree until
    the two ends meet.  A loop is its own fundamental cycle (the unit
    vector on itself).

    Raises ValueError on disconnected input.
    """
    tree = designated_tree(graph)
    _order, up, depth = _rooted_tree(graph, tree)
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
    return CycleBasis(graph, tree, cycles, nontree)


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


def _acyclic_subsets(graph, size, uf):
    """Yield every acyclic ``size``-subset of the non-loop edges, as a
    sorted tuple of edge ids, in the order of ``itertools.combinations``.

    Depth-first search over the edges in lexicographic id order: each edge
    is tried as included, merged into ``uf`` (a :class:`_UnionFind` over
    the graph's vertices) and rolled back on backtracking.  An edge that
    closes a cycle is skipped, with every subset through it.  At each
    yield ``uf`` holds exactly the yielded subset's components.
    """
    ends = [(e, *graph.endpoints(e)) for e in graph.edge_ids() if not graph.is_loop(e)]
    slack = len(ends) - size  # how far past its depth a choice may reach
    at = []  # positions in ``ends`` of the chosen edges
    chosen = []
    i = 0
    while True:
        if len(chosen) == size:
            yield tuple(chosen)
        elif i <= slack + len(chosen):
            eid, tail, head = ends[i]
            if uf.union(tail, head):
                at.append(i)
                chosen.append(eid)
            i += 1
            continue
        if not chosen:
            return
        # Backtrack: drop the latest edge and go on with the one after it.
        i = at.pop() + 1
        chosen.pop()
        uf.undo()


def spanning_trees(graph):
    """All spanning trees, as sorted tuples of edge ids, in lexicographic
    order.

    One depth-first search over the non-loop edges extends a single
    rollback union-find (see :func:`_acyclic_subsets`): a tree is an
    acyclic set of |V|-1 edges.  Raises ValueError on disconnected input,
    which has no spanning tree.
    """
    uf = _UnionFind(graph.vertices)
    trees = list(_acyclic_subsets(graph, len(graph.vertices) - 1, uf))
    if not trees:  # a connected graph has at least one
        raise ValueError("graph is disconnected; it has no spanning trees")
    return trees


def _two_forests(graph, uf):
    """Iterator over the spanning 2-forests' edge sets, from the search of
    :func:`_acyclic_subsets` on ``uf``, a union-find over the graph's
    vertices: an acyclic set of |V|-2 edges leaves exactly two
    components.  Raises ValueError on disconnected input."""
    if not graph.is_connected():
        raise ValueError("graph is disconnected; 2-forest enumeration needs connected input")
    nv = len(graph.vertices)
    return _acyclic_subsets(graph, nv - 2, uf) if nv >= 2 else iter(())


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
    vmin = min(graph.vertices)
    vertices = frozenset(graph.vertices)
    uf = _UnionFind(graph.vertices)
    find = uf.find
    out = []
    for edges in _two_forests(graph, uf):
        root = find(vmin)
        part0 = frozenset(v for v in graph.vertices if find(v) == root)
        out.append((edges, (part0, vertices - part0)))
    return out
