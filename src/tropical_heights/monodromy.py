r"""Monodromy of a one-parameter nodal degeneration.

Around a node e, the monodromy on first homology is the Picard-Lefschetz
transvection along the vanishing cycle a_e.  With a symplectic basis
(a_1..a_g, b_1..b_g) fixed, the vanishing cycle has integer coordinates
c_{e,i} on the a-part, and marked sections cross the node loops with
integer multiplicities d_{e,l,s} (s = 1, 2 the two divisor sides).  Out
of these the logarithm of the local monodromy acting on normalized
period data assembles into nilpotent blocks

    N_e = [[0, 0, p2.Wt_e, p2.Gamma_e.p1^T],
           [0, 0, Mt_e,    Zt_e.p1^T      ],
           [0, 0, 0,       0              ],
           [0, 0, 0,       0              ]]

in block sizes (1, g, g, 1).  The blocks satisfy N_e^2 = 0 and
N_e N_f = 0 for any two edges, so exp(sum z_e N_e) = I + sum z_e N_e,
which is what the asymptotic height evaluation uses.

The consistency statement tying the blocks to the graph polynomials
(checked exactly by :func:`translation_block_check`) says the border
data of the cycle Gram matrix is recovered from crossing counts:
``Zt_e p1 = -W_e(omega1)``, ``p2 Wt_e = W_e(omega2)^T`` and
``p2 Gamma_e p1^T = -<omega1_e, omega2_e>`` when the omegas are the
crossing-derived momentum lifts.
"""

from fractions import Fraction

from .graphs import designated_tree
from .symanzik import MomentumLift, MomentumAssignment, momentum_lift


def _std_symplectic_pairing(x, y):
    """<x, y> = x^T J y with J = [[0, I], [-I, 0]]; integer exact."""
    if len(x) != len(y) or len(x) % 2:
        raise ValueError("symplectic vectors need matching even length")
    g = len(x) // 2
    acc = 0
    for i in range(g):
        acc += x[i] * y[g + i] - x[g + i] * y[i]
    return acc


def picard_lefschetz(beta, a):
    """Transvection beta -> beta - <beta, a> a in H_1 coordinates.

    ``beta`` and ``a`` are integer coordinate vectors of length 2g in a
    symplectic basis (a-coordinates first).  Exact integer arithmetic.
    """
    pairing = _std_symplectic_pairing(beta, a)
    return tuple(b - pairing * ai for b, ai in zip(beta, a))


class VanishingCycleData:
    """a-coordinates of the vanishing cycles, one integer g-vector per edge."""

    __slots__ = ("genus", "coeffs")

    def __init__(self, genus, coeffs):
        self.genus = int(genus)
        clean = {}
        for e, row in coeffs.items():
            row = tuple(int(c) for c in row)
            if len(row) != self.genus:
                raise ValueError(
                    f"vanishing cycle of {e!r} has {len(row)} coordinates, expected {self.genus}"
                )
            clean[str(e)] = row
        self.coeffs = clean

    def vector(self, edge_id):
        try:
            return self.coeffs[edge_id]
        except KeyError:
            raise ValueError(f"no vanishing-cycle data for edge {edge_id!r}") from None

    def edges(self):
        return tuple(sorted(self.coeffs))

    def full_cycle(self, edge_id):
        """The vanishing cycle as a length-2g vector (a-part, zero b-part)."""
        return self.vector(edge_id) + (0,) * self.genus


class SectionCrossingData:
    """Crossing multiplicities of the marked sections with the node loops.

    ``d1[e][l]`` (side 1) and ``d2[e][l]`` (side 2) count, with sign, how
    often the path from the base point to section l crosses the loop of
    edge e.  Sections are identified by their marking ids.
    """

    __slots__ = ("sections1", "sections2", "d1", "d2")

    def __init__(self, sections1, sections2, d1, d2):
        self.sections1 = tuple(str(s) for s in sections1)
        self.sections2 = tuple(str(s) for s in sections2)
        self.d1 = self._normalize(d1, self.sections1, "d1")
        self.d2 = self._normalize(d2, self.sections2, "d2")

    @staticmethod
    def _normalize(d, sections, label):
        out = {}
        for e, row in d.items():
            row = {str(l): int(k) for l, k in row.items()}
            unknown = set(row) - set(sections)
            if unknown:
                raise ValueError(f"{label}[{e!r}] mentions unknown sections {sorted(unknown)}")
            out[str(e)] = {l: row.get(l, 0) for l in sections}
        return out

    def crossings(self, edge_id, side):
        d = self.d1 if side == 1 else self.d2
        sections = self.sections1 if side == 1 else self.sections2
        row = d.get(edge_id)
        if row is None:
            row = {l: 0 for l in sections}
        return row

    def weighted_sum(self, edge_id, side, momenta_by_section, dim):
        """sum_l d_{e,l,side} p_l as an exact vector."""
        row = self.crossings(edge_id, side)
        acc = [Fraction(0)] * dim
        for l, k in row.items():
            if k == 0:
                continue
            p = momenta_by_section[l]
            for i in range(dim):
                acc[i] += k * Fraction(p[i])
        return tuple(acc)


def tilde_matrices(vc, sc, edge_id):
    """Integer building blocks (Mt, Wt, Zt, Gamma) of one edge's nilpotent.

    Mt = c_e c_e^T is g x g; Wt has one row per side-2 section with
    entries -c_{e,j} d_{e,l,2}; Zt has one column per side-1 section with
    entries c_{e,i} d_{e,l,1}; Gamma_{k,l} = -d_{e,k,2} d_{e,l,1}.
    """
    c = vc.vector(edge_id)
    g = vc.genus
    row1 = sc.crossings(edge_id, 1)
    row2 = sc.crossings(edge_id, 2)
    mt = [[c[i] * c[j] for j in range(g)] for i in range(g)]
    wt = [[-c[j] * row2[l] for j in range(g)] for l in sc.sections2]
    zt = [[c[i] * row1[l] for l in sc.sections1] for i in range(g)]
    gamma = [[-row2[k] * row1[l] for l in sc.sections1] for k in sc.sections2]
    return mt, wt, zt, gamma


class NilpotentBlock:
    """One edge's nilpotent log-monodromy on normalized period data.

    Stores the contracted blocks (for D = 1 momenta): the g x g matrix
    ``mt``, the length-g row ``w`` = p2 Wt, the length-g column ``z`` =
    Zt p1^T, and the scalar ``gamma`` = p2 Gamma p1^T; :meth:`matrix`
    assembles the (2g+2) x (2g+2) strictly upper-triangular form.
    """

    __slots__ = ("genus", "mt", "w", "z", "gamma")

    def __init__(self, genus, mt, w, z, gamma):
        g = int(genus)
        if len(mt) != g or any(len(r) != g for r in mt):
            raise ValueError("mt must be g x g")
        if len(w) != g or len(z) != g:
            raise ValueError("w and z must have length g")
        self.genus = g
        self.mt = [list(r) for r in mt]
        self.w = list(w)
        self.z = list(z)
        self.gamma = gamma

    def matrix(self):
        g = self.genus
        n = 2 * g + 2
        m = [[0] * n for _ in range(n)]
        for j in range(g):
            m[0][1 + g + j] = self.w[j]
        m[0][n - 1] = self.gamma
        for i in range(g):
            for j in range(g):
                m[1 + i][1 + g + j] = self.mt[i][j]
            m[1 + i][n - 1] = self.z[i]
        return m

    def exp(self, z=1):
        """exp(z N) = I + z N, exact because N is square-zero."""
        g = self.genus
        n = 2 * g + 2
        m = self.matrix()
        for i in range(n):
            for j in range(n):
                m[i][j] = m[i][j] * z if i != j else 1 + m[i][j] * z
        return m

    def __repr__(self):
        return f"NilpotentBlock(g={self.genus})"


def _scalarize(momenta_by_section, sections, dim):
    out = {}
    for l in sections:
        p = momenta_by_section[l]
        p = tuple(Fraction(x) for x in (p if isinstance(p, (tuple, list)) else (p,)))
        if len(p) != dim:
            raise ValueError(f"momentum of section {l!r} has dimension {len(p)}, expected {dim}")
        out[l] = p
    return out


def build_Ne(vc, sc, p1, p2, edge_id):
    """Nilpotent block of one edge, contracted against scalar momenta.

    ``p1``/``p2`` map section ids to momenta; for the block to stay a
    single matrix the momenta must be scalars (D = 1).  Multi-dimensional
    momenta are handled one coordinate pair at a time by the callers.
    """
    p1 = _scalarize(p1, sc.sections1, 1)
    p2 = _scalarize(p2, sc.sections2, 1)
    g = vc.genus
    c = vc.vector(edge_id)
    s1 = sc.weighted_sum(edge_id, 1, p1, 1)[0]
    s2 = sc.weighted_sum(edge_id, 2, p2, 1)[0]
    mt = [[c[i] * c[j] for j in range(g)] for i in range(g)]
    w = [-c[j] * s2 for j in range(g)]
    z = [c[i] * s1 for i in range(g)]
    gamma = -s2 * s1
    return NilpotentBlock(g, mt, w, z, gamma)


def crossing_lift(graph, sc, side, momenta_by_section, space):
    """Momentum lift read off from crossing data:
    omega_e = sum_l d_{e,l,side} p_l."""
    dim = space.dim
    p = _scalarize(momenta_by_section, sc.sections1 if side == 1 else sc.sections2, dim)
    vectors = {
        e: sc.weighted_sum(e, side, p, dim) for e in graph.edge_ids()
    }
    return MomentumLift(graph, space, vectors)


class BlockCheckReport:
    """Outcome of the exact border-data consistency check."""

    __slots__ = ("ok", "failures")

    def __init__(self, ok, failures):
        self.ok = ok
        self.failures = list(failures)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "BlockCheckReport(ok)"
        return f"BlockCheckReport(failures={self.failures!r})"


def translation_block_check(basis, vc, sc, p1, p2, space, lift1=None, lift2=None):
    """Exact check that crossing blocks reproduce the polynomial border data.

    For every edge e of the graph underlying ``basis`` the three
    identities are verified over the rationals:

    * ``Zt_e p1 = -W_e(omega1)`` (coordinatewise, vector-valued for D > 1),
    * ``p2 Wt_e = W_e(omega2)``,
    * ``p2 Gamma_e p1^T = -<omega1_e, omega2_e>`` in the momentum pairing,

    where W_e(omega)_i = c^gr_{e,i} omega_e over the graph cycle basis and
    omega1/omega2 default to the crossing-derived lifts.  Returns a report
    whose ``failures`` list localizes any violated identity.
    """
    graph = basis.graph
    dim = space.dim
    pm1 = _scalarize(p1, sc.sections1, dim)
    pm2 = _scalarize(p2, sc.sections2, dim)
    if lift1 is None:
        lift1 = crossing_lift(graph, sc, 1, pm1, space)
    if lift2 is None:
        lift2 = crossing_lift(graph, sc, 2, pm2, space)
    h = len(basis)
    if vc.genus < h:
        raise ValueError(f"vanishing-cycle genus {vc.genus} is below the graph's h = {h}")
    cmat = basis.matrix()
    failures = []
    for k, e in enumerate(graph.edge_ids()):
        c = vc.vector(e)
        s1 = sc.weighted_sum(e, 1, pm1, dim)
        s2 = sc.weighted_sum(e, 2, pm2, dim)
        om1 = lift1.vector(e)
        om2 = lift2.vector(e)
        for i in range(h):
            lhs = tuple(c[i] * x for x in s1)             # (Zt p1)_i
            rhs = tuple(-cmat[i][k] * x for x in om1)     # -W_e(omega1)_i
            if lhs != rhs:
                failures.append((e, "Zt*p1", i, lhs, rhs))
            lhs = tuple(-c[i] * x for x in s2)            # (p2 Wt)_i
            rhs = tuple(cmat[i][k] * x for x in om2)      # W_e(omega2)_i
            if lhs != rhs:
                failures.append((e, "p2*Wt", i, lhs, rhs))
        for i in range(h, vc.genus):
            if any(c[i] * x != 0 for x in s1) or any(c[i] * x != 0 for x in s2):
                failures.append((e, "padding", i, c[i], None))
        lhs = -space.pair(s2, s1)                         # p2 Gamma p1^T
        rhs = -space.pair(om1, om2)
        if lhs != rhs:
            failures.append((e, "p2*Gamma*p1", None, lhs, rhs))
    return BlockCheckReport(not failures, failures)


def consistent_fixture(graph, basis, space, sections1, sections2, rng,
                       detour_range=2, momentum_range=6):
    """Random crossing data consistent with the graph's cycle geometry.

    Vanishing-cycle coordinates are the negatives of the fundamental
    cycle coefficients (the sign fixed by the symplectic conventions
    above); crossing counts come from base-to-section tree paths, side 2
    additionally winding around random basis cycles.  Marked momenta are
    random conserved rationals.  Returns (vc, sc, p1, p2) with sections
    placed on random vertices.

    Side 1 uses pure tree paths, so its crossing lift coincides with the
    tree-supported :func:`~tropical_heights.symanzik.momentum_lift` of
    the pushed-down vertex momenta.
    """
    h = len(basis)
    cmat = basis.matrix()
    vc = VanishingCycleData(h, {
        e: tuple(-row[k] for row in cmat) for k, e in enumerate(graph.edge_ids())
    })
    base = min(graph.vertices)
    tree = designated_tree(graph)
    adj = {v: [] for v in graph.vertices}
    for eid in tree:
        tail, head = graph.endpoints(eid)
        adj[tail].append((head, eid, +1))
        adj[head].append((tail, eid, -1))

    def tree_chain(target):
        # Edge coordinates of the base -> target tree path.
        prev = {base: None}
        stack = [base]
        while stack:
            u = stack.pop()
            for wv, eid, sgn in adj[u]:
                if wv not in prev:
                    prev[wv] = (u, eid, sgn)
                    stack.append(wv)
        chain = {}
        v = target
        while prev[v] is not None:
            u, eid, sgn = prev[v]
            chain[eid] = chain.get(eid, 0) + sgn
            v = u
        return chain

    def place_sections(labels, with_detours):
        placement = {}
        cols = {}
        for l in labels:
            v = rng.choice(graph.vertices)
            placement[l] = v
            chain = dict(tree_chain(v))
            if with_detours and h:
                for cyc in basis.cycles:
                    k = rng.randrange(-detour_range, detour_range + 1)
                    if k:
                        for e, coef in cyc.coeffs.items():
                            chain[e] = chain.get(e, 0) + k * coef
            cols[l] = chain
        return placement, cols

    def random_momenta(labels):
        ps = {}
        total = [Fraction(0)] * space.dim
        for l in labels[:-1]:
            vec = tuple(Fraction(rng.randrange(-momentum_range, momentum_range + 1))
                        for _ in range(space.dim))
            ps[l] = vec
            for i, x in enumerate(vec):
                total[i] += x
        ps[labels[-1]] = tuple(-x for x in total)
        return ps

    placement1, cols1 = place_sections(list(sections1), with_detours=False)
    placement2, cols2 = place_sections(list(sections2), with_detours=True)
    d1 = {e: {l: cols1[l].get(e, 0) for l in sections1} for e in graph.edge_ids()}
    d2 = {e: {l: cols2[l].get(e, 0) for l in sections2} for e in graph.edge_ids()}
    sc = SectionCrossingData(sections1, sections2, d1, d2)
    p1 = random_momenta(list(sections1))
    p2 = random_momenta(list(sections2))

    # Sanity check: side-1 crossing lift equals the tree-supported lift of
    # the pushed-down vertex momenta (unique tree-supported solution).
    vertex1 = {}
    for l, v in placement1.items():
        acc = vertex1.setdefault(v, [Fraction(0)] * space.dim)
        for i, x in enumerate(p1[l]):
            acc[i] += x
    assignment = MomentumAssignment(space, {v: tuple(a) for v, a in vertex1.items()})
    tree_lift = momentum_lift(graph, assignment)
    cross = crossing_lift(graph, sc, 1, p1, space)
    assert all(tree_lift.vector(e) == cross.vector(e) for e in graph.edge_ids())
    return vc, sc, p1, p2
