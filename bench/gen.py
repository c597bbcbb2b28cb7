"""Seeded inputs for the four workloads, written with the standard library only.

Nothing here imports numpy or ``tropical_heights``: the parent process runs
this before it times set-up, so that import costs show in ``setup_s``.  The
generators are the benchmark's own (not ``corpus.random_*``), so a change to
the program's generators cannot change a workload.

Every item is written as JSON in the program's input schemas, next to the
benchmark's own description of it (vertex list, edge list, momenta), which
the independent checks in ``work.py`` use.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPACES = {
    "e1": {"dim": 1, "signature": "euclidean"},
    "e2": {"dim": 2, "signature": "euclidean"},
    "l4": {"dim": 4, "signature": "lorentzian"},
}


def _rat(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def random_graph(rng, nv, h, loops=False):
    """Connected multigraph with ``nv`` vertices and Betti number ``h``.

    A random spanning tree plus ``h`` extra edges; edge ids are dealt out
    in a random order, so the program's designated tree varies too.
    """
    order = list(range(nv))
    rng.shuffle(order)
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, nv)]
    while len(pairs) < nv - 1 + h:
        a, b = rng.randrange(nv), rng.randrange(nv)
        if a != b or loops or nv == 1:
            pairs.append((a, b))
    rng.shuffle(pairs)
    edges = []
    for k, (a, b) in enumerate(pairs):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((f"e{k + 1}", f"v{a + 1}", f"v{b + 1}"))
    return [f"v{i + 1}" for i in range(nv)], edges


def conserved_momenta(rng, vertices, dim, magnitude=3):
    """Nonzero rational momenta on every vertex but one, which balances them."""
    out = {}
    total = [Fraction(0)] * dim
    for v in vertices[:-1]:
        vec = [Fraction(0)] * dim
        while not any(vec):
            vec = [Fraction(rng.randint(-magnitude, magnitude), rng.choice((1, 1, 2)))
                   for _ in range(dim)]
        out[v] = vec
        total = [t + x for t, x in zip(total, vec)]
    out[vertices[-1]] = [-t for t in total]
    return out


def bundle_json(vertices, edges, momenta=None, space=None):
    data = {"vertices": list(vertices),
            "edges": [{"id": e, "tail": t, "head": h} for e, t, h in edges]}
    if momenta:
        data["markings"] = [{"id": f"l{i + 1}", "vertex": v,
                             "momentum": [_rat(x) for x in momenta[v]]}
                            for i, v in enumerate(sorted(momenta))]
        data["minkowski"] = dict(SPACES[space])
    return data


def pairing_matrix(space):
    dim = space["dim"]
    if "matrix" in space:
        return [[_rat(x) for x in row] for row in space["matrix"]]
    first = 1
    rest = -1 if space.get("signature") == "lorentzian" else 1
    return [[(first if i == 0 else rest) if i == j else 0 for j in range(dim)]
            for i in range(dim)]


def graph_record(vertices, edges, momenta, space):
    """The benchmark's own description of a graph, kept for its checks."""
    return {"vertices": list(vertices), "edges": [list(e) for e in edges],
            "momenta": {v: [_rat(x) for x in p] for v, p in (momenta or {}).items()},
            "pairing": pairing_matrix(SPACES[space]) if space else None}


def record_from_bundle(data):
    """The same description read back from a bundle file of the corpus."""
    vertices = [v if isinstance(v, str) else v["id"] for v in data["vertices"]]
    edges = [[e["id"], e["tail"], e["head"]] for e in data["edges"]]
    momenta = {}
    for m in data.get("markings", []):
        if m.get("momentum"):
            acc = momenta.setdefault(m["vertex"], [Fraction(0)] * len(m["momentum"]))
            for i, x in enumerate(m["momentum"]):
                acc[i] += Fraction(x)
    pairing = None
    if momenta:
        dim = len(next(iter(momenta.values())))
        pairing = pairing_matrix(data.get("minkowski", {"dim": dim}))
    return {"vertices": vertices, "edges": edges,
            "momenta": {v: [_rat(x) for x in p] for v, p in momenta.items()},
            "pairing": pairing}


# ---------------------------------------------------------------------------
# corpus-sweep

def relabel(rng, nv, pairs):
    """A fixed shape (vertex pairs over 0..nv-1) with seeded vertex names,
    edge ids and orientations."""
    pairs = list(pairs)
    rng.shuffle(pairs)
    perm = list(range(nv))
    rng.shuffle(perm)
    edges = []
    for k, (a, b) in enumerate(pairs):
        a, b = perm[a], perm[b]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((f"e{k + 1}", f"v{a + 1}", f"v{b + 1}"))
    return [f"v{i + 1}" for i in range(nv)], edges


def theta_pairs(lengths):
    """Two hubs joined by internally disjoint paths of the given lengths."""
    pairs, nv = [], 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            pairs.append((prev, nv))
            prev, nv = nv, nv + 1
        pairs.append((prev, 1))
    return nv, pairs


def multi_pairs(multiplicity):
    pairs = [p for p, count in multiplicity for _ in range(count)]
    return 1 + max(max(p) for p in pairs), pairs


# One pass holds 34 graphs in four cost groups, shuffled together:
#   small   12  random graphs, 1-4 vertices, h = 0-5 (loops allowed)  ~0.3-8 ms
#   sparse  12  theta graph (3,3,4): 9 vertices, h = 2, relabelled      ~45 ms
#   dense6   3  triangles with edge multiplicities (3,3,2)/(4,2,2), h=6 ~200 ms
#   dense7   7  bananas of 8 parallel edges, h = 7                     ~400 ms
# Shares 35 / 35 / 9 / 21 %: the median falls inside the sparse group and
# the 90th percentile in the middle of dense7, each 10+ points from a group
# boundary.  (Dense7 is one shape so that the 90th percentile is the middle
# of one cost, not the edge between two.)
# The seed draws the small graphs, and for the fixed shapes the vertex
# names, edge ids, orientations, momenta and lengths.
_TRIANGLE_332 = multi_pairs((((0, 1), 3), ((1, 2), 3), ((0, 2), 2)))
_TRIANGLE_422 = multi_pairs((((0, 1), 4), ((1, 2), 2), ((0, 2), 2)))
CORPUS_SHAPES = {
    "sparse": [theta_pairs((3, 3, 4))] * 12,
    "dense6": [_TRIANGLE_332, _TRIANGLE_422, _TRIANGLE_332],
    "dense7": [multi_pairs((((0, 1), 8),))] * 7,
}
CORPUS_SMALL = 12
CORPUS_SPACES = ("e1", "e2", "l4")


def _small_graph(rng, k):
    h = k % 6
    if h >= 4:
        return random_graph(rng, rng.randint(1, 2), h, loops=True)
    return random_graph(rng, rng.randint(1, 4), h, loops=True)


def corpus_items(seed):
    rng = rng_for("corpus-sweep", seed)
    drawn = [("small", _small_graph(rng, k)) for k in range(CORPUS_SMALL)]
    for group, shapes in CORPUS_SHAPES.items():
        drawn += [(group, relabel(rng, nv, pairs)) for nv, pairs in shapes]
    items = []
    for k, (group, (vertices, edges)) in enumerate(drawn):
        space = CORPUS_SPACES[k % len(CORPUS_SPACES)]
        momenta = None
        if len(vertices) > 1:
            momenta = conserved_momenta(rng, vertices, SPACES[space]["dim"])
        lengths = {e: _rat(Fraction(rng.randint(1, 12), rng.randint(1, 4)))
                   for e, _t, _h in edges}
        items.append({"name": f"{group}-{k:02d}", "group": group,
                      "h": len(edges) - len(vertices) + 1,
                      "bundle": bundle_json(vertices, edges, momenta, space),
                      "graph": graph_record(vertices, edges, momenta, space),
                      "lengths": lengths})
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# height-scan

# One pass: 24 cases as (Betti number, vertices, count).  An item's cost
# grows with h; the shares 12 / 50 / 12 / 25 % put the median inside the
# h = 2 group and the 90th percentile inside the h = 4 group.
HEIGHT_CASES = ((1, 2, 3), (2, 3, 12), (3, 3, 3), (4, 4, 6))
HEIGHT_SPACES = ("e1", "e2")


def height_items(seed):
    rng = rng_for("height-scan", seed)
    items = []
    shapes = [(h, nv) for h, nv, count in HEIGHT_CASES for _ in range(count)]
    for k, (h, nv) in enumerate(shapes):
        vertices, edges = random_graph(rng, nv, h)
        space = HEIGHT_SPACES[k % 2]
        dim = SPACES[space]["dim"]
        momenta = conserved_momenta(rng, vertices, dim, magnitude=2)
        eids = [e for e, _t, _h in edges]
        # Constant fixture: Omega0 = i * identity plus a small symmetric part.
        omega = [[[0.0, (1.0 if i == j else 0.0)] for j in range(h)] for i in range(h)]
        for i in range(h):
            for j in range(i + 1, h):
                off = round(rng.uniform(-0.2, 0.2) / h, 6)
                omega[i][j] = [round(rng.uniform(-0.5, 0.5), 6), off]
                omega[j][i] = list(omega[i][j])
        fixture = {"genus": h, "dim": dim, "edge_ids": [],
                   "terms": [{"field": "omega", "coeff": omega}]}
        seg = {}
        for e in eids:
            entry = {"y_scale": round(rng.uniform(0.5, 2.0), 6)}
            if rng.random() < 0.5:
                entry["phase_amplitude"] = round(rng.uniform(0.05, 0.3), 6)
                entry["phase_frequency"] = round(rng.uniform(1.0, 4.0), 6)
            seg[e] = entry
        rays = [{e: 1.0 for e in eids},
                {e: round(rng.uniform(0.5, 2.0), 6) for e in eids}]
        items.append({"name": f"case-{k:02d}", "group": f"h{h}", "h": h,
                      "bundle": bundle_json(vertices, edges, momenta, space),
                      "graph": graph_record(vertices, edges, momenta, space),
                      "fixture": fixture, "segment": {"edges": seg}, "rays": rays,
                      "direction": {e: entry["y_scale"] for e, entry in seg.items()},
                      "probe": {e: round(rng.uniform(2.0, 20.0), 6) for e in eids},
                      "phases": {e: round(rng.uniform(-0.5, 0.5), 6) for e in eids}})
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# torus-lab

# Rational unit vectors of R^3 (Pythagorean quadruples and triples): a null
# Lorentzian momentum is (E, E * n) with n among these, up to signs.
_UNIT3 = ((3, 4, 0, 5), (0, 0, 1, 1), (2, 2, 1, 3), (1, 2, 2, 3), (2, 3, 6, 7),
          (1, 4, 8, 9), (4, 4, 7, 9), (0, 5, 12, 13))


def _unit_vector(rng):
    a, b, c, n = rng.choice(_UNIT3)
    vec = [Fraction(a, n), Fraction(b, n), Fraction(c, n)]
    rng.shuffle(vec)
    return [x * rng.choice((1, -1)) for x in vec]


TORUS_EXPERIMENTS = 16
TORUS_GREENS = 8
GREEN_INTEGRAL_N = 96
GREEN_LAPLACIAN_N = 14


def _positions(rng, count, slots=8):
    """Distinct positions k/slots on the circle, at least 1/slots apart."""
    return sorted(Fraction(k, slots) for k in rng.sample(range(slots), count))


def circle_pairing(family):
    """Closed-form tropical limit of a torus family: the resistance pairing
    -1/2 sum <p_i, q_j> r(c_i, c_j) on a circle of length L, where
    r = L d (1 - d) for the fractional gap d between two positions."""
    length = Fraction(family["y_total"])
    dim = family["minkowski"]["dim"]
    signs = [1] * dim
    if family["minkowski"]["signature"] == "lorentzian":
        signs = [1] + [-1] * (dim - 1)
    div1 = family["divisor1"]
    div2 = family.get("divisor2") or div1
    total = Fraction(0)
    for a in div1:
        for b in div2:
            gap = (Fraction(a["c"]) - Fraction(b["c"])) % 1
            pair = sum(s * Fraction(x) * Fraction(y)
                       for s, x, y in zip(signs, a["momentum"], b["momentum"]))
            total += pair * length * gap * (1 - gap)
    return -total / 2


def _torus_family(rng, k):
    # The length sets the quadrature's cost, so it is the same for all.
    y_total = Fraction(2)
    cs = _positions(rng, 4)
    rng.shuffle(cs)
    if k % 2 == 0:
        a = Fraction(rng.randint(1, 3))
        b = Fraction(rng.randint(1, 3)) * rng.choice((1, -1))
        div1 = [(cs[0], [a]), (cs[1], [-a])]
        div2 = [(cs[2], [b]), (cs[3], [-b])]
        space = "e1"
    else:
        energy = Fraction(rng.randint(1, 3))
        n, m = _unit_vector(rng), _unit_vector(rng)
        moms = [[energy] + [energy * x for x in n],
                [energy] + [-energy * x for x in n],
                [-energy] + [energy * x for x in m],
                [-energy] + [-energy * x for x in m]]
        div1 = list(zip(cs, moms))
        div2 = None
        space = "l4"

    def divisor(entries):
        return [{"c": _rat(c), "x": round(rng.uniform(0, 1), 6),
                 "momentum": [_rat(x) for x in p]} for c, p in entries]

    family = {"y_total": _rat(y_total), "divisor1": divisor(div1),
              "minkowski": dict(SPACES[space])}
    if div2 is not None:
        family["divisor2"] = divisor(div2)
    return family


def torus_items(seed):
    rng = rng_for("torus-lab", seed)
    items = []
    for k in range(TORUS_EXPERIMENTS):
        # Families whose limit nearly vanishes are redrawn: the checks compare
        # relative errors against the closed form.
        family = _torus_family(rng, k)
        while abs(circle_pairing(family)) < Fraction(1, 20):
            family = _torus_family(rng, k)
        items.append({"name": f"experiment-{k:02d}", "group": "experiment",
                      "family": family, "limit": _rat(circle_pairing(family))})
    for k in range(TORUS_GREENS):
        # Im(tau) sets the cost of a Green item, so it is the same for all.
        tau = [round(rng.uniform(-0.5, 0.5), 6), 1.2]
        points = [[round(rng.uniform(0, 1), 6), round(rng.uniform(0.1, 0.9), 6)]
                  for _ in range(4)]
        items.append({"name": f"green-{k:02d}", "group": "green", "tau": tau,
                      "points": points, "integral_n": GREEN_INTEGRAL_N,
                      "laplacian_n": GREEN_LAPLACIAN_N})
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# cli-mix

README_BANANA = bundle_json(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")],
                            {"v1": [3], "v2": [-3]}, "e1")
README_FILES = {
    "banana.json": README_BANANA,
    "mono.json": {"edges": {"e1": {"c": [1], "d1": {"l1": 1}, "d2": {"l2": 1}},
                            "e2": {"c": [-1], "d1": {}, "d2": {}}},
                  "sections1": ["l1"], "sections2": ["l2"]},
    "point.json": {"omega": [[[0.0, 1.0]]], "w": [[0.25, 0.0]], "z": [[0.0, 0.5]],
                   "rho": [0.0, 0.5]},
    "fixture.json": {"genus": 1, "dim": 1, "edge_ids": [],
                     "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]},
    "segment.json": {"edges": {"e1": {"y_scale": 1.0},
                               "e2": {"y_scale": 1.0, "phase_amplitude": 0.25,
                                      "phase_frequency": 3.0}}},
    "family.json": {"y_total": 1,
                    "divisor1": [{"c": 0, "momentum": [1]}, {"c": "1/2", "momentum": [-1]}],
                    "divisor2": [{"c": "1/8", "momentum": [1]},
                                 {"c": "3/8", "momentum": [-1]}]},
    # Inputs of the known faults: a NaN entry in omega.
    "point_nan.json": {"omega": [[[float("nan"), 1.0]]], "w": [[0.25, 0.0]],
                       "z": [[0.0, 0.5]], "rho": [0.0, 0.5]},
    # Bad inputs (exit 2).
    "unconserved.json": {"y_total": 1,
                         "divisor1": [{"c": 0, "momentum": [1]},
                                      {"c": "1/2", "momentum": [-2]}],
                         "divisor2": [{"c": "1/8", "momentum": [1]},
                                      {"c": "3/8", "momentum": [-1]}]},
    "mono_genus2.json": {"edges": {"e1": {"c": [1, 0], "d1": {}, "d2": {}},
                                   "e2": {"c": [-1, 0], "d1": {}, "d2": {}}},
                         "sections1": [], "sections2": []},
    "broken.json": "{\"vertices\": [\"v1\", ",
}

CORPUS_DIR = "src/tropical_heights/data/corpus"
# Bundled corpus graphs with momenta (usable by `symanzik second/ratio`) and
# without; the seed picks which ones a pass runs on.
CORPUS_WITH_MOMENTA = ("banana2", "banana3", "triangle", "k23", "bowtie")
CORPUS_ALL = ("single_edge", "loop", "banana2", "banana3", "triangle", "square", "k4",
              "triangle_loop", "dumbbell", "k23", "house", "bowtie")


def _corpus_bundle(name):
    with open(ROOT / CORPUS_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def cli_items(seed):
    """One pass of 25 invocations.  The mix is fixed; the seed picks the
    corpus graphs, their edge weights and the order."""
    rng = rng_for("cli-mix", seed)
    c = str(ROOT / CORPUS_DIR)
    items = [
        # The README's examples.
        ("symanzik-first", ["symanzik", "first", "--graph", "banana.json"], 0, None),
        ("symanzik-second", ["symanzik", "second", "--graph", "banana.json", "--check"],
         0, None),
        ("symanzik-ratio", ["symanzik", "ratio", "--graph", "banana.json", "--y",
                            "e1=1,e2=1", "--check"], 0, None),
        ("curve-stability", ["curve", "stability", "--graph", "banana.json"], 0, None),
        ("curve-dimensions", ["curve", "dimensions", "--graph", "banana.json"], 0, None),
        ("monodromy-check", ["monodromy", "check", "--graph", "banana.json",
                             "--fixture", "mono.json"], 0, None),
        ("poincare-norm", ["poincare", "norm", "--point", "point.json"], 0, None),
        ("limit-eval", ["limit", "eval", "--graph", "banana.json", "--fixture",
                        "fixture.json", "--segment", "segment.json"], 0, None),
        ("lab-torus-limit", ["lab", "torus-limit", "--family", "family.json"], 0, None),
        ("lab-crossratio", ["lab", "sphere-crossratio", "--points", "0", "1", "2", "4"],
         0, None),
        ("corpus-run", ["corpus", "run", c], 0, None),
        # Bad input: exit 2.
        ("bad-missing-file", ["symanzik", "first", "--graph", "missing.json"], 2, None),
        ("bad-json", ["symanzik", "first", "--graph", "broken.json"], 2, None),
        ("bad-ratio-no-y", ["symanzik", "ratio", "--graph", "banana.json"], 2, None),
        ("bad-method", ["symanzik", "first", "--graph", "banana.json",
                        "--method", "bordered"], 2, None),
        ("bad-unconserved", ["lab", "torus-limit", "--family", "unconserved.json"], 2, None),
        ("bad-mono-genus", ["monodromy", "check", "--graph", "banana.json",
                            "--fixture", "mono_genus2.json"], 2, None),
        # Known faults: the right answer is exit 2 with one error line.
        ("fault-crossratio-nan", ["lab", "sphere-crossratio", "--points",
                                  "0", "1", "2", "nan"], 2, None),
        ("fault-poincare-nan", ["poincare", "norm", "--point", "point_nan.json"], 2, None),
        ("fault-ratio-overflow", ["symanzik", "ratio", "--graph", f"{c}/banana3.json",
                                  "--y", "e1=1e400,e2=1,e3=1"], 2, None),
    ]
    # Seeded runs on the bundled corpus: the Kirchhoff polynomial at unit
    # lengths (the spanning-tree count) and the ratio at seeded lengths.
    for k, name in enumerate(rng.sample(CORPUS_ALL, 3)):
        record = record_from_bundle(_corpus_bundle(name))
        ones = ",".join(f"{e}=1" for e, _t, _h in record["edges"])
        items.append((f"corpus-first-{k}", ["symanzik", "first", "--graph",
                                            f"{c}/{name}.json", "--check", "--y", ones],
                      0, record))
    for k, name in enumerate(rng.sample(CORPUS_WITH_MOMENTA, 2)):
        record = record_from_bundle(_corpus_bundle(name))
        lengths = {e: _rat(Fraction(rng.randint(1, 12), rng.randint(1, 4)))
                   for e, _t, _h in record["edges"]}
        record["lengths"] = lengths
        y = ",".join(f"{e}={v}" for e, v in lengths.items())
        items.append((f"corpus-ratio-{k}", ["symanzik", "ratio", "--graph",
                                            f"{c}/{name}.json", "--check", "--y", y],
                      0, record))
    rng.shuffle(items)
    return [{"name": name, "group": name.rsplit("-", 1)[0] if name[-1].isdigit() else name,
             "argv": argv, "exit": code, "graph": record}
            for name, argv, code, record in items]


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(data, str):
            fh.write(data)
        else:
            json.dump(data, fh, sort_keys=True)


GENERATORS = {
    "corpus-sweep": corpus_items,
    "height-scan": height_items,
    "torus-lab": torus_items,
    "cli-mix": cli_items,
}
# Program inputs an item carries inline; they go to files of their own.
_INPUT_KEYS = ("bundle", "fixture", "segment", "family")


def write_inputs(workload, seed, run_dir):
    """Write one pass of ``workload`` for ``seed`` under ``run_dir``.

    Program inputs go to JSON files named in each item's ``files``; the
    item list itself goes to ``manifest.json``.  Returns the item list.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    items = GENERATORS[workload](seed)
    for item in items:
        files = {}
        for key in _INPUT_KEYS:
            if key in item:
                files[key] = f"{item['name']}.{key}.json"
                _write_json(run_dir / files[key], item.pop(key))
        item["files"] = files
    if workload == "cli-mix":
        for name, data in README_FILES.items():
            _write_json(run_dir / name, data)
    _write_json(run_dir / "manifest.json", {"workload": workload, "seed": seed,
                                             "items": items})
    return items
