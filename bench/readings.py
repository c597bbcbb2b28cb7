"""Re-measure the single-call readings of the roadmap's bench table.

    python3 bench/readings.py

Each reading is the median over 3 calls (after one warm-up call; one call
without warm-up for the slowest) of one program call, timed between two
bursts of the loop reference and calibrated like the benchmark's items; the
raw median is printed beside it.  K5 carries momenta on every vertex, K6 +1
and -1 on two.  K6 ``second_symanzik_bordered`` is left out: one call did
not finish within 400 s.
"""

import json
import statistics
import subprocess
import sys
import time

import calib
import run  # pins one CPU and gives numpy one BLAS thread, as in a run

sys.path.insert(0, str(run.SRC))

from tropical_heights import (MinkowskiSpace, MomentumAssignment, Multigraph,  # noqa: E402
                              corpus, first_symanzik_det, second_symanzik_bordered,
                              second_symanzik_forests, symanzik_ratio_eval)
from tropical_heights.lab import (DegenerationFamily, TorusGreen,  # noqa: E402
                                  degeneration_experiment)


def complete_graph(n, spread=True):
    """K_n with scalar momenta on every vertex, or (``spread=False``) +1 and
    -1 on two of them."""
    vertices = [f"v{i + 1}" for i in range(n)]
    edges, k = [], 0
    for a in range(n):
        for b in range(a + 1, n):
            k += 1
            edges.append((f"e{k:02d}", vertices[a], vertices[b]))
    graph = Multigraph(vertices, edges)
    if spread:
        momenta = {v: ((i + 1,) if i < n - 1 else (-n * (n - 1) // 2,))
                   for i, v in enumerate(vertices)}
    else:
        momenta = {vertices[0]: (1,), vertices[1]: (-1,)}
    return graph, MomentumAssignment(MinkowskiSpace.euclidean(1), momenta)


REPEATS = 3
SLOW = ("lab.laplacian_residual[n=128]",)


def timed(fn, repeats):
    raw, cal = [], []
    for _ in range(repeats):
        before = calib.LOOP.burst(10)
        t0 = time.perf_counter()
        fn()
        seconds = time.perf_counter() - t0
        raw.append(seconds)
        cal.append(seconds * calib.LOOP.factor(before, calib.LOOP.burst(10)))
    return statistics.median(cal), statistics.median(raw)


def cli_second(banana):
    subprocess.run([sys.executable, "-m", "tropical_heights.cli", "symanzik", "second",
                    "--graph", banana], check=True, capture_output=True)


def main():
    k5, m5 = complete_graph(5)
    k6, m6 = complete_graph(6, spread=False)
    y5 = {e: 1.0 + 0.1 * i for i, e in enumerate(k5.edge_ids())}
    family = DegenerationFamily(1.0, [(0, 0.0, (1,)), ("1/2", 0.0, (-1,))],
                                [("1/8", 0.0, (1,)), ("3/8", 0.0, (-1,))])
    banana = str(run.SRC / "tropical_heights" / "data" / "corpus" / "banana2.json")
    corpus_dir = corpus.corpus_data_dir()
    readings = {
        "exact.first_det[K5,h=6]": lambda: first_symanzik_det(k5),
        "exact.second_bordered[K5,h=6]": lambda: second_symanzik_bordered(k5, m5),
        "exact.second_forests[K6]": lambda: second_symanzik_forests(k6, m6),
        "numeric.ratio_schur[K5]": lambda: symanzik_ratio_eval(k5, y5, m5),
        "lab.torus_green_ctor": lambda: TorusGreen(1.3j),
        "lab.degeneration_experiment": lambda: degeneration_experiment(family),
        "e2e.corpus_run[1 thread]": lambda: corpus.corpus_run(corpus_dir, threads=1),
        "e2e.corpus_run[2 threads]": lambda: corpus.corpus_run(corpus_dir, threads=2),
        "e2e.cli_symanzik_second": lambda: cli_second(banana),
        "lab.laplacian_residual[n=128]":
            lambda: TorusGreen(0.3 + 1.2j).laplacian_residual(n=128),
    }
    out = {}
    for name, fn in readings.items():
        repeats = 1 if name in SLOW else REPEATS
        if name not in SLOW:
            fn()  # warm-up
        cal, raw = timed(fn, repeats)
        out[name] = {"calibrated_ms": cal * 1e3, "raw_ms": raw * 1e3, "repeats": repeats}
        print(f"{name:36s} {cal * 1e3:10.2f} ms calibrated  {raw * 1e3:10.2f} ms raw",
              flush=True)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
