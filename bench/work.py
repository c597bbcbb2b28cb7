"""The four workloads: set-up, one item, and the checks on its output.

``build(workload, run_dir, items)`` parses the inputs ``gen.write_inputs`` wrote,
through the program's own parsers and constructors; that is the work
``setup_s`` times in a fresh interpreter.  Each workload then offers

* ``run(i)``: item ``i`` -- the only code the benchmark times;
* ``check(i, out)``: problems with its output, as a list of strings, each
  found against a computation the benchmark makes apart from the program
  or against a property the method must have;
* ``failed(i, out)``: whether the item is one of the operations a known
  program fault makes fail (counted in ``failed``, not as incorrect);
* ``controls(outputs)``: negative controls -- corrupted copies of real
  outputs that ``check`` must reject, so that no check is vacuous.

Importing this module imports numpy and ``tropical_heights``.
"""

import json
import math
import os
import selectors
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from tropical_heights import asymptotics, corpus, jsonio, lab

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Independent computations (the benchmark's own code, not the program's)

def _pairing(record):
    return np.array([[float(Fraction(x)) for x in row] for row in record["pairing"]])


def laplacian_pairing(record, lengths):
    """sum_{mu nu} q_{mu nu} p^mu . L^+ p^nu for the weighted Laplacian
    L = B diag(1/y) B^T of the graph in ``record`` (loops drop out)."""
    vertices = record["vertices"]
    index = {v: i for i, v in enumerate(vertices)}
    lap = np.zeros((len(vertices), len(vertices)))
    for eid, tail, head in record["edges"]:
        if tail == head:
            continue
        w = 1.0 / float(Fraction(lengths[eid]))
        a, b = index[tail], index[head]
        lap[a, a] += w
        lap[b, b] += w
        lap[a, b] -= w
        lap[b, a] -= w
    q = _pairing(record)
    p = np.zeros((len(vertices), q.shape[0]))
    for v, vec in record["momenta"].items():
        p[index[v]] = [float(Fraction(x)) for x in vec]
    if len(vertices) == 1:
        return 0.0
    sol = np.linalg.solve(lap[1:, 1:], p[1:])
    return float(np.einsum("vm,mn,vn->", p[1:], q, sol))


def tree_count(record):
    """Matrix-tree count: integer determinant of the reduced Laplacian
    (fraction-free Bareiss elimination on Python ints)."""
    vertices = record["vertices"]
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[0] * n for _ in range(n)]
    for _eid, tail, head in record["edges"]:
        if tail != head:
            a, b = index[tail], index[head]
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1] if size else 1


def _poly_terms(poly):
    """{exponent tuple: coefficient} and the variable order of a MultiPoly."""
    return dict(poly.terms), tuple(poly.variables)


def _poly_at(terms, variables, values):
    """Exact value of a polynomial at rational ``values``."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        term = Fraction(coeff)
        for var, e in zip(variables, exps):
            if e:
                term *= values[var] ** e
        total += term
    return total


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite constant {name} in JSON output")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# corpus-sweep

_CAPTURED = ("first_symanzik_det", "second_symanzik_bordered")


def _capturing(fn, name, captured):
    def capture(*args, **kwargs):
        result = fn(*args, **kwargs)
        captured.setdefault(name, result)
        return result
    return capture


class CorpusSweep:
    """One item: ``jsonio.load_graph_bundle`` + ``corpus.check_bundle``."""

    def __init__(self, run_dir, items):
        self.items = items
        self.paths = [str(Path(run_dir) / it["files"]["bundle"]) for it in items]
        for path in self.paths:
            jsonio.load_graph_bundle(path)

    def run(self, i):
        # check_bundle builds both polynomials but returns only pass/fail;
        # keep the ones it computes, for the benchmark's own checks.
        captured, saved = {}, {}
        for name in _CAPTURED:
            fn = getattr(corpus, name, None)
            if fn is not None:
                saved[name] = fn
                setattr(corpus, name, _capturing(fn, name, captured))
        try:
            bundle = jsonio.load_graph_bundle(self.paths[i])
            checks, failures = corpus.check_bundle(bundle)
        finally:
            for name, fn in saved.items():
                setattr(corpus, name, fn)
        return {"bundle": bundle, "checks": checks, "failures": failures,
                "psi": captured.get("first_symanzik_det"),
                "phi": captured.get("second_symanzik_bordered")}

    def failed(self, i, out):
        return False

    def _polys(self, i, out):
        # Should check_bundle ever stop building them under these names, the
        # checks still run, on polynomials built here outside the timing.
        from tropical_heights import symanzik
        psi, phi = out["psi"], out["phi"]
        graph = out["bundle"].graph
        momenta = out["bundle"].momentum_assignment()
        if psi is None:
            psi = symanzik.first_symanzik_det(graph)
        if phi is None and momenta is not None:
            phi = symanzik.second_symanzik_bordered(graph, momenta)
        return _poly_terms(psi), (_poly_terms(phi) if phi is not None else None)

    def check(self, i, out, polys=None):
        item = self.items[i]
        record = item["graph"]
        problems = list(out["failures"])
        for name, status in out["checks"].items():
            if status == "fail":
                problems.append(f"check_bundle {name} failed")
        if out["checks"].get("first_det_vs_trees") != "pass":
            problems.append("det vs trees not confirmed")
        has_momenta = bool(record["momenta"])
        if has_momenta and out["checks"].get("second_bordered_vs_forests") != "pass":
            problems.append("bordered vs forests not confirmed")
        (psi, variables), phi = polys if polys is not None else self._polys(i, out)
        h = item["h"]
        if any(sum(e) != h for e in psi):
            problems.append(f"psi is not homogeneous of degree {h}")
        if sum(psi.values()) != tree_count(record):
            problems.append(f"psi(1,...,1) = {sum(psi.values())} != tree count "
                            f"{tree_count(record)}")
        if phi is not None:
            phi_terms, phi_vars = phi
            if any(sum(e) != h + 1 for e in phi_terms):
                problems.append(f"phi is not homogeneous of degree {h + 1}")
            lengths = {e: Fraction(v) for e, v in item["lengths"].items()}
            ratio = float(_poly_at(phi_terms, phi_vars, lengths)
                          / _poly_at(psi, variables, lengths))
            want = laplacian_pairing(record, item["lengths"])
            if abs(ratio - want) > 1e-9 * max(1.0, abs(want)):
                problems.append(f"phi/psi = {ratio!r} != Laplacian pairing {want!r}")
        return problems

    def controls(self, outputs):
        """A perturbed coefficient of psi, then of phi, must be rejected."""
        i, out = next((i, o) for i, o in outputs.items()
                      if self.items[i]["graph"]["momenta"] and self.items[i]["h"] > 0)
        (psi, variables), (phi, phi_vars) = self._polys(i, out)
        results = []
        key = next(iter(psi))
        bad_psi = dict(psi)
        bad_psi[key] = psi[key] + 1
        results.append(("perturbed psi coefficient",
                        bool(self.check(i, out, ((bad_psi, variables), (phi, phi_vars))))))
        key = next(iter(phi))
        bad_phi = dict(phi)
        bad_phi[key] = phi[key] * Fraction(1001, 1000)
        results.append(("perturbed phi coefficient",
                        bool(self.check(i, out, ((psi, variables), (bad_phi, phi_vars))))))
        return results


# ---------------------------------------------------------------------------
# height-scan

HEIGHT_TS = np.geomspace(1.0, 1.0e4, 25)


class HeightScan:
    """One item: a ray scan on two rays, a segment limit and the orbit
    route against the direct height, on one graph."""

    def __init__(self, run_dir, items):
        self.items = items
        self.cases = []
        run_dir = Path(run_dir)
        for it in items:
            files = it["files"]
            bundle = jsonio.load_graph_bundle(str(run_dir / files["bundle"]))
            fixture = jsonio.holomorphic_fixture_from_json(
                jsonio.load_json(str(run_dir / files["fixture"])))
            segment = jsonio.segment_from_json(
                jsonio.load_json(str(run_dir / files["segment"])))
            self.cases.append((bundle.graph, bundle.momentum_assignment(), bundle.space,
                               fixture, segment,
                               asymptotics.EdgeParameters(it["probe"])))

    def run(self, i):
        graph, momenta, space, fixture, segment, probe = self.cases[i]
        item = self.items[i]
        blocks, _g = asymptotics.graph_blocks(graph, momenta)
        rays = asymptotics.bounded_remainder_scan(graph, momenta, None, fixture,
                                                  blocks=blocks, rays=item["rays"],
                                                  ts=HEIGHT_TS, space=space)
        limit = asymptotics.limit_along_segment(graph, momenta, None, fixture, segment,
                                                blocks=blocks, space=space)
        direct = asymptotics.height_eval(fixture, blocks, probe, space=space)
        orbit = asymptotics.height_via_orbit(fixture, blocks, probe, space=space,
                                             phases=item["phases"])
        return {"rays": [(r.sup_abs, r.final_increment, r.linear_rate) for r in rays],
                "limit": limit.value, "direct": direct, "orbit": orbit}

    def failed(self, i, out):
        return False

    def check(self, i, out):
        item = self.items[i]
        problems = []
        want = laplacian_pairing(item["graph"], item["direction"])
        if _rel(out["limit"], want) > 1e-6:
            problems.append(f"segment limit {out['limit']!r} != Laplacian pairing {want!r}")
        if abs(out["orbit"] - out["direct"]) > 1e-9 * max(1.0, abs(out["direct"])):
            problems.append(f"orbit height {out['orbit']!r} != direct {out['direct']!r}")
        t_last = float(HEIGHT_TS[-1])
        if len(out["rays"]) != len(item["rays"]):
            problems.append("scan returned the wrong number of rays")
        floor = 1e-9 * max(1.0, abs(out["direct"]))
        for k, (sup, increment, rate) in enumerate(out["rays"]):
            # Along a bounded remainder the increments die out like 1/t; a
            # remainder that grows keeps increments of order sup * dt / t.
            tol = 1e-3 * sup + floor
            if not (increment <= tol and abs(rate) * t_last <= tol):
                problems.append(f"ray {k}: increments do not fall towards zero "
                                f"(final {increment:.3e}, rate {rate:.3e}, sup {sup:.3e})")
        return problems

    def controls(self, outputs):
        """A limit off by 1e-4, and a scan whose increments do not decay."""
        i, out = next(iter(outputs.items()))
        shifted = dict(out, limit=out["limit"] * (1 + 1e-4))
        sup = max(out["rays"][0][0], 1.0)
        growing = dict(out, rays=[(sup, 0.3 * sup, 0.3 * sup / 1e3)] + out["rays"][1:])
        return [("limit off by 1e-4", bool(self.check(i, shifted))),
                ("growing remainder", bool(self.check(i, growing)))]


# ---------------------------------------------------------------------------
# torus-lab

TOL_PERIODIC = 1e-10
TOL_MEAN = 1e-6
TOL_PDE = 1e-3


class TorusLab:
    """Two item kinds, about 2:1: a degeneration experiment on one seeded
    family, and a verification of one torus Green's function."""

    def __init__(self, run_dir, items):
        self.items = items
        self.families = {}
        for i, it in enumerate(items):
            if it["group"] == "experiment":
                data = jsonio.load_json(str(Path(run_dir) / it["files"]["family"]))
                self.families[i] = jsonio.degeneration_family_from_json(data)

    def run(self, i):
        item = self.items[i]
        if item["group"] == "experiment":
            rep = lab.degeneration_experiment(self.families[i])
            return {"estimate": rep.estimate, "prediction": rep.prediction,
                    "slope": rep.slope}
        tau = complex(*item["tau"])
        green = lab.TorusGreen(tau)
        points = [x + y * tau for x, y in item["points"]]
        periodic = 0.0
        w = points[-1]
        for z in points[:-1]:
            base = green.value(z, w)
            for shift in (1.0, tau, -2 + tau):
                periodic = max(periodic, abs(green.value(z + shift, w) - base))
        return {"periodic": periodic,
                "mean": green.integral_residual(n=item["integral_n"]),
                "pde": green.laplacian_residual(n=item["laplacian_n"])}

    def failed(self, i, out):
        return False

    def check(self, i, out):
        item = self.items[i]
        problems = []
        if item["group"] == "experiment":
            want = float(Fraction(item["limit"]))
            if _rel(out["estimate"], want) > 1e-3:
                problems.append(f"estimate {out['estimate']!r} not within 1e-3 of "
                                f"the circle pairing {want!r}")
            if _rel(out["prediction"], want) > 1e-9:
                problems.append(f"prediction {out['prediction']!r} != circle pairing "
                                f"{want!r}")
            if not abs(out["slope"] - 1.0) <= 0.1:
                problems.append(f"slope {out['slope']!r} not within 1 +- 0.1")
            return problems
        if not out["periodic"] <= TOL_PERIODIC:
            problems.append(f"periodicity defect {out['periodic']:.3e}")
        if not abs(out["mean"]) <= TOL_MEAN:
            problems.append(f"mean residual {out['mean']:.3e}")
        if not out["pde"] <= TOL_PDE:
            problems.append(f"PDE residual {out['pde']:.3e}")
        return problems

    def controls(self, outputs):
        """A torus estimate shifted by 2e-3, and a periodicity defect."""
        exp = next(i for i in outputs if self.items[i]["group"] == "experiment")
        grn = next(i for i in outputs if self.items[i]["group"] == "green")
        out = outputs[exp]
        shifted = dict(out, estimate=out["estimate"] + 2e-3 * abs(out["prediction"]))
        broken = dict(outputs[grn], periodic=1e-8)
        return [("shifted torus estimate", bool(self.check(exp, shifted))),
                ("periodicity defect", bool(self.check(grn, broken)))]


# ---------------------------------------------------------------------------
# cli-mix

def run_child(argv, cwd):
    """Run a child to completion; returns (exit code, stdout, stderr, peak
    RSS in MB).  Both pipes are drained together, then the child is reaped
    with ``wait4`` for its own resource usage."""
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, b"".join(chunks[proc.stdout]).decode(),
            b"".join(chunks[proc.stderr]).decode(), usage.ru_maxrss / 1024.0)


class CliMix:
    """One item: one cold ``python -m tropical_heights.cli`` invocation."""

    def __init__(self, run_dir, items):
        self.items = items
        self.run_dir = str(run_dir)
        self.traced_out = None
        # Each invocation is a cold process, so warming up can only fill the
        # file and bytecode caches: one invocation of each subcommand does,
        # plus the two whose outputs the negative controls corrupt.
        firsts = {}
        for i, it in enumerate(items):
            firsts.setdefault(it["argv"][0], i)
            if it["name"] in ("lab-crossratio", "bad-json"):
                firsts[it["name"]] = i
        self.warmup = sorted(firsts.values())
        d = Path(run_dir)
        # The inputs the invocations read, through the program's parsers.
        jsonio.load_graph_bundle(str(d / "banana.json"))
        jsonio.monodromy_fixture_from_json(jsonio.load_json(str(d / "mono.json")))
        jsonio.biextension_point_from_json(jsonio.load_json(str(d / "point.json")))
        jsonio.holomorphic_fixture_from_json(jsonio.load_json(str(d / "fixture.json")))
        jsonio.segment_from_json(jsonio.load_json(str(d / "segment.json")))
        jsonio.degeneration_family_from_json(jsonio.load_json(str(d / "family.json")))

    def command(self, i):
        argv = self.items[i]["argv"]
        if self.traced_out is not None:
            return [sys.executable, str(ROOT / "bench" / "probe.py"), "cli",
                    self.traced_out] + argv
        return [sys.executable, "-m", "tropical_heights.cli"] + argv

    def run(self, i):
        code, out, err, rss = run_child(self.command(i), self.run_dir)
        return {"exit": code, "stdout": out, "stderr": err, "rss_mb": rss}

    def _expect_error(self, out):
        problems = []
        if out["exit"] != 2:
            problems.append(f"exit {out['exit']}, expected 2")
        if out["stdout"]:
            problems.append(f"stdout not empty: {out['stdout'][:80]!r}")
        lines = out["stderr"].splitlines()
        if len(lines) != 1 or "Traceback" in out["stderr"]:
            problems.append(f"stderr is not one error line: {out['stderr'][-200:]!r}")
        return problems

    def failed(self, i, out):
        return self.items[i]["name"].startswith("fault-") and bool(self._expect_error(out))

    def check(self, i, out):
        item = self.items[i]
        name = item["name"]
        if item["exit"] == 2:
            return [] if name.startswith("fault-") else self._expect_error(out)
        if out["exit"] != 0:
            return [f"exit {out['exit']}: {out['stderr'][-300:]!r}"]
        text = out["stdout"].strip()
        try:
            value = _strict_json(text)
        except ValueError as exc:
            value = None
            json_error = str(exc)
        texts = {"symanzik-first": "Y_e1 + Y_e2", "symanzik-second": "9*Y_e1*Y_e2",
                 "curve-stability": "stable=true"}
        if name in texts:
            return [] if text == texts[name] else [f"output {text!r} != {texts[name]!r}"]
        if value is None:
            return [f"stdout is not strict JSON ({json_error}): {text[:80]!r}"]
        problems = []

        def close(got, want, tol, what):
            if not isinstance(got, (int, float)) or abs(got - want) > tol * max(1.0, abs(want)):
                problems.append(f"{what} = {got!r}, expected {want!r}")

        if name == "symanzik-ratio":
            close(value, 4.5, 1e-9, "ratio")
        elif name == "curve-dimensions":
            if value != {"equisingular": 0, "nodes": 2, "total": 2}:
                problems.append(f"dimensions {value!r}")
        elif name == "monodromy-check":
            if value != {"failures": [], "ok": True}:
                problems.append(f"monodromy report {value!r}")
        elif name == "poincare-norm":
            close(value, -math.pi, 1e-12, "norm")
        elif name == "limit-eval":
            close(value.get("value") if isinstance(value, dict) else value, 4.5, 1e-6, "limit")
        elif name == "lab-torus-limit":
            close(value.get("prediction"), 0.125, 1e-12, "prediction")
            close(value.get("estimate"), 0.125, 1e-3, "estimate")
            close(value.get("slope"), 1.0, 0.1, "slope")
        elif name == "lab-crossratio":
            close(value.get("value") if isinstance(value, dict) else value,
                  math.log(1.5), 1e-10, "cross-ratio height")
        elif name == "corpus-run":
            summary = value.get("summary") if isinstance(value, dict) else None
            if summary != {"total": 12, "passed": 12, "failed": 0}:
                problems.append(f"corpus summary {summary!r}")
        elif name.startswith("corpus-first"):
            close(value, tree_count(item["graph"]), 0.0, "psi(1,...,1)")
        elif name.startswith("corpus-ratio"):
            close(value, laplacian_pairing(item["graph"], item["graph"]["lengths"]),
                  1e-9, "ratio")
        else:
            problems.append(f"no check for {name}")
        return problems

    def controls(self, outputs):
        """NaN on stdout, a wrong exit code, and a traceback on a bad input."""
        cross = next(i for i in outputs if self.items[i]["name"] == "lab-crossratio")
        bad = next(i for i in outputs if self.items[i]["name"] == "bad-json")
        good = outputs[cross]
        nan = dict(good, stdout='{"value": NaN}\n')
        wrong_exit = dict(good, exit=1)
        traceback = dict(outputs[bad], exit=1,
                         stderr="Traceback (most recent call last):\nValueError\n")
        return [("NaN on stdout", bool(self.check(cross, nan))),
                ("wrong exit code", bool(self.check(cross, wrong_exit))),
                ("traceback on bad input", bool(self.check(bad, traceback)))]


WORKLOADS = {
    "corpus-sweep": CorpusSweep,
    "height-scan": HeightScan,
    "torus-lab": TorusLab,
    "cli-mix": CliMix,
}


def build(workload, run_dir, items):
    """Parse one pass's inputs through the program: the timed set-up."""
    return WORKLOADS[workload](run_dir, items)
