"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out PATH]

Run from the root of a checkout.  The run writes one pass of seeded inputs
(``gen.py``), times set-up in fresh interpreters, runs an untimed warm-up
pass and the negative controls, then makes whole timed passes until it has
measured at least ``--seconds`` seconds and at least 100 items.  Every item
is timed between two bursts of reference work and scaled by them
(``calib.py``), and every output is checked (``work.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines before
it give the raw (uncalibrated) figures and, traced, every per-layer figure.
``--out`` also writes the full result, with machine info, as JSON.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _reexec_fixed_layout():
    """Re-exec this process (same pid) with a fixed hash seed and without
    address-space randomisation, for it and its children.  Set and dict
    order, and the memory layout, then no longer change the program's speed
    from one run to the next: with them, identical runs differ by ~5 %."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass
    env = dict(os.environ, PYTHONHASHSEED="0", TROPICAL_HEIGHTS_BENCH_EXEC="1")
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


if __name__ == "__main__" and not os.environ.get("TROPICAL_HEIGHTS_BENCH_EXEC"):
    _reexec_fixed_layout()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The process must stay single-threaded for the reference bursts, so numpy
# gets one BLAS thread; children inherit this and the checkout's sources.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for the run and its children: the host slows each CPU apart, so a
# burst tracks the work beside it only on the CPU that work runs on.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

import calib  # noqa: E402  (standard library only)
import gen  # noqa: E402  (standard library only)

# Each workload is calibrated by the reference most like its work: CLI
# items run in child interpreters, corpus-sweep in pure Python, the others
# in small numpy calls.
REFERENCES = {"corpus-sweep": calib.LOOP, "height-scan": calib.NUMERIC,
              "torus-lab": calib.NUMERIC, "cli-mix": calib.SPAWN}
MIN_ITEMS = 100
# Items are grouped into segments of at least this much work between two
# bursts; an item longer than this gets bursts of its own.
SEGMENT_S = 0.02
SETUP_REPEATS = 3
CHILD_REPEATS = 3


def timed_child(cmd, runs=2):
    """Wall time of a child process between two bursts of bare interpreter
    starts: (raw s, scale, completed process)."""
    before = calib.SPAWN.burst(runs)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    raw = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return raw, calib.SPAWN.factor(before, calib.SPAWN.burst(runs)), proc


def measure_setup(workload, run_dir):
    """Median calibrated set-up time over fresh interpreters, in seconds."""
    cmd = [sys.executable, str(BENCH / "probe.py"), "setup", workload, str(run_dir)]
    timed_child(cmd)  # warms the file cache and the bytecode cache
    cal, raw = [], []
    for _ in range(SETUP_REPEATS):
        _wall, scale, proc = timed_child(cmd)
        seconds = float(proc.stdout.split()[-1])
        raw.append(seconds)
        cal.append(seconds * scale)
    return statistics.median(cal), raw


def measure_children():
    """cli.python.ms (bare interpreter start) and cli.import.ms (cold
    ``import tropical_heights`` as ``-X importtime`` reports it)."""
    python, imports, breakdown = [], [], {}
    for _ in range(CHILD_REPEATS):
        raw, scale, _proc = timed_child([sys.executable, "-c", "pass"])
        python.append(raw * 1e3 * scale)
        _raw, scale, proc = timed_child([sys.executable, "-X", "importtime", "-c",
                                         "import tropical_heights"])
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[1].isdigit():
                continue
            name = parts[2]
            if name == "tropical_heights":
                imports.append(int(parts[1]) / 1e3 * scale)
            if name in ("numpy", "fractions", "json") or name.startswith("tropical_heights."):
                breakdown.setdefault(name, []).append(int(parts[1]) / 1e3 * scale)
    return (statistics.median(python), statistics.median(imports),
            {k: statistics.median(v) for k, v in breakdown.items()})


class Run:
    """State of one run: the workload, its outputs' problems, its records."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.ref = REFERENCES[workload]
        self.problems = []
        self.records = []  # dicts: item, raw and calibrated s, failed, traced, rss
        self.bursts = []
        self.burst_runs = 1
        self.layer_passes = []  # per traced pass: calibrated per-layer figures
        self.controls = {}
        self.passes = 0
        self.elapsed = 0.0
        self.peak_rss_mb = 0.0
        self.span_files = []
        self.missing = []  # layers the tracer could not find in the program

    _STATE = ("problems", "records", "bursts", "layer_passes", "controls", "passes",
              "elapsed", "peak_rss_mb", "span_files", "missing")

    def state(self):
        return {key: getattr(self, key) for key in self._STATE}

    def merge(self, state):
        """Add a worker's passes to this run."""
        for key in ("problems", "records", "bursts", "layer_passes", "span_files", "missing"):
            getattr(self, key).extend(state[key])
        for name, rejected in state["controls"].items():
            self.controls[name] = self.controls.get(name, True) and rejected
        self.passes += state["passes"]
        self.elapsed += state["elapsed"]
        self.peak_rss_mb = max(self.peak_rss_mb, state["peak_rss_mb"])

    def check(self, wl, i, out):
        problems = wl.check(i, out)
        for p in problems:
            self.problems.append(f"{self.items[i]['name']}: {p}")
        return wl.failed(i, out)

    def run_item(self, wl, i):
        try:
            return wl.run(i), None
        except Exception as exc:  # a program error is an incorrect output
            return None, f"{self.items[i]['name']}: raised {exc!r}"

    def timed_pass(self, wl, traced, tracer=None):
        """One whole pass over the items, calibrated segment by segment.

        ``traced`` passes collect per-layer figures: from ``tracer`` in this
        process, or from the traced child of each CLI invocation.
        """
        n = len(self.items)
        layers = {}
        segment, seg_raw = [], 0.0
        before = self.ref.burst(self.burst_runs)
        self.bursts.append(before)
        for i in range(n):
            if tracer is not None:
                tracer.item = i
                snap = tracer.snapshot()
            t0 = time.perf_counter()
            out, error = self.run_item(wl, i)
            raw = time.perf_counter() - t0
            delta = None
            if tracer is not None:
                delta = _delta(snap, tracer.snapshot())
            elif traced and out is not None:
                delta = _child_delta(wl.traced_out, self.missing)
            if error is not None:
                self.problems.append(error)
                failed = False
            else:
                failed = self.check(wl, i, out)
            rss = out.get("rss_mb") if isinstance(out, dict) else None
            segment.append((i, raw, failed, delta, rss))
            seg_raw += raw
            if seg_raw >= SEGMENT_S or i == n - 1:
                self.burst_runs = self.ref.runs_for(seg_raw)
                after = self.ref.burst(self.burst_runs)
                self.bursts.append(after)
                scale = self.ref.factor(before, after)
                for j, r, f, d, m in segment:
                    self.records.append({"item": j, "raw": r, "cal": r * scale,
                                         "failed": f, "traced": traced, "rss_mb": m})
                    if d is not None:
                        _accumulate(layers, d, scale)
                before, segment, seg_raw = after, [], 0.0
        if traced:
            self.layer_passes.append(layers)


def _delta(before, after):
    (s0, c0, k0), (s1, c1, k1) = before, after
    import spans
    out = {}
    for idx, name in enumerate(spans.NAMES):
        out[name + ".self_ms"] = (s1[idx] - s0[idx]) * 1e3
        out[name + ".calls"] = c1[idx] - c0[idx]
    for key in k1:
        out[key] = k1[key] - k0[key]
    return out


def _child_delta(path, missing):
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    missing.extend(m for m in summary["missing"] if m not in missing)
    out = {}
    for name, fig in summary["layers"].items():
        out[name + ".self_ms"] = fig["self_ms"]
        out[name + ".calls"] = fig["calls"]
    out.update(summary["counts"])
    return out


def _accumulate(layers, delta, scale):
    for key, value in delta.items():
        if key.endswith("_ms"):
            value *= scale
        layers[key] = layers.get(key, 0) + value


def layer_figures(run, overhead, children):
    """Every per-layer figure of the traced passes, per pass."""
    passes = run.layer_passes
    keys = sorted({k for p in passes for k in p})
    fig = {}
    for key in keys:
        values = [p.get(key, 0) for p in passes]
        fig[key] = statistics.mean(values) if key.endswith("_ms") else values[0]
    for layer in ("graphs.spanning_trees", "graphs.spanning_2forests"):
        tried = fig.pop(layer + ".tried", 0)
        found = fig.pop(layer + ".found", 0)
        fig[layer + ".yield"] = found / tried if tried else 0.0
        if found and not tried:  # the enumeration no longer builds a union-find per subset
            run.missing.append(layer + ".tried")
    counts_repeat = all(p.get(k, 0) == passes[0].get(k, 0)
                        for p in passes for k in keys if not k.endswith("_ms"))
    python_ms, import_ms, breakdown = children
    fig["cli.python.ms"] = python_ms
    fig["cli.import.ms"] = import_ms
    for name, ms in breakdown.items():
        fig[f"cli.import.{name}.ms"] = ms
    if run.workload == "cli-mix":
        by_sub = {}
        for r in run.records:
            if not r["traced"]:
                by_sub.setdefault(run.items[r["item"]]["argv"][0], []).append(r["cal"] * 1e3)
        for sub, values in sorted(by_sub.items()):
            fig[f"cli.{sub}.ms"] = statistics.median(values)
    fig["bench.calibration.ms"] = statistics.median(run.bursts)
    fig["bench.trace_overhead"] = overhead
    return fig, counts_repeat


def p90(values):
    """90th percentile, interpolated linearly between closest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(records, bursts):
    cal = [r["cal"] for r in records]
    raw = [r["raw"] for r in records]
    e2e = {"items_per_s": len(cal) / sum(cal),
           "latency_ms.p50": statistics.median(cal) * 1e3,
           "latency_ms.p90": p90(cal) * 1e3}
    rawfig = {"items_per_s": len(raw) / sum(raw),
              "latency_ms.p50": statistics.median(raw) * 1e3,
              "latency_ms.p90": p90(raw) * 1e3,
              "burst_ms.median": statistics.median(bursts),
              "burst_ms.min": min(bursts), "burst_ms.max": max(bursts)}
    return e2e, rawfig


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


# Height-scan's and torus-lab's items run numpy code whose speed, beside
# the reference, differs from one process to the next by a few per cent
# (measured: 5-7 % between fresh processes, against 1-2 % between windows of
# one process).  Their timed passes are therefore split over fresh worker
# processes, one after another, each a single-threaded copy of this one.
WORKERS = {"height-scan": 6, "torus-lab": 2}
# When the host changes speed, height-scan's items move further than the
# reference beside them (in one run a 45 % raw slowdown calibrated to a 10 %
# one), so its runs measure twice ``--seconds`` to average more of those
# changes.
MEASURE = {"height-scan": 2}


def measure_passes(args, items, run_dir, min_items):
    """Warm-up, negative controls and the timed passes, in this process."""
    run = Run(args.workload, items)
    sys.path.insert(0, str(SRC))
    import work
    wl = work.build(args.workload, run_dir, items)

    # Untimed warm-up pass; its outputs feed the negative controls.
    outputs = {}
    for i in getattr(wl, "warmup", range(len(items))):
        out, error = run.run_item(wl, i)
        if error is not None:
            run.problems.append(error)
            continue
        run.check(wl, i, out)
        outputs[i] = out
    run.controls = dict(wl.controls(outputs))
    for name, rejected in run.controls.items():
        if not rejected:
            run.problems.append(f"negative control not rejected: {name}")

    # Whole passes; traced runs alternate untraced and traced passes.
    cli = args.workload == "cli-mix"
    tracer = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and run.passes % 2 == 1
        active = None
        if traced and cli:
            wl.traced_out = str(run_dir / "child-trace.json")
        elif traced:
            import spans
            tracer = tracer or spans.Tracer()
            active = tracer.install()
            run.missing.extend(m for m in tracer.missing if m not in run.missing)
        try:
            run.timed_pass(wl, traced, active)
        finally:
            if active is not None:
                active.uninstall()
            if cli:
                wl.traced_out = None
        run.passes += 1
        run.elapsed = time.perf_counter() - start
        if args.trace:
            if run.elapsed >= args.seconds and run.passes % 2 == 0:
                break
        elif run.elapsed >= args.seconds and len(run.records) >= min_items:
            break
    if cli:
        run.peak_rss_mb = max(r["rss_mb"] for r in run.records if not r["traced"])
    else:
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        path = trace_path(args)
        tracer.write(path)
        run.span_files.append(str(path))
    return run


def run_workers(args, items, run_dir, count):
    """The timed part of the run in ``count`` fresh worker processes."""
    run = Run(args.workload, items)
    for k in range(count):
        part = run_dir / f"worker-{k}.json"
        seconds = args.seconds * MEASURE.get(args.workload, 1) / count
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", repr(seconds),
                        "--trace", str(args.trace), "--worker", str(run_dir), str(part),
                        "--worker-index", str(k)]
                       + (["--out", args.out] if args.out else []),
                       check=True, cwd=ROOT)
        with open(part, encoding="utf-8") as fh:
            run.merge(json.load(fh))
    return run


def measure(args, items, run_dir, spec):
    setup = None
    if not args.trace:
        setup = measure_setup(args.workload, run_dir)
    count = WORKERS.get(args.workload, 1)
    if count > 1:
        run = run_workers(args, items, run_dir, count)
    else:
        run = measure_passes(args, items, run_dir, MIN_ITEMS)

    plain = [r for r in run.records if not r["traced"]]
    e2e, rawfig = end_to_end(plain, run.bursts)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": run.passes, "workers": count,
              "items_per_pass": len(items), "elapsed_s": run.elapsed,
              "attempted": len(run.records),
              "failed": sum(1 for r in run.records if r["failed"]),
              "negative_controls": run.controls,
              "raw": rawfig, "machine": machine_info(),
              "samples": {"columns": ["item", "raw_ms", "calibrated_ms", "traced"],
                          "rows": [[r["item"], r["raw"] * 1e3, r["cal"] * 1e3, r["traced"]]
                                   for r in run.records],
                          "bursts_ms": run.bursts}}
    if setup is not None:
        e2e["setup_s"] = setup[0]
        rawfig["setup_s"] = statistics.median(setup[1])
    e2e["peak_rss_mb"] = run.peak_rss_mb
    result["end_to_end"] = e2e
    if args.trace:
        traced = [r for r in run.records if r["traced"]]
        overhead = sum(r["cal"] for r in traced) / sum(r["cal"] for r in plain) - 1.0
        layers, counts_repeat = layer_figures(run, overhead, measure_children())
        result["per_layer"] = layers
        result["counts_repeat"] = counts_repeat
        result["spans"] = run.span_files
        if not counts_repeat:
            run.problems.append("layer counts differ between traced passes")
        layers["missing"] = sorted(set(run.missing))
        for layer in layers["missing"]:
            run.problems.append(f"traced layer or counter not found in the program: {layer}")
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e
    result["correct"] = not run.problems
    result["problems"] = run.problems[:50]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    return result


def trace_path(args):
    base = Path(args.out).parent if args.out else OUT
    worker = f"-w{args.worker_index}" if args.worker else ""
    return base / f"trace-{args.workload}-{args.seed}{worker}.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    # A worker reads the inputs in RUN_DIR and writes its passes to PART.
    parser.add_argument("--worker", nargs=2, metavar=("RUN_DIR", "PART"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker-index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tropical_heights" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    OUT.mkdir(parents=True, exist_ok=True)
    if args.worker:
        run_dir, part = Path(args.worker[0]), args.worker[1]
        with open(run_dir / "manifest.json", encoding="utf-8") as fh:
            items = json.load(fh)["items"]
        count = WORKERS.get(args.workload, 1)
        run = measure_passes(args, items, run_dir, -(-MIN_ITEMS // count))
        with open(part, "w", encoding="utf-8") as fh:
            json.dump(run.state(), fh)
        return 0
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        items = gen.write_inputs(args.workload, args.seed, run_dir)
        result = measure(args, items, run_dir, spec)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in result["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    print(f"# {args.workload} seed={args.seed}: {result['passes']} passes of "
          f"{result['items_per_pass']} items in {result['elapsed_s']:.1f} s")
    print("# raw " + json.dumps(result["raw"], sort_keys=True))
    if args.trace:
        print("# layers " + json.dumps(result["per_layer"], sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
