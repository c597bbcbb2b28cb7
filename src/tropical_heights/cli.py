"""Command-line front end.

Subcommands mirror the library layers: ``symanzik`` (polynomials and the
ratio evaluator), ``curve`` (stability and dimension counts),
``monodromy`` (exact block checks), ``poincare`` (invariant norm),
``limit`` (degenerating-segment extrapolation), ``lab`` (torus/sphere
experiments), and ``corpus`` (directory sweeps).

Exit codes: 0 on success, 1 when a requested numerical check fails,
2 on malformed input (schema violations, bad flags, validator errors).
Reports are deterministic: JSON with sorted keys, no timings on stdout.
"""

import argparse
import cmath
import functools
import json
import sys
import time

# Each subcommand imports its own layers, so a cold process loads only
# what it runs (the exact ones never load numpy).
from . import jsonio

CHECK_FAIL = 1
INPUT_ERROR = 2


def _emit(obj):
    if isinstance(obj, str):
        print(obj)
    else:
        # A NaN or an infinity raises ValueError (exit 2) instead of
        # printing JSON that strict parsers reject.
        print(json.dumps(obj, sort_keys=True, allow_nan=False))


def _parse_y(text, graph):
    """Parse ``e1=1.0,e2=3/2`` into an edge-weight dict."""
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise jsonio.SchemaError(f"expected edge=value, got {chunk!r}", ("--y",))
        eid, _, raw = chunk.partition("=")
        eid = eid.strip()
        value = jsonio.rational_from_json(raw.strip(), ("--y", eid))
        if value <= 0:
            raise jsonio.SchemaError("edge weights must be positive", ("--y", eid))
        try:
            float(value)
        except OverflowError:
            raise jsonio.SchemaError("edge weights must be finite as floats",
                                     ("--y", eid)) from None
        out[eid] = value
    unknown = set(out) - set(graph.edge_ids())
    if unknown:
        raise jsonio.SchemaError(f"unknown edges {sorted(unknown)}", ("--y",))
    missing = set(graph.edge_ids()) - set(out)
    if missing:
        raise jsonio.SchemaError(f"missing weights for {sorted(missing)}", ("--y",))
    return out


def _parse_complex(text):
    text = text.strip()
    try:
        if "," in text:
            re_part, _, im_part = text.partition(",")
            value = complex(float(re_part), float(im_part))
        else:
            value = complex(text)
    except ValueError:
        raise jsonio.SchemaError(f"not a complex number: {text!r}",
                                 ("--points",)) from None
    if not cmath.isfinite(value):
        raise jsonio.SchemaError(f"complex values must be finite: {text!r}",
                                 ("--points",))
    return value


def _require_momenta(bundle, flag_context):
    momenta = bundle.momentum_assignment()
    if momenta is None:
        raise jsonio.SchemaError(
            f"{flag_context} needs markings with momenta in the graph bundle",
            ("markings",))
    return momenta


# ---------------------------------------------------------------------------
# symanzik

def _cmd_symanzik(args):
    from .symanzik import (first_symanzik_det, first_symanzik_trees,
                           second_symanzik_bordered, second_symanzik_forests,
                           symanzik_ratio_eval)
    bundle = jsonio.load_graph_bundle(args.graph)
    graph = bundle.graph
    y = _parse_y(args.y, graph) if args.y else None

    if args.which == "first":
        routes = {"det": first_symanzik_det, "trees": first_symanzik_trees}
        default = "det"
    elif args.which == "second":
        momenta = _require_momenta(bundle, "symanzik second")
        routes = {
            "bordered": lambda g: second_symanzik_bordered(g, momenta),
            "forests": lambda g: second_symanzik_forests(g, momenta),
        }
        default = "bordered"
    else:  # ratio
        momenta = _require_momenta(bundle, "symanzik ratio")
        if y is None:
            raise jsonio.SchemaError("symanzik ratio needs --y weights", ("--y",))
        yf = {e: float(v) for e, v in y.items()}
        routes = {
            "schur": lambda g: symanzik_ratio_eval(g, yf, momenta, method="schur"),
            "polynomial": lambda g: symanzik_ratio_eval(g, yf, momenta,
                                                        method="polynomial"),
        }
        default = "schur"

    method = args.method or default
    if method not in routes:
        raise jsonio.SchemaError(
            f"method {method!r} does not apply to 'symanzik {args.which}' "
            f"(choose from {sorted(routes)})", ("--method",))

    if args.check:
        results = {name: fn(graph) for name, fn in sorted(routes.items())}
        names = sorted(results)
        first_result = results[names[0]]
        if args.which == "ratio":
            scale = max(1.0, *(abs(v) for v in results.values()))
            agree = all(abs(results[n] - first_result) <= 1e-9 * scale
                        for n in names[1:])
        else:
            agree = all(results[n] == first_result for n in names[1:])
        if not agree:
            _emit({"agree": False,
                   "results": {n: _render(results[n], y) for n in names}})
            return CHECK_FAIL
        value = first_result
    else:
        value = routes[method](graph)
    _emit(_render(value, y))
    return 0


def _render(value, y):
    """Polynomial -> canonical string (or exact number at y); float -> float."""
    if isinstance(value, float):
        return value
    if y is not None:
        return float(value.evaluate(y))
    return str(value)


# ---------------------------------------------------------------------------
# curve

def _cmd_curve(args):
    from .curves import arithmetic_genus, deformation_dimensions, is_stable
    bundle = jsonio.load_graph_bundle(args.graph)
    curve = bundle.curve()
    if args.which == "stability":
        stable = is_stable(curve, with_markings=bool(curve.markings))
        _emit(f"stable={'true' if stable else 'false'}")
    elif args.which == "genus":
        _emit(f"genus={arithmetic_genus(curve)}")
    else:  # dimensions
        dims = deformation_dimensions(curve, with_markings=bool(curve.markings))
        _emit(dict(dims._asdict()))
    return 0


# ---------------------------------------------------------------------------
# monodromy

def _cmd_monodromy(args):
    from .graphs import cycle_basis, first_betti
    from .monodromy import translation_block_check
    bundle = jsonio.load_graph_bundle(args.graph)
    vc, sc = jsonio.monodromy_fixture_from_json(jsonio.load_json(args.fixture))
    graph = bundle.graph
    h = first_betti(graph)
    if vc.genus != h:
        raise jsonio.SchemaError(
            f"fixture genus {vc.genus} != graph first Betti number {h}", ("edges",))
    if bundle.space is None:
        raise jsonio.SchemaError(
            "monodromy check needs markings with momenta in the graph bundle",
            ("markings",))
    momenta = {m.marking_id: m.momentum for m in bundle.markings}
    missing = [l for l in sc.sections1 + sc.sections2 if l not in momenta]
    if missing:
        raise jsonio.SchemaError(
            f"sections {sorted(set(missing))} have no marked momenta", ("markings",))
    p1 = {l: momenta[l] for l in sc.sections1}
    p2 = {l: momenta[l] for l in sc.sections2}
    basis = cycle_basis(graph)
    report = translation_block_check(basis, vc, sc, p1, p2, bundle.space)

    def fmt(value):
        if isinstance(value, tuple):
            return "(" + ", ".join(fmt(x) for x in value) + ")"
        return str(value)

    failures = [
        f"{edge}: {kind}" + (f"[{idx}]" if idx is not None else "")
        + f" {fmt(lhs)} != {fmt(rhs)}"
        for edge, kind, idx, lhs, rhs in report.failures
    ]
    ok = not failures
    _emit({"ok": ok, "failures": failures})
    return 0 if ok else CHECK_FAIL


# ---------------------------------------------------------------------------
# poincare / limit / lab / corpus

def _cmd_poincare(args):
    from .poincare import log_norm
    point = jsonio.biextension_point_from_json(jsonio.load_json(args.point))
    _emit(log_norm(point))
    return 0


def _cmd_limit(args):
    from .asymptotics import limit_along_segment
    bundle = jsonio.load_graph_bundle(args.graph)
    fixture = jsonio.holomorphic_fixture_from_json(jsonio.load_json(args.fixture))
    segment = jsonio.segment_from_json(jsonio.load_json(args.segment))
    momenta = _require_momenta(bundle, "limit eval")
    report = limit_along_segment(bundle.graph, momenta, None, fixture, segment)
    _emit({"value": report.value,
           "alphas": list(report.alphas),
           "samples": list(report.samples)})
    return 0


def _cmd_lab_torus(args):
    family = jsonio.degeneration_family_from_json(jsonio.load_json(args.family))
    from .lab import degeneration_experiment
    report = degeneration_experiment(family)
    _emit({"estimate": report.estimate, "prediction": report.prediction,
           "rel_error": report.rel_error, "slope": report.slope})
    return 0


def _cmd_lab_crossratio(args):
    from .lab import cross_ratio_height
    if len(args.points) != 4:
        raise jsonio.SchemaError("exactly four points are required", ("--points",))
    z1, z2, z3, z4 = (_parse_complex(p) for p in args.points)
    try:
        value = cross_ratio_height(z1, z2, z3, z4)
    except ValueError as exc:
        raise jsonio.SchemaError(str(exc), ("--points",)) from None
    _emit({"value": value})
    return 0


def _cmd_corpus(args):
    from .corpus import corpus_run
    t0 = time.monotonic()
    report = corpus_run(args.directory, threads=args.threads)
    print(f"corpus run: {report['summary']['total']} graphs in "
          f"{time.monotonic() - t0:.2f}s", file=sys.stderr)
    _emit(report)
    return 0 if report["summary"]["failed"] == 0 else CHECK_FAIL


# ---------------------------------------------------------------------------
# Parser

@functools.cache
def build_parser():
    """The argument parser, built on first use and reused by later calls."""
    parser = argparse.ArgumentParser(
        prog="tropical-heights",
        description="Graph polynomials, monodromy blocks, biextension norms, "
                    "and height degeneration experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sym = sub.add_parser("symanzik", help="graph polynomials and the ratio")
    p_sym.add_argument("which", choices=("first", "second", "ratio"))
    p_sym.add_argument("--graph", required=True, help="graph bundle JSON")
    p_sym.add_argument("--method",
                       choices=("trees", "det", "bordered", "forests",
                                "schur", "polynomial"))
    p_sym.add_argument("--y", help="edge weights, e.g. e1=1.0,e2=3/2")
    p_sym.add_argument("--check", action="store_true",
                       help="run all routes and require agreement")
    p_sym.set_defaults(func=_cmd_symanzik)

    p_curve = sub.add_parser("curve", help="stable-curve inspection")
    p_curve.add_argument("which", choices=("stability", "genus", "dimensions"))
    p_curve.add_argument("--graph", required=True)
    p_curve.set_defaults(func=_cmd_curve)

    p_mono = sub.add_parser("monodromy", help="exact nilpotent block checks")
    p_mono.add_argument("which", choices=("check",))
    p_mono.add_argument("--graph", required=True)
    p_mono.add_argument("--fixture", required=True,
                        help="vanishing-cycle / crossing fixture JSON")
    p_mono.set_defaults(func=_cmd_monodromy)

    p_poin = sub.add_parser("poincare", help="invariant biextension norm")
    p_poin.add_argument("which", choices=("norm",))
    p_poin.add_argument("--point", required=True, help="biextension point JSON")
    p_poin.set_defaults(func=_cmd_poincare)

    p_limit = sub.add_parser("limit", help="degenerating-segment limits")
    p_limit.add_argument("which", choices=("eval",))
    p_limit.add_argument("--graph", required=True)
    p_limit.add_argument("--fixture", required=True)
    p_limit.add_argument("--segment", required=True)
    p_limit.set_defaults(func=_cmd_limit)

    p_lab = sub.add_parser("lab", help="torus and sphere experiments")
    lab_sub = p_lab.add_subparsers(dest="lab_command", required=True)
    p_torus = lab_sub.add_parser("torus-limit", help="degeneration experiment")
    p_torus.add_argument("--family", required=True, help="family JSON")
    p_torus.set_defaults(func=_cmd_lab_torus)
    p_cross = lab_sub.add_parser("sphere-crossratio", help="four-point pairing")
    p_cross.add_argument("--points", nargs=4, required=True,
                         metavar="Z", help="four complex points, e.g. 1+2j or 1,2")
    p_cross.set_defaults(func=_cmd_lab_crossratio)

    p_corpus = sub.add_parser("corpus", help="directory sweeps")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_run = corpus_sub.add_parser("run", help="cross-method agreement sweep")
    p_run.add_argument("directory")
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker cap (default: TROPICAL_HEIGHTS_THREADS or 8)")
    p_run.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except jsonio.SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (ValueError, OSError, OverflowError) as exc:
        # OverflowError: a rational input too large to convert to a float.
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
