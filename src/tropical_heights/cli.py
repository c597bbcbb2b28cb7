"""Command-line front end.

Subcommands mirror the library layers: ``symanzik`` (polynomials and the
ratio evaluator), ``curve`` (stability and dimension counts),
``monodromy`` (exact block checks), ``poincare`` (invariant norm),
``limit`` (degenerating-segment extrapolation), ``lab`` (torus/sphere
experiments), and ``corpus`` (directory sweeps).

Exit codes: 0 on success, 1 when a numerical check fails (a requested
one, or a segment limit that misses phi/psi), 2 on malformed input
(schema violations, bad flags, validator errors).
Reports are deterministic: JSON with sorted keys, no timings on stdout.
"""

import argparse
import cmath
import functools
import json
import math
import sys
import time

# jsonio imports no layer, and each subcommand imports its own after the checks
# that need none, so a cold process loads only what it runs (never numpy if exact).
from . import jsonio

CHECK_FAIL = 1
INPUT_ERROR = 2
# Largest relative gap between a segment limit and phi/psi (criterion 6).
LIMIT_TOL = 1e-6


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
            as_float = float(value)
        except OverflowError:
            raise jsonio.SchemaError("edge weights must be finite as floats",
                                     ("--y", eid)) from None
        if as_float == 0.0:
            # Every route evaluates in floats, where this weight is no
            # longer positive.
            raise jsonio.SchemaError("edge weights must be positive as floats",
                                     ("--y", eid))
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

# The --method names of each quantity's two routes, and its default route.
_ROUTES = {"first": ("trees", "det"), "second": ("bordered", "forests"),
           "ratio": ("schur", "polynomial")}
_DEFAULT_ROUTE = {"first": "det", "second": "bordered", "ratio": "schur"}


def _cmd_symanzik(args):
    # Faults of the arguments alone are refused before the bundle is read.
    if args.which == "ratio" and not args.y:
        raise jsonio.SchemaError("symanzik ratio needs --y weights", ("--y",))
    method = args.method or _DEFAULT_ROUTE[args.which]
    if method not in _ROUTES[args.which]:
        raise jsonio.SchemaError(
            f"method {method!r} does not apply to 'symanzik {args.which}' "
            f"(choose from {sorted(_ROUTES[args.which])})", ("--method",))
    bundle = jsonio.load_graph_bundle(args.graph)
    from .symanzik import (_psi_phi, first_symanzik_det, first_symanzik_trees,
                           second_symanzik_bordered, second_symanzik_forests,
                           symanzik_ratio_eval)
    graph = bundle.graph
    y = _parse_y(args.y, graph) if args.y else None

    if args.which == "first":
        routes = {"det": first_symanzik_det, "trees": first_symanzik_trees}
    elif args.which == "second":
        momenta = _require_momenta(bundle, "symanzik second")
        routes = {
            "bordered": lambda g: second_symanzik_bordered(g, momenta),
            "forests": lambda g: second_symanzik_forests(g, momenta),
        }
    else:  # ratio
        momenta = _require_momenta(bundle, "symanzik ratio")
        yf = {e: float(v) for e, v in y.items()}

        def polynomial(g):
            # The exact polynomials of the det and bordered routes, from one
            # Kirchhoff matrix and one cofactor expansion. phi/psi is
            # homogeneous of degree 1, so it is evaluated in floats at y / 2^k,
            # with the largest weight in [1/2, 1), and scaled back by 2^k:
            # exact in floats while every product of up to deg(phi) scaled
            # weights is a normal float. Weights spread wider than that are
            # evaluated on their exact values, and the quotient rounded once.
            psi_poly, phi_poly = _psi_phi(g, momenta)
            k = math.frexp(max(yf.values()))[1]
            ys = {e: math.ldexp(v, -k) for e, v in yf.items()}
            low = math.frexp(min(yf.values()))[1] - 1 - k  # 2^low <= min(ys)
            try:
                if low * (psi_poly.degree() + 1) > -1000:
                    phi = phi_poly.evaluate(ys)
                    value = math.ldexp(phi / psi_poly.evaluate(ys), k)
                else:
                    phi = phi_poly.evaluate(y)
                    value = float(phi / psi_poly.evaluate(y))
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                # The Schur route's message for the same weights.
                raise ValueError("phi/psi overflows a float at these edge weights")
            if value == 0.0 and phi != 0:
                raise ValueError("phi/psi underflows a float at these edge weights")
            return value

        routes = {"schur": lambda g: symanzik_ratio_eval(g, yf, momenta),
                  "polynomial": polynomial}

    if args.check:
        results = {name: fn(graph) for name, fn in sorted(routes.items())}
        names = sorted(results)
        first_result = results[names[0]]
        if args.which == "ratio":
            agree = all(abs(results[n] - first_result)
                        <= 1e-9 * max(abs(results[n]), abs(first_result))
                        for n in names[1:])
        else:
            agree = all(results[n] == first_result for n in names[1:])
        if not agree:
            _emit({"agree": False,
                   "results": {n: _render(results[n], y) for n in names}})
            return CHECK_FAIL
        value = results[method]
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
    bundle = jsonio.load_graph_bundle(args.graph)
    from .curves import arithmetic_genus, deformation_dimensions, is_stable
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
    bundle = jsonio.load_graph_bundle(args.graph)
    vc, sc = jsonio.monodromy_fixture_from_json(jsonio.load_json(args.fixture))
    from .graphs import cycle_basis, first_betti
    from .monodromy import translation_block_check
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
    point = jsonio.biextension_point_from_json(jsonio.load_json(args.point))
    from .poincare import log_norm
    _emit(log_norm(point))
    return 0


def _cmd_limit(args):
    bundle = jsonio.load_graph_bundle(args.graph)
    fixture = jsonio.holomorphic_fixture_from_json(jsonio.load_json(args.fixture))
    segment = jsonio.segment_from_json(jsonio.load_json(args.segment))
    from .asymptotics import limit_along_segment
    from .graphs import first_betti
    from .symanzik import symanzik_ratio_eval
    momenta = _require_momenta(bundle, "limit eval")
    h = first_betti(bundle.graph)
    if fixture.genus != h:
        raise jsonio.SchemaError(
            f"fixture genus {fixture.genus} != graph first Betti number {h}", ("genus",))
    report = limit_along_segment(bundle.graph, momenta, None, fixture, segment)
    # The schedule is fixed, so a fixture large against Y / (2 pi alpha)
    # leaves every sample short of the limit phi/psi at the segment's Y:
    # an extrapolant that misses it (relative gap, absolute at 0) is no result.
    want = symanzik_ratio_eval(bundle.graph, {e: spec.y_scale for e, spec in
                                              segment.edges.items()}, momenta)
    gap = abs(report.value - want) / (abs(want) or 1.0)
    if not gap <= LIMIT_TOL:
        print(f"check failed: extrapolant {report.value!r} misses phi/psi {want!r} at the "
              f"segment's y_scale by relative gap {gap:.3g} > {LIMIT_TOL:g}; the fixed "
              f"schedule does not reach the limit", file=sys.stderr)
        return CHECK_FAIL
    _emit({"value": report.value,
           "alphas": list(report.alphas),
           "samples": list(report.samples)})
    return 0


def _cmd_lab_torus(args):
    family = jsonio.degeneration_family_from_json(jsonio.load_json(args.family))
    from .lab import degeneration_experiment
    report = degeneration_experiment(family)
    out = {"estimate": report.estimate, "prediction": report.prediction,
           "rel_error": report.rel_error, "slope": report.slope}
    if math.isnan(report.slope):
        # No log-log rate can be fitted to a remainder already at noise
        # level (the straight family); say so instead of printing NaN.
        out["slope"] = None
        out["remainder_at_noise_floor"] = True
    _emit(out)
    return 0


def _cmd_lab_crossratio(args):
    if len(args.points) != 4:
        raise jsonio.SchemaError("exactly four points are required", ("--points",))
    z1, z2, z3, z4 = (_parse_complex(p) for p in args.points)
    from .lab import cross_ratio_height
    try:
        value = cross_ratio_height(z1, z2, z3, z4)
    except ValueError as exc:
        raise jsonio.SchemaError(str(exc), ("--points",)) from None
    _emit({"value": value})
    return 0


def _cmd_corpus(args):
    jsonio.json_files(args.directory)  # a missing directory is refused before any layer loads
    from .corpus import corpus_run
    t0 = time.monotonic()
    report = corpus_run(args.directory)
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
                       choices=[r for routes in _ROUTES.values() for r in routes])
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
    # REMAINDER takes the values as they are: with nargs=4, argparse reads
    # a value such as -1e-3 or -1/2 as an option.
    p_cross.add_argument("--points", nargs=argparse.REMAINDER, required=True,
                         help="four complex points, e.g. 1+2j or 1,2 (last option)")
    p_cross.set_defaults(func=_cmd_lab_crossratio)

    p_corpus = sub.add_parser("corpus", help="directory sweeps")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_run = corpus_sub.add_parser("run", help="cross-method agreement sweep")
    p_run.add_argument("directory")
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
        # OverflowError: marking or divisor momenta past float range, which
        # the numeric routes divide as ints (x / d in symanzik); the value
        # rules of the input objects raise ValueError.
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
