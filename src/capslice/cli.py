"""Command line front end.

Subcommands: validate, metrics, slices, optimize, simulate, export.
Exit codes: 0 success, 1 domain violation (invalid graph, invalid slice,
impossible change), 2 usage or parse error.

Output is plain text when stdout is a terminal and JSON lines otherwise;
--format overrides.  Machine output is deterministic: keys are sorted and
iteration order is canonical everywhere, so identical inputs give identical
bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

from .graph import (
    FDGraph,
    GraphParseError,
    NodeKind,
    UnknownNodeError,
    export_dot,
    parse_graph,
    validate,
)
from .metrics import (
    MembershipError,
    cohesion,
    cohesion_map,
    coupling_matrix,
    resolve_membership,
    size_of,
)
from .rational import LiteralValueError, Memo, fixed, to_fraction
from .slicing import (
    EnumerationCapError,
    InvalidSliceError,
    SliceSearch,
    make_slice,
    rank_slices,
    score_slices,
    slice_objective,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
CONFIG_ENV = "CAPSLICE_CONFIG"

# optimizer and changesim are imported only by the subcommands that call
# them (optimize and export --manifest, simulate), so validate, metrics and
# slices start without them.  The two library calls the handlers make into
# them go through these module functions, which a caller may patch (the
# benchmark's tracer wraps cli.optimize and cli.compare_slices).


def optimize(*args, **kwargs):
    """optimizer.optimize, imported when called."""
    from .optimizer import optimize

    return optimize(*args, **kwargs)


def compare_slices(*args, **kwargs):
    """changesim.compare_slices, imported when called."""
    from .changesim import compare_slices

    return compare_slices(*args, **kwargs)


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _usage(message: str) -> _Failure:
    return _Failure(EXIT_USAGE, message)


def _domain(message: str) -> _Failure:
    return _Failure(EXIT_DOMAIN, message)


def _fraction_arg(text: str) -> Fraction:
    try:
        return to_fraction(text)
    except LiteralValueError as exc:  # a number, but not one to_fraction takes
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _machine(args) -> bool:
    if args.format:
        return args.format == "machine"
    return not sys.stdout.isatty()


# Every document _emit gets is a fresh tree of dicts and lists built by its
# handler, so it holds no cycle and the encoder skips json's circular walk;
# the bytes are those json.dumps gives with the same keys and separators.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def _emit(doc: dict) -> None:
    print(_ENCODER.encode(doc))


# a slice document as _emit writes it: keys sorted, compact separators
_SLICE_LINE = (
    '{"cohesion":{%s},"coupling":{%s},"f":%r,"mean_cohesion":%r,"mean_coupling":%r,'
    '"members":[%s],"membership":{%s},"type":"slice"}'
)


def _slice_writer(graph: FDGraph):
    """A function that prints one slice of graph as a machine line.

    The line is the bytes _emit gives for the slice document, written
    directly, with strings encoded as json encodes them
    (encode_basestring_ascii) and floats as their repr.  Each member's
    "id":cohesion, each "d":"o" owner and each "p->q":coupling of a pair and
    value (coupling is never negative, so equal floats print alike) is
    encoded once per writer.  Every object is sorted by its raw key, as
    sort_keys does: the slices come from a SliceSearch, whose members,
    memberships and per_node_cohesion keys already run in id order, so
    only coupling keys may need a re-sort.  The fragments hold one graph's
    values, so each cmd_slices call makes its own writer.
    """
    encode = json.encoder.encode_basestring_ascii
    cohesions = Memo(lambda m: f"{encode(m)}:{float(cohesion(graph, m))!r}")
    owners = Memo(lambda item: f"{encode(item[0])}:{encode(item[1])}")
    couplings = Memo(lambda item: f"{encode('->'.join(item[0]))}:{item[1]!r}")
    # Unless one function id is a prefix of another, "p->q" keys sort as
    # their (p, q) pairs and never coincide.  Sorted ids put such a pair
    # next to each other.
    funs = graph.function_ids
    prefixed = any(b.startswith(a) for a, b in zip(funs, funs[1:]))

    def write(slc, metrics) -> None:
        # int true division is correctly rounded, so u / scale is the float
        # of the exact coupling, the same double float() of its Fraction gives
        units, scale = metrics.coupling.units, metrics.coupling.scale
        pairs = zip(units, [u / scale for u in units.values()])
        if prefixed:
            # ("a", "b->c") and ("a->b", "c") share the key "a->b->c"; like a
            # dict of the pairs in (p, q) order, the later pair keeps it
            keyed = dict(zip(map("->".join, units), pairs))
            pairs = map(keyed.__getitem__, sorted(keyed))
        # each Fraction by the int division its float() makes
        f, ch, cp = metrics.aggregate, metrics.mean_cohesion, metrics.mean_coupling
        print(
            _SLICE_LINE
            % (
                ",".join(map(cohesions.__getitem__, metrics.per_node_cohesion)),
                ",".join(map(couplings.__getitem__, pairs)),
                f.numerator / f.denominator,
                ch.numerator / ch.denominator,
                cp.numerator / cp.denominator,
                ",".join(map(encode, slc.members)),
                ",".join(map(owners.__getitem__, slc.membership.items())),
            )
        )

    return write


# a comparison document and one of its cells as _emit writes them: keys
# sorted, compact separators
_COMPARISON_LINE = (
    '{"cells":[%s],"matrix":[%s],"scenarios":[%s],"slices":[%s],"threshold":%r,'
    '"totals":[%s],"type":"comparison","winners":[%s]}'
)
_CELL = '{"capabilities":[%s],"count":%d,"directives":[%s],"evaluated_on":%s}'


def _write_comparison(comparison, threshold) -> None:
    """Print a comparison as a machine line.

    The line is the bytes _emit gives for the comparison document, written
    directly as _slice_writer writes a slice: keys in sorted order, strings
    encoded as json encodes them (encode_basestring_ascii), ints as their
    repr and the threshold as its float's.  Each distinct set of ids is
    sorted and encoded once per document.
    """
    encode = json.encoder.encode_basestring_ascii
    ids = Memo(lambda s: ",".join(map(encode, sorted(s))))
    on = Memo(encode)  # "base" or "changed"

    def lists(rows) -> str:
        # each row, an iterable of written items, as a JSON list
        return ",".join("[%s]" % ",".join(row) for row in rows)

    reports = comparison.reports
    cells = [
        [
            _CELL % (ids[r.affected_capabilities], r.impact_count, ids[r.affected_directives],
                     on[r.evaluated_on])
            for r in row
        ]
        for row in reports
    ]
    scenarios = (
        '{"kind":%s,"target":%s}' % (encode(sc.kind.value), encode(sc.target))
        for sc in comparison.scenarios
    )
    print(
        _COMPARISON_LINE
        % (
            lists(cells),
            lists([str(r.impact_count) for r in row] for row in reports),
            ",".join(scenarios),
            lists(map(encode, s.members) for s in comparison.slices),
            float(to_fraction(threshold)),
            ",".join(map(str, comparison.totals)),
            lists(map(str, w) for w in comparison.winners),
        )
    )


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # a decode error has none
        raise _usage(f"cannot read {path}: {reason}") from exc


def _violation_doc(v) -> dict:
    return {"code": v.code, "subject": v.subject, "message": v.message}


def _load_graph(path: str) -> FDGraph:
    graph = parse_graph(_read_file(path))
    report = validate(graph)
    if not report.ok:
        lines = "; ".join(f"{v.code} {v.subject}: {v.message}" for v in report.violations)
        raise _domain(f"graph is invalid: {lines}")
    return graph


def _split_ids(text: str) -> list[str]:
    ids = [part.strip() for part in text.split(",") if part.strip()]
    if not ids:
        raise _usage(f"empty id list: {text!r}")
    return ids


# -- commands -------------------------------------------------------------------


def cmd_validate(args) -> int:
    graph = parse_graph(_read_file(args.graph))
    report = validate(graph)
    if _machine(args):
        _emit(
            {
                "type": "validation",
                "ok": report.ok,
                "violations": [_violation_doc(v) for v in report.violations],
            }
        )
    else:
        if report.ok:
            print(f"ok: {graph.n_nodes} nodes, {len(graph.edges())} edges")
        else:
            for v in report.violations:
                print(f"{v.code} {v.subject}: {v.message}")
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_metrics(args) -> int:
    graph = _load_graph(args.graph)
    cohesions = cohesion_map(graph)

    slice_obj = None
    if args.slice:
        slice_obj = make_slice(graph, _split_ids(args.slice))

    pair_rows: list[tuple[str, str, Fraction]] = []
    if args.pairs:
        ids = _split_ids(args.pairs)
        if len(set(ids)) < 2:
            raise _usage("--pairs needs at least two node ids")
        for nid in ids:
            node = graph.node(nid)
            if node.kind is not NodeKind.FUNCTION:
                raise _usage(f"--pairs expects function nodes, {nid!r} is a {node.kind.value}")
        if slice_obj is not None:
            extra = set(ids) - set(slice_obj.members)
            if extra:
                raise _usage(f"--pairs ids outside the slice: {', '.join(sorted(extra))}")
            membership = dict(slice_obj.membership)
        else:
            membership = resolve_membership(graph, ids, complete=False)
            owners = set(membership.values())
            for nid in sorted(set(ids)):
                if nid not in owners:
                    raise _domain(f"--pairs member {nid} owns no directives after resolution")
        matrix = coupling_matrix(graph, ids, membership)
        pair_rows = [(p, q, matrix[(p, q)]) for p, q in sorted(matrix)]

    refinement = {n: len(graph.children(n)) == 1 for n in graph.function_ids}
    if _machine(args):
        doc = {
            "type": "metrics",
            "nodes": [
                {
                    "id": n,
                    "size": size_of(graph, n),
                    "cohesion": float(cohesions[n]),
                    "refinement": refinement[n],
                }
                for n in graph.function_ids
            ],
        }
        if pair_rows:
            doc["pairs"] = [
                {"from": p, "to": q, "coupling": float(v)} for p, q, v in pair_rows
            ]
        if slice_obj is not None:
            doc["slice"] = list(slice_obj.members)
        _emit(doc)
    else:
        width = max([len("node")] + [len(n) for n in graph.function_ids])
        print(f"{'node'.ljust(width)}  size  cohesion")
        for n in graph.function_ids:
            mark = "  refinement" if refinement[n] else ""
            print(f"{n.ljust(width)}  {size_of(graph, n):>4}  {fixed(cohesions[n])}{mark}")
        for p, q, v in pair_rows:
            print(f"Cp({p},{q}) = {fixed(v)}")
    return EXIT_OK


def _print_slice(slc, metrics) -> None:
    print(f"slice {','.join(slc.members)}")
    print(f"  f = {fixed(metrics.aggregate)}")
    print(
        "  Ch: "
        + " ".join(f"{m}={fixed(c)}" for m, c in sorted(metrics.per_node_cohesion.items()))
    )
    if metrics.coupling:
        print(
            "  Cp: "
            + " ".join(
                f"{p}->{q}={fixed(v)}" for (p, q), v in sorted(metrics.coupling.items())
            )
        )
    print(
        "  membership: "
        + " ".join(f"{d}:{m}" for d, m in sorted(slc.membership.items()))
    )


def cmd_slices(args) -> int:
    graph = _load_graph(args.graph)
    lam = args.lam if args.lam is not None else Fraction(1)
    machine = _machine(args)

    search = SliceSearch(
        graph, max_slices=args.max_slices, time_budget=args.time_budget
    )
    write_slice = _slice_writer(graph) if machine else _print_slice
    collected = []
    stream = not args.initial_only
    for slc in search:
        metrics = slice_objective(graph, slc, lam)
        collected.append((slc, metrics))
        if stream:
            write_slice(slc, metrics)
    complete = bool(search.complete)

    if not collected:
        if machine:
            _emit({"type": "summary", "count": 0, "complete": complete})
        else:
            print("no valid slices")
        return EXIT_OK

    ranking = rank_slices([s for s, _ in collected], [m for _, m in collected])
    if args.initial_only:
        for entry in ranking.initial_entries:
            write_slice(entry.slice, entry.metrics)

    if machine:
        _emit(
            {
                "type": "summary",
                "count": len(collected),
                "complete": complete,
                "mean_f": float(ranking.mean_aggregate),
                "ranking": [list(e.slice.members) for e in ranking.entries],
                "initial": [list(e.slice.members) for e in ranking.initial_entries],
            }
        )
    else:
        if not complete:
            print("TRUNCATED: enumeration stopped early, results are a prefix")
        print(f"{len(collected)} slices, mean f = {fixed(ranking.mean_aggregate)}")
        print(
            "ranking: "
            + "  ".join(
                ",".join(e.slice.members)
                + (" *" if e.initial else "")
                for e in ranking.entries
            )
        )
        print("(* = initial set)")
    return EXIT_OK


def cmd_optimize(args) -> int:
    from .optimizer import OptimizationConfig

    graph = _load_graph(args.graph)
    config_path = args.config or os.environ.get(CONFIG_ENV)
    config = OptimizationConfig.load(config_path) if config_path else OptimizationConfig()
    if args.lam is not None:
        config = dataclasses.replace(config, lam=args.lam)
    machine = _machine(args)

    search = SliceSearch(graph, max_slices=args.max_slices, time_budget=args.time_budget)
    slices = list(search)
    complete = bool(search.complete)
    if not slices:
        if machine:
            _emit({"type": "optimization", "candidates": 0, "complete": complete, "best": None})
        else:
            print("no valid slices to optimize")
        return EXIT_OK

    metrics = score_slices(graph, slices, config.lam)
    ranking = rank_slices(slices, metrics)
    initial = ranking.initial_entries
    result = optimize(
        graph,
        [e.slice for e in initial],
        config,
        metrics=[e.metrics for e in initial],
    )

    def score_doc(sc) -> dict:
        return {
            "members": list(sc.slice.members),
            "f": float(sc.f),
            "tf": float(sc.tf),
            "makespan": float(sc.schedule.makespan),
            "order_cost": float(sc.schedule.order_cost),
            "order": list(sc.schedule.order),
            "schedule_method": sc.schedule.method,
            "z": None if sc.z is None else float(sc.z),
            "violated": list(sc.violated),
        }

    if machine:
        _emit(
            {
                "type": "optimization",
                "candidates": len(slices),
                "initial": len(initial),
                "complete": complete,
                "best": None if result.best is None else score_doc(result.best),
                "feasible": [score_doc(s) for s in result.feasible],
                "pareto": [list(s.slice.members) for s in result.pareto],
                "infeasible": [score_doc(s) for s in result.infeasible],
            }
        )
    else:
        if not complete:
            print("TRUNCATED: enumeration stopped early, optimum is within the explored prefix")
        print(f"{len(slices)} candidate slices, {len(initial)} in the initial set")
        if result.best is None:
            print("no feasible slice under the given constraints")
            for sc in result.infeasible:
                print(
                    f"  {','.join(sc.slice.members)} violates {','.join(sc.violated)}"
                )
        else:
            b = result.best
            print(
                f"best: {','.join(b.slice.members)}  z={fixed(b.z)}  f={fixed(b.f)}"
                f"  tf={fixed(b.tf)}  makespan={fixed(b.schedule.makespan)}"
            )
            print(f"  build order: {' -> '.join(b.schedule.order)} ({b.schedule.method})")
            print(
                "pareto front: "
                + "  ".join(",".join(s.slice.members) for s in result.pareto)
            )
            for sc in result.infeasible:
                print(f"infeasible: {','.join(sc.slice.members)} ({','.join(sc.violated)})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .changesim import DEFAULT_THRESHOLD, ChangeError, parse_scenarios

    graph = _load_graph(args.graph)
    scenarios = parse_scenarios(_read_file(args.scenarios))
    slices = [make_slice(graph, _split_ids(spec)) for spec in args.slice]
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    try:
        comparison = compare_slices(graph, slices, scenarios, threshold)
    except ChangeError as exc:
        raise _domain(str(exc)) from exc

    machine = _machine(args)
    if machine:
        _write_comparison(comparison, threshold)
    else:
        names = [",".join(s.members) for s in comparison.slices]
        for i, row in enumerate(comparison.reports):
            print(f"slice {names[i]}  (total impact {comparison.totals[i]})")
            for r in row:
                print(
                    f"  {r.scenario.kind.value} {r.scenario.target}: count={r.impact_count}"
                    f"  directives={','.join(sorted(r.affected_directives)) or '-'}"
                    f"  capabilities={','.join(sorted(r.affected_capabilities)) or '-'}"
                )
        for j, sc in enumerate(comparison.scenarios):
            best = " ".join(names[i] for i in comparison.winners[j])
            print(f"least impacted by {sc.kind.value} {sc.target}: {best}")
    return EXIT_OK


def cmd_export(args) -> int:
    graph = _load_graph(args.graph)
    lam = args.lam if args.lam is not None else Fraction(1)
    machine = _machine(args)

    if args.manifest:
        if not args.slice:
            raise _usage("--manifest needs a --slice to export")
        from .optimizer import export_capabilities, validate_manifest

        slc = make_slice(graph, _split_ids(args.slice))
        doc = export_capabilities(graph, slc, lam=lam)
        validate_manifest(doc)
        if machine:
            _emit(doc)
        else:
            print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK

    annotations = None
    if args.slice:
        slc = make_slice(graph, _split_ids(args.slice))
        annotations = slice_objective(graph, slc, lam)
    text = export_dot(graph, annotations)
    if machine:
        _emit({"type": "dot", "text": text})
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- wiring ---------------------------------------------------------------------


class _Once(argparse.Action):
    """Store a flag's value; a second occurrence is a usage error, not a silent drop."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, values)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # The full parser and its subparsers' choices (each subcommand's own
    # parser, by name).  Built once per process and never mutated after:
    # parse_args fills a fresh Namespace from immutable defaults (None or
    # False) on every call, and the handlers look library names up as module
    # globals when they run.  Each flag goes only on the subcommands whose
    # handler reads it.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format",
        choices=("text", "machine"),
        default=None,
        help="output mode; default is text on a terminal, machine otherwise",
    )
    objective = argparse.ArgumentParser(add_help=False)
    objective.add_argument(
        "--lambda",
        dest="lam",
        type=_fraction_arg,
        default=None,
        help="coupling penalty weight in the slice objective (default 1)",
    )
    enumeration = argparse.ArgumentParser(add_help=False)
    enumeration.add_argument(
        "--max-slices", type=int, default=None, help="stop enumeration after this many slices"
    )
    enumeration.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="stop enumeration after this many seconds",
    )
    searching = [output, objective, enumeration]

    parser = argparse.ArgumentParser(
        prog="capslice",
        description="Slice a function decomposition graph into capabilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[output], help="check a graph file")
    p.add_argument("graph")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("metrics", parents=[output], help="sizes, cohesion, coupling")
    p.add_argument("graph")
    p.add_argument("--pairs", default=None, help="comma list of functions to couple")
    p.add_argument("--slice", action=_Once, default=None, help="slice context for membership")
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("slices", parents=searching, help="enumerate and rank valid slices")
    p.add_argument("graph")
    p.add_argument(
        "--initial-only",
        action="store_true",
        help="print only slices scoring above the mean",
    )
    p.set_defaults(handler=cmd_slices)

    p = sub.add_parser("optimize", parents=searching, help="pick the best feasible slice")
    p.add_argument("graph")
    p.add_argument(
        "config",
        nargs="?",
        default=None,
        help=f"optimization config JSON (default: ${CONFIG_ENV})",
    )
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("simulate", parents=[output], help="measure change impact per slice")
    p.add_argument("graph")
    p.add_argument("scenarios", help="JSON list of change scenarios")
    p.add_argument(
        "--slice",
        action="append",
        required=True,
        help="comma list of members; repeat to compare several slices",
    )
    p.add_argument(
        "--threshold",
        type=_fraction_arg,
        default=None,
        help="impact coupling threshold in (0, 1] (default 0.125)",
    )
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser(
        "export", parents=[output, objective], help="emit DOT or a capability manifest"
    )
    p.add_argument("graph")
    p.add_argument("--manifest", action="store_true", help="emit a capability manifest")
    p.add_argument("--slice", action=_Once, default=None, help="slice to export")
    p.set_defaults(handler=cmd_export)

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace _parsers()[0].parse_args(argv) gives, exiting as it does.

    A line whose first word names a subcommand goes straight to the parser
    the full parser would hand the rest of it to, and command is set as the
    full parser sets it.  Every other line, and one that subparser leaves
    arguments of, goes through the full parser, for its usage and error text
    and exit codes.
    """
    parser, subparsers = _parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit code.

    argv is read once, as a list.  A line whose first word names a
    subcommand is parsed by that subcommand's own parser; any other line,
    and one that parser leaves arguments of, by the full parser, which gives
    the usage, errors and exit codes (_parse_args).  Machine documents are
    encoded by one shared encoder without json's circular-reference walk:
    each is a fresh tree its handler builds (_emit).

    Safe to call repeatedly in one process: the parsers are built on the
    first call and shared, unchanged, by every later one, so no call sees
    another's arguments.  A shell invocation runs main once and gains nothing
    from this.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        return args.handler(args)
    except _Failure as failure:
        print(f"error: {failure.message}", file=sys.stderr)
        return failure.code
    except (GraphParseError, UnknownNodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidSliceError as exc:
        for v in exc.violations:
            print(f"{v.code} {v.subject}: {v.message}", file=sys.stderr)
        return EXIT_DOMAIN
    except (MembershipError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # a JSON number is a double
        print(f"error: a value is too large for JSON output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
