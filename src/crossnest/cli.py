"""Command-line interface.

Exit codes: 0 when the requested check passes (or the command is purely
computational), 1 when a counting claim is violated, 2 on usage or format
errors (including inputs that break a command's precondition), and 141
(the shell's status for a process ended by SIGPIPE) when standard output
is closed before everything is written, as in ``crossnest ... | head -1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import bijection, codec, experiments, graphs, patterns, shapes

USAGE_ERROR = 2
CLAIM_VIOLATED = 1
OUTPUT_CLOSED = 141  # 128 + SIGPIPE (13)


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _parse_bounds(text: Optional[str]) -> dict:
    bounds: dict = {}
    if not text:
        return bounds
    for item in text.split(","):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad bounds entry (expected key=value): {item!r}")
        key = key.strip()
        if key in bounds:
            raise ValueError(f"bound {key!r} given more than once")
        bounds[key] = int(value)
    return bounds


def _cmd_enumerate_fillings(args) -> int:
    shape = shapes.validate_shape(_parse_int_tuple(args.shape))
    profile = shapes.SumProfile(
        _parse_int_tuple(args.rows), _parse_int_tuple(args.cols)
    )
    first = True
    for filling in shapes.enumerate_fillings(shape, profile):
        if not first:
            print()
        print(shapes.format_filling(filling))
        first = False
    return 0


def _cmd_count(args) -> int:
    shape = shapes.validate_shape(_parse_int_tuple(args.shape))
    profile = shapes.SumProfile(
        _parse_int_tuple(args.rows), _parse_int_tuple(args.cols)
    )
    pattern = patterns.parse_pattern(args.pattern)
    print(experiments.count_avoiders(shape, profile, pattern))
    return 0


def _cmd_stats(args) -> int:
    graph = graphs.parse_graph(_read_input(args.graph))
    print(f"cross {graphs.cross(graph)}")
    print(f"nest {graphs.nest(graph)}")
    print(f"cross* {graphs.cross_weak(graph)}")
    print(f"nest* {graphs.nest_weak(graph)}")
    return 0


def _cmd_encode(args) -> int:
    graph = graphs.parse_graph(_read_input(args.input))
    if args.mode == "delta":
        filling = codec.delta_encode(graph)
    else:
        filling = codec.lr_encode(codec.LeftRightGraph(graph, _default_tags(graph)))
    print(shapes.format_filling(filling))
    return 0


def _default_tags(graph: graphs.Multigraph) -> frozenset[int]:
    """Tag isolated vertices opening when something later can close.

    An isolated vertex opens when a closing vertex follows it, either a
    vertex with left edges or the last isolated vertex (which stays
    closing when nothing after it closes).  This makes every encodable
    graph encode; a single isolated vertex remains genuinely untaggable.
    """
    degrees = graphs.degree_sequence(graph).pairs
    isolated = [
        v for v, (l, r) in enumerate(degrees, start=1) if l == 0 and r == 0
    ]
    last_closing = max(
        (v for v, (l, r) in enumerate(degrees, start=1) if l > 0), default=0
    )
    boundary = max([last_closing] + isolated, default=0)
    return frozenset(v for v in isolated if v < boundary)


def _cmd_decode(args) -> int:
    filling = shapes.parse_filling(_read_input(args.input))
    if args.mode == "delta":
        graph = codec.delta_decode(filling, filling.shape.num_rows + 1)
    else:
        graph = codec.lr_decode(filling).graph
    print(graphs.format_graph(graph))
    return 0


def _cmd_biject(args) -> int:
    direction = {"fwd": "forward", "bwd": "backward"}[args.direction]
    if args.level == "filling":
        filling = shapes.parse_filling(_read_input(args.input))
        result = bijection.it_jt_biject(filling, args.t, direction)
        print(shapes.format_filling(result))
    else:
        graph = graphs.parse_graph(_read_input(args.input))
        result = bijection.graph_biject(graph, args.t, direction)
        print(graphs.format_graph(result))
    return 0


def _cmd_verify(args) -> int:
    report = experiments.verify_equirestrictive(
        patterns.parse_pattern(args.p1),
        patterns.parse_pattern(args.p2),
        max_cells=args.max_cells,
        max_total=args.max_total,
        jobs=args.jobs,
    )
    _emit_report(report, args.format)
    return 0 if report.verdict == "pass" else CLAIM_VIOLATED


def _cmd_experiment(args) -> int:
    report = experiments.run_experiment(
        args.id, _parse_bounds(args.bounds), jobs=args.jobs
    )
    _emit_report(report, args.format)
    return 0 if report.verdict == "pass" else CLAIM_VIOLATED


def _emit_report(report: experiments.ExperimentReport, fmt: str) -> None:
    if fmt == "machine":
        print(report.to_json())
    else:
        print(report.human_table())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossnest",
        description=(
            "Crossing and nesting statistics of multigraphs via "
            "pattern-avoiding fillings of Ferrers diagrams."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate-fillings", help="list fillings with given sums")
    p.add_argument("--shape", required=True, help="comma-separated row lengths")
    p.add_argument("--rows", required=True, help="comma-separated row sums")
    p.add_argument("--cols", required=True, help="comma-separated column sums")
    p.set_defaults(func=_cmd_enumerate_fillings)

    p = sub.add_parser("count", help="count fillings avoiding a pattern")
    p.add_argument("--shape", required=True)
    p.add_argument("--rows", required=True)
    p.add_argument("--cols", required=True)
    p.add_argument("--pattern", required=True, help="I<k>, J<k>, F<t>, M213, M132, or rows like 0,1;1,0")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("stats", help="print cross, nest, cross*, nest*")
    p.add_argument("--graph", default="-", help="graph file, or - for stdin")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("encode", help="graph text to filling text")
    p.add_argument("--mode", choices=("delta", "lr"), required=True)
    p.add_argument("--input", "-i", default="-")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="filling text to graph text")
    p.add_argument("--mode", choices=("delta", "lr"), required=True)
    p.add_argument("--input", "-i", default="-")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("biject", help="run the avoidance bijection")
    p.add_argument("--t", type=int, required=True, help="pattern order")
    p.add_argument("--direction", choices=("fwd", "bwd"), required=True)
    p.add_argument("--level", choices=("filling", "graph"), default="filling")
    p.add_argument("--input", "-i", default="-")
    p.set_defaults(func=_cmd_biject)

    p = sub.add_parser("verify", help="sweep-check two patterns are equirestrictive")
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--max-cells", type=int, default=8)
    p.add_argument("--max-total", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run a canned counting experiment")
    p.add_argument("id", choices=sorted(experiments.EXPERIMENTS))
    p.add_argument("--bounds", help="comma-separated key=value overrides")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush here so a closed pipe surfaces below, not at exit.
        sys.stdout.flush()
        return code
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # The reader stopped early; that is not a usage error.  Point stdout
        # at devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return OUTPUT_CLOSED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
