"""Command-line front end: every workbench operation behind one binary.

Subcommands (see README for the full flag reference and output schemas):

    enumerate                   stream spanning trees of K_n by tree index
    count contain|matching|at-least
    spread check                r-spread / (r,t)-spread verification
    gamma build|alpha|omega|packing
    family size|verify|scan
    dt                          blocked count D_t with witnesses
    llll check|notstar
    search max                  exact max t-intersecting family (small n)
    sample                      seeded uniform random trees

Conventions: exit 0 on success, 2 on validation/cap errors (with a
machine-readable JSON error object on stdout naming any violated cap), 64 on
an unknown subcommand.  Big counts are always decimal strings, never JSON
numbers.  Output is byte-identical for identical inputs; the generated_at
field is omitted under --reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import List, Optional, Tuple

from . import counting, extremal, gamma, spread, trees

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNKNOWN_COMMAND = 64

_COMMANDS = {
    "enumerate": None,
    "count": ("contain", "matching", "at-least"),
    "spread": ("check",),
    "gamma": ("build", "alpha", "omega", "packing"),
    "family": ("size", "verify", "scan"),
    "dt": None,
    "llll": ("check", "notstar"),
    "search": ("max",),
    "sample": None,
}


class CLIError(Exception):
    """Validation failure; rendered as the JSON error object, exit 2."""

    def __init__(self, message: str, cap: Optional[str] = None):
        super().__init__(message)
        self.cap = cap


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; surface as validation
        raise CLIError(message)


@dataclass
class RunConfig:
    """Reproducibility knobs shared by every subcommand.

    Caps fall back to TREEFAM_ENUM_CAP / TREEFAM_IE_CAP / TREEFAM_NODE_BUDGET
    environment variables before the built-in defaults.
    """

    seed: int = 0
    enum_cap: int = trees.DEFAULT_ENUM_CAP
    ie_cap: int = counting.DEFAULT_IE_CAP
    node_budget: int = gamma.DEFAULT_NODE_BUDGET
    fmt: str = "json"
    component_shape: str = "path"
    reproducible: bool = False


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise CLIError(f"environment variable {name}={raw!r} is not an integer")


def _common_flags(p: _Parser) -> None:
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--enum-cap", type=int, default=None)
    p.add_argument("--ie-cap", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.add_argument("--reproducible", action="store_true")


def _config(args) -> RunConfig:
    cfg = RunConfig(
        seed=args.seed,
        enum_cap=(
            args.enum_cap
            if args.enum_cap is not None
            else _env_int("TREEFAM_ENUM_CAP", trees.DEFAULT_ENUM_CAP)
        ),
        ie_cap=(
            args.ie_cap
            if args.ie_cap is not None
            else _env_int("TREEFAM_IE_CAP", counting.DEFAULT_IE_CAP)
        ),
        node_budget=(
            args.budget
            if args.budget is not None
            else _env_int("TREEFAM_NODE_BUDGET", gamma.DEFAULT_NODE_BUDGET)
        ),
        fmt=args.format,
        component_shape=getattr(args, "shape", "path"),
        reproducible=args.reproducible,
    )
    for name, value in (
        ("enum-cap", cfg.enum_cap),
        ("ie-cap", cfg.ie_cap),
        ("budget", cfg.node_budget),
    ):
        if value <= 0:
            raise CLIError(f"--{name} must be positive, got {value}")
    return cfg


# -- argument helpers ----------------------------------------------------------


def _parse_edges_arg(spec: Optional[str], path: Optional[str]) -> List[trees.Edge]:
    """Edges from --edges "1-2,3-4" or --edges-file (edge-list text format)."""
    if spec is not None and path is not None:
        raise CLIError("give either --edges or --edges-file, not both")
    if path is not None:
        try:
            with open(path) as fh:
                return trees.parse_edge_list(fh.read())
        except OSError as e:
            raise CLIError(f"cannot read {path}: {e}")
    if spec is None or spec == "":
        return []
    out = []
    for part in spec.split(","):
        bits = part.strip().split("-")
        if len(bits) != 2:
            raise CLIError(f"bad edge {part!r}, expected 'u-v'")
        out.append(trees.edge(int(bits[0]), int(bits[1])))
    return out


def _parse_graph_arg(spec: str, n_override: Optional[int]) -> gamma.SimpleGraph:
    """K<n>, C<n>, P<n> aliases, or a path to an edge-list file."""
    if len(spec) >= 2 and spec[0] in "KCP" and spec[1:].isdigit():
        n = int(spec[1:])
        kind = spec[0]
        if kind == "K":
            return gamma.SimpleGraph.complete(n)
        if kind == "C":
            return gamma.SimpleGraph.cycle(n)
        return gamma.SimpleGraph.path(n)
    try:
        with open(spec) as fh:
            return gamma.SimpleGraph.from_edge_list_text(fh.read(), n_override)
    except OSError as e:
        raise CLIError(f"{spec!r} is not a K<n>/C<n>/P<n> alias or readable file: {e}")


def _parse_rational(spec: str) -> Fraction:
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise CLIError(f"bad rational {spec!r}, expected forms like 3 or 7/2")


def _parse_rational_list(spec: str) -> List[Fraction]:
    if spec.strip() == "":
        return []
    return [_parse_rational(part.strip()) for part in spec.split(",")]


def _edges_json(edges) -> list:
    return [list(e) for e in edges]


# -- subcommand handlers ---------------------------------------------------
# Each returns (payload dict, csv (header, rows) or None).


def _cmd_enumerate(args, cfg: RunConfig):
    stream = trees.enumerate_trees(
        args.n, cap=cfg.enum_cap, start=args.start, stop=args.stop
    )
    out = [_edges_json(t.edges) for t in stream]
    payload = {
        "n": args.n,
        "start": args.start,
        "count": str(len(out)),
        "trees": out,
    }
    rows = [(args.n, i + args.start, json.dumps(t)) for i, t in enumerate(out)]
    return payload, (("n", "tree_index", "edges"), rows)


def _cmd_count_contain(args, cfg: RunConfig):
    edges = _parse_edges_arg(args.edges, args.edges_file)
    count = counting.count_trees_containing(args.n, edges)
    return {"n": args.n, "edges": _edges_json(edges), "count": str(count)}, None


def _cmd_count_matching(args, cfg: RunConfig):
    count = counting.count_matching_family(args.n, args.l)
    return {"n": args.n, "l": args.l, "count": str(count)}, None


def _cmd_count_at_least(args, cfg: RunConfig):
    edges = _parse_edges_arg(args.edges, args.edges_file)
    count = counting.count_at_least(args.n, edges, args.m, ie_cap=cfg.ie_cap)
    return {
        "n": args.n,
        "edges": _edges_json(edges),
        "m": args.m,
        "count": str(count),
    }, None


def _cmd_spread_check(args, cfg: RunConfig):
    r = _parse_rational(args.r)
    if args.t is None:
        report = spread.verify_r_spread(args.n, r, args.edge_budget)
    else:
        report = spread.verify_rt_spread(args.n, r, args.t, args.edge_budget)
    payload = report.to_dict()
    if args.witness and report.witness is not None:
        lines = []
        for key in ("X", "T", "U"):
            if key in report.witness:
                lines.append(f"# {key}")
                lines.extend(f"{u} {v}" for u, v in report.witness[key])
        payload["witness_edge_list"] = "\n".join(lines) + "\n"
    return payload, None


def _cmd_gamma_build(args, cfg: RunConfig):
    g = _parse_graph_arg(args.graph, args.graph_n)
    dg = gamma.build_gamma(g, args.t, cap=args.cap)
    payload = dg.summary()
    if args.out:
        dg.save_adjacency(args.out)
        payload["dump"] = args.out
    return payload, None


def _cmd_gamma_alpha(args, cfg: RunConfig):
    return _gamma_search(args, cfg, independent=True)


def _cmd_gamma_omega(args, cfg: RunConfig):
    return _gamma_search(args, cfg, independent=False)


def _gamma_search(args, cfg: RunConfig, independent: bool):
    g = _parse_graph_arg(args.graph, args.graph_n)
    dg = gamma.build_gamma(g, args.t, cap=args.cap)
    if independent:
        res = gamma.max_independent_set(dg, budget=cfg.node_budget)
    else:
        res = gamma.max_clique(dg, budget=cfg.node_budget)
    payload = {
        "n": g.n,
        "t": args.t,
        "kind": "independent_set" if independent else "clique",
        "size": res.size,
        "optimal": res.optimal,
        "nodes": res.nodes,
        "trees": [_edges_json(t.edges) for t in res.family.trees()],
    }
    return payload, None


def _cmd_gamma_packing(args, cfg: RunConfig):
    g = _parse_graph_arg(args.graph, args.graph_n)
    res = gamma.packing_number(g)
    return res.to_dict(), None


def _cmd_family_size(args, cfg: RunConfig):
    kind = args.kind
    if kind == "trivial":
        edges = _parse_edges_arg(args.edges, args.edges_file)
        try:
            f = trees.Forest(args.n, edges)
        except ValueError as e:
            raise CLIError(f"not a forest: {e}")
        size = extremal.trivial_family_size(args.n, f)
        return {"kind": kind, "n": args.n, "t": len(edges), "size": str(size)}, None
    if kind == "stars-plus-edge":
        size = extremal.stars_plus_edge_size(args.n)
        return {"kind": kind, "n": args.n, "t": 1, "size": str(size)}, None
    if kind == "ntj":
        size = extremal.family_F_ntj_size(
            args.n, args.t, args.j, shape=cfg.component_shape, ie_cap=cfg.ie_cap
        )
        return {
            "kind": kind,
            "n": args.n,
            "t": args.t,
            "j": args.j,
            "shape": cfg.component_shape,
            "size": str(size),
        }, None
    if kind == "example":
        rep = extremal.example_closed_form(args.n, args.t)
        return {"kind": kind, **rep.to_dict()}, None
    raise CLIError(f"unknown family kind {kind!r}")


def _cmd_family_verify(args, cfg: RunConfig):
    if args.spec is not None:
        try:
            with open(args.spec) as fh:
                fs = extremal.FamilySpec.from_json(fh.read())
        except OSError as e:
            raise CLIError(f"cannot read {args.spec}: {e}")
        except (KeyError, ValueError) as e:
            raise CLIError(f"bad family spec: {e}")
        kind = fs.kind
    else:
        kind = args.kind
        fs = _family_spec_from_flags(args)
    ok, mpi, size = fs.verify(cap=cfg.enum_cap)
    return {
        "kind": kind,
        "n": fs.n,
        "claimed_t": fs.t,
        "size": str(size),
        "min_pairwise_intersection": mpi,
        "verified": ok,
    }, None


def _family_spec_from_flags(args) -> extremal.FamilySpec:
    """The FamilySpec that `family verify --kind ...` describes, with its claimed t."""
    if args.kind is None:
        raise CLIError("give --kind or --spec")
    if args.n is None:
        raise CLIError("--n is required with --kind")
    edges = None
    if args.kind == "trivial":
        edges = _parse_edges_arg(args.edges, args.edges_file)
        try:
            trees.Forest(args.n, edges)
        except ValueError as e:
            raise CLIError(f"not a forest: {e}")
        claimed = len(edges)
    elif args.kind == "stars-plus-edge":
        claimed = 1
    else:
        edges = _parse_edges_arg(args.edges, args.edges_file)
        if args.m is None:
            raise CLIError("--m is required for threshold families")
        # two members share >= 2m - |s| edges of s
        claimed = max(2 * args.m - len(edges), 0)
    if args.t is not None:
        claimed = args.t
    kind = args.kind.replace("-", "_")
    return extremal.FamilySpec(kind, args.n, claimed, edges=edges, threshold=args.m)


def _cmd_family_scan(args, cfg: RunConfig):
    rep = extremal.conjecture_scan(
        args.n, args.t, args.j_max, shape=cfg.component_shape, ie_cap=cfg.ie_cap
    )
    payload = rep.to_dict()
    rows = [
        (r.n, r.t, r.j, str(r.size), int(r.winner))
        for r in rep.rows
    ]
    return payload, (("n", "t", "j", "size", "winner"), rows)


def _cmd_dt(args, cfg: RunConfig):
    rep = extremal.blocked_Dt(args.n, args.t, enum_cap=cfg.enum_cap)
    return rep.to_dict(), None


def _cmd_llll_check(args, cfg: RunConfig):
    p = _parse_rational_list(args.p)
    x = _parse_rational_list(args.x)
    adjacency: List[List[int]] = [[] for _ in p]
    if args.graph_edges:
        for part in args.graph_edges.split(","):
            bits = part.strip().split("-")
            if len(bits) != 2:
                raise CLIError(f"bad event edge {part!r}, expected 'i-j'")
            i, j = int(bits[0]), int(bits[1])
            if not (0 <= i < len(p) and 0 <= j < len(p)):
                raise CLIError(f"event edge {part!r} out of range 0..{len(p) - 1}")
            adjacency[i].append(j)
            adjacency[j].append(i)
    try:
        rep = extremal.llll_condition_check(p, x, adjacency)
    except ValueError as e:
        raise CLIError(str(e))
    return rep.to_dict(), None


def _cmd_llll_notstar(args, cfg: RunConfig):
    t0 = trees.Forest(args.n, _parse_edges_arg(args.edges, args.edges_file))
    rep = extremal.lemma_notstar_check(
        args.n, t0, ie_cap=cfg.ie_cap, enum_cap=cfg.enum_cap
    )
    return rep.to_dict(), None


def _cmd_search_max(args, cfg: RunConfig):
    res, comparison = extremal.brute_force_max_t_intersecting(
        args.n, args.t, node_budget=cfg.node_budget
    )
    payload = {
        "n": args.n,
        "t": args.t,
        "size": res.size,
        "optimal": res.optimal,
        "nodes": res.nodes,
        "comparison": {
            k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v)
            for k, v in comparison.items()
        },
        "trees": [_edges_json(t.edges) for t in res.family.trees()],
    }
    return payload, None


def _cmd_sample(args, cfg: RunConfig):
    ts = trees.sample_uniform_trees(args.n, cfg.seed, args.count)
    payload = {
        "n": args.n,
        "seed": cfg.seed,
        "count": str(len(ts)),
        "trees": [_edges_json(t.edges) for t in ts],
    }
    return payload, None


# -- parser table ----------------------------------------------------------


def _build_parser(path: Tuple[str, ...]) -> Tuple[_Parser, object]:
    prog = "treefam " + " ".join(path)
    p = _Parser(prog=prog, add_help=True)
    _common_flags(p)
    if path == ("enumerate",):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--start", type=int, default=0)
        p.add_argument("--stop", type=int, default=None)
        return p, _cmd_enumerate
    if path == ("count", "contain"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--edges", default=None)
        p.add_argument("--edges-file", default=None)
        return p, _cmd_count_contain
    if path == ("count", "matching"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--l", type=int, required=True)
        return p, _cmd_count_matching
    if path == ("count", "at-least"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--edges", default=None)
        p.add_argument("--edges-file", default=None)
        p.add_argument("--m", type=int, required=True)
        return p, _cmd_count_at_least
    if path == ("spread", "check"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", required=True, help="rational, e.g. 3 or 7/2")
        p.add_argument("--t", type=int, default=None)
        p.add_argument("--edge-budget", type=int, default=None)
        p.add_argument("--witness", action="store_true")
        return p, _cmd_spread_check
    if path[0] == "gamma":
        p.add_argument("--graph", required=True, help="K<n>/C<n>/P<n> or file")
        p.add_argument("--graph-n", type=int, default=None)
        if path[1] != "packing":
            p.add_argument("--t", type=int, required=True)
            p.add_argument("--cap", type=int, default=gamma.DEFAULT_GAMMA_CAP)
        if path[1] == "build":
            p.add_argument("--out", default=None, help="binary adjacency dump path")
            return p, _cmd_gamma_build
        if path[1] == "alpha":
            return p, _cmd_gamma_alpha
        if path[1] == "omega":
            return p, _cmd_gamma_omega
        return p, _cmd_gamma_packing
    if path == ("family", "size"):
        p.add_argument(
            "--kind",
            required=True,
            choices=("trivial", "stars-plus-edge", "ntj", "example"),
        )
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, default=None)
        p.add_argument("--j", type=int, default=0)
        p.add_argument("--edges", default=None)
        p.add_argument("--edges-file", default=None)
        p.add_argument("--shape", choices=extremal.COMPONENT_SHAPES, default="path")
        return p, _cmd_family_size
    if path == ("family", "verify"):
        p.add_argument(
            "--kind",
            default=None,
            choices=("trivial", "stars-plus-edge", "threshold"),
        )
        p.add_argument("--spec", default=None, help="FamilySpec JSON file")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--t", type=int, default=None, help="claimed intersection")
        p.add_argument("--m", type=int, default=None, help="threshold")
        p.add_argument("--edges", default=None)
        p.add_argument("--edges-file", default=None)
        return p, _cmd_family_verify
    if path == ("family", "scan"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--j-max", type=int, required=True)
        p.add_argument("--shape", choices=extremal.COMPONENT_SHAPES, default="path")
        return p, _cmd_family_scan
    if path == ("dt",):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        return p, _cmd_dt
    if path == ("llll", "check"):
        p.add_argument("--p", required=True, help="comma list of rationals")
        p.add_argument("--x", required=True, help="comma list of rationals")
        p.add_argument(
            "--graph-edges",
            default="",
            help="dependency edges over event indices, e.g. 0-1,1-2",
        )
        return p, _cmd_llll_check
    if path == ("llll", "notstar"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--edges", default=None)
        p.add_argument("--edges-file", default=None)
        return p, _cmd_llll_notstar
    if path == ("search", "max"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        return p, _cmd_search_max
    if path == ("sample",):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--count", type=int, default=1)
        return p, _cmd_sample
    raise AssertionError(f"no parser for {path}")


# -- rendering ---------------------------------------------------------------


def _flatten_for_csv(payload: dict) -> Tuple[Tuple[str, ...], list]:
    rows = []
    for k, v in payload.items():
        if isinstance(v, (dict, list)):
            rows.append((k, json.dumps(v)))
        else:
            rows.append((k, v))
    return ("key", "value"), rows


def _render(payload: dict, csv_spec, cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        body = dict(payload)
        if not cfg.reproducible:
            body["generated_at"] = datetime.now(timezone.utc).isoformat()
        return json.dumps(body, indent=2) + "\n"
    if cfg.fmt == "csv":
        header, rows = csv_spec if csv_spec is not None else _flatten_for_csv(payload)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()
    lines = []
    for k, v in payload.items():
        if isinstance(v, (dict, list)):
            lines.append(f"{k}: {json.dumps(v)}")
        else:
            lines.append(f"{k}: {v}")
    if not cfg.reproducible:
        lines.append(f"generated_at: {datetime.now(timezone.utc).isoformat()}")
    return "\n".join(lines) + "\n"


def _error_object(message: str, cap: Optional[str] = None) -> str:
    err = {"message": message}
    if cap is not None:
        err["cap"] = cap
    return json.dumps({"error": err}) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return EXIT_OK if argv else EXIT_VALIDATION
    top = argv[0]
    if top not in _COMMANDS:
        sys.stdout.write(_error_object(f"unknown subcommand {top!r}"))
        return EXIT_UNKNOWN_COMMAND
    subs = _COMMANDS[top]
    if subs is None:
        path: Tuple[str, ...] = (top,)
        rest = argv[1:]
    else:
        if len(argv) < 2 or argv[1].startswith("-"):
            sys.stdout.write(
                _error_object(f"{top} needs a subcommand: {', '.join(subs)}")
            )
            return EXIT_VALIDATION
        if argv[1] not in subs:
            sys.stdout.write(
                _error_object(f"unknown subcommand {top} {argv[1]!r}")
            )
            return EXIT_UNKNOWN_COMMAND
        path = (top, argv[1])
        rest = argv[2:]
    parser, handler = _build_parser(path)
    try:
        args = parser.parse_args(rest)
        cfg = _config(args)
        payload, csv_spec = handler(args, cfg)
    except CLIError as e:
        sys.stdout.write(_error_object(str(e), e.cap))
        return EXIT_VALIDATION
    except trees.CapExceeded as e:
        sys.stdout.write(_error_object(str(e), e.cap_name))
        return EXIT_VALIDATION
    except ValueError as e:
        sys.stdout.write(_error_object(str(e)))
        return EXIT_VALIDATION
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    sys.stdout.write(_render(payload, csv_spec, cfg))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
