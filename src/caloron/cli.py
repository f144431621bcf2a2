"""Command-line entry point: expand, transform, classes, universal, selftest.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical-tolerance
failure.  The commands raise, and `run` alone maps an exception to its code.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import serialize, symbolic
from .chernweil import caloron_class
from .errors import CaloronError, ConfigError, SingularOperatorError
from .lattice import FAMILY_GROUP, GROUPS, U1, Grid, sample
from .scene import Check, SceneConfig, load_config, report_hash
from .transform import (ProductConnection, check_connection, forward_transform,
                        inverse_transform)
from .universal import parse_graph, run_property_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_TOLERANCE = 4


def run(command, args) -> int:
    """command(args), with what it raises reported on stderr as an exit code."""
    try:
        return command(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SingularOperatorError as exc:
        print(f"tolerance error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except CaloronError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _finish(report: dict, checks: list, path: str | None, start: float) -> int:
    """Add the check entries and timings to a report, hash it and write it to
    path (stdout if None); exit 4 if any judged check failed."""
    report["checks"] = [c.entry() for c in checks]
    report["timings"] = {"wall_seconds": time.time() - start}
    report["report_hash"] = report_hash(report)
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    failed = any(not c.passed for c in checks if c.passed is not None)
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_expand(args) -> int:
    expr = symbolic.caloron_integrand(args.fiber_dim, args.poly_degree)
    if args.json:
        print(symbolic.to_json(expr))
    else:
        print(symbolic.render(expr, "latex" if args.latex else "plain"))
    return EXIT_OK


def cmd_transform(args) -> int:
    # The parsed document stays alive from parse to write, so the collector
    # is off for the whole command rather than per codec call.  It resumes
    # only after _transform has returned and so dropped the documents (or,
    # when it raises, has left them to the traceback that `run` reports).
    with serialize.collector_paused():
        return _transform(args)


def _transform(args) -> int:
    doc = serialize.load_document(args.input)
    kind = serialize.document_kind(doc)
    if args.direction == "forward":
        if kind != "product_connection":
            raise ConfigError("forward transform needs a product_connection document")
        w = serialize.connection_from_doc(doc)
        del doc  # release the parsed input before the output is encoded
        a, phi = forward_transform(w)
        out = serialize.pair_to_doc(a, phi)
    elif args.direction == "inverse":
        if kind != "transform_pair":
            raise ConfigError("inverse transform needs a transform_pair document")
        a, phi = serialize.pair_from_doc(doc)
        del doc  # release the parsed input before the output is encoded
        out = serialize.connection_to_doc(inverse_transform(a, phi))
    else:  # roundtrip
        if kind == "product_connection":
            before = (serialize.connection_from_doc(doc),)
            after = (inverse_transform(*forward_transform(*before)),)
            encode = serialize.connection_to_doc
        else:
            before = serialize.pair_from_doc(doc)
            after = forward_transform(inverse_transform(*before))
            encode = serialize.pair_to_doc
        del doc  # release the parsed input before the output is encoded
        if not all(map(_same_bits, before, after)):
            print("roundtrip: MISMATCH", file=sys.stderr)
            return EXIT_TOLERANCE
        print("roundtrip: exact")
        out = encode(*after) if args.output else None
    if args.output:
        serialize.save_document(out, args.output)
    return EXIT_OK


def _same_bits(x, y) -> bool:
    """Two field blocks agree bit for bit: the header by ==, each array by its
    bytes, so a NaN matches itself and -0.0 does not match 0.0."""
    def header(b):
        return type(b), b.grid, b.group, b.twist, sorted(b.comps)

    def bits(a):
        return a.dtype, a.shape, a.tobytes()

    return header(x) == header(y) and all(bits(x.comps[k]) == bits(y.comps[k])
                                          for k in x.comps)


def _classes_for_scene(cfg: SceneConfig, grid=None) -> list:
    w = cfg.build_connection(grid)
    g = w.grid
    results = []
    for r, f in zip(cfg.classes, cfg.polys):
        if r == 0:
            cycles = [("point", (), {})]
        else:
            cycles = [("full", tuple(g.base_axes[:r]), {})]
        results.append(caloron_class(w, f, r, cycles=cycles))
    return results


def cmd_classes(args) -> int:
    start = time.time()
    cfg = SceneConfig(load_config(args.config))
    if args.refine:
        check_connection(cfg.grid.refine(), cfg.group, cfg.twist)
    reports = _classes_for_scene(cfg)
    checks, pairings = [], []
    for rep in reports:
        for name, value in rep.pairings:
            pairings.append({"r": rep.r, "cycle": name,
                             "value": [value.real, value.imag]})
            if cfg.expect_pairing is not None:
                err = abs(value - cfg.expect_pairing)
                checks.append(Check(f"pairing_r{rep.r}_{name}", err,
                                    passed=err <= cfg.tol_pairing))
        checks.append(Check(f"closedness_r{rep.r}", rep.closedness_residual))

    if args.refine:
        fine = _classes_for_scene(cfg, cfg.grid.refine())
        for coarse_rep, fine_rep in zip(reports, fine):
            rc, rf = coarse_rep.closedness_residual, fine_rep.closedness_residual
            # on a closed fine grid the ratio is undefined, and left out
            ratio = rc / rf if rf > 1e-14 else None
            checks.append(Check(f"closedness_ratio_r{coarse_rep.r}", ratio,
                                passed=rc <= 1e-13 or (ratio is not None and ratio >= 3.5)))

    report = {"command": "classes", "config": cfg.raw,
              "config_hash": cfg.config_hash(), "pairings": pairings}
    return _finish(report, checks, args.report, start)


def cmd_universal(args) -> int:
    start = time.time()
    graph = parse_graph(args.graph)
    checks = run_property_suite(graph, args.group, seed=args.seed)
    report = {"command": "universal",
              "config": {"graph": args.graph, "group": args.group, "seed": args.seed}}
    return _finish(report, checks, args.report, start)


def cmd_selftest(args) -> int:
    """Condensed acceptance battery; deterministic per seed."""
    start = time.time()
    # symbolic identities, exact
    checks = [
        Check("table_reproduction", passed=all(
            symbolic.canonicalize(symbolic.table_fixture(d, k))
            == symbolic.caloron_integrand(d, k) for d, k in symbolic.table_cells())),
        Check("abelian_closed_form", passed=all(
            symbolic.abelian_closed_form(d, k) == symbolic.caloron_integrand(d, k)
            for k in range(1, 7) for d in range(1, min(2 * k, 8) + 1))),
        Check("string_class_integrand", passed=all(
            symbolic.string_class_integrand(k) == symbolic.caloron_integrand(1, k)
            for k in range(1, 7))),
    ]

    # transform round trip on seeded data
    grid = Grid(sizes=(8, 8), base_axes=(0,))
    for fam, group in FAMILY_GROUP.items():
        A = sample(fam, grid, group, {"max_mode": 2}, seed=args.seed)
        w = ProductConnection.from_one_form(A)
        checks.append(Check(f"roundtrip_{group}",
                            passed=_same_bits(w, inverse_transform(*forward_transform(w)))))

    # chern integrality on a twist-1 scene
    cfg = SceneConfig({"base.sizes": "4", "fiber.sizes": "16,16", "group": "u1",
                       "family": "zero", "twist": "1", "classes": "0",
                       "expect.pairing": "1", "seed": str(args.seed)})
    rep = _classes_for_scene(cfg)[0]
    err = abs(rep.pairings[0][1] - 1.0)
    checks.append(Check("twist_pairing", err, passed=err <= 1e-8))

    # universal suite on a ring
    for group in GROUPS:
        results = run_property_suite(parse_graph("ring:8"), group, seed=args.seed)
        checks.append(Check(f"universal_{group}", max(c.residual for c in results),
                            passed=all(c.passed for c in results)))

    return _finish({"command": "selftest", "config": {"seed": args.seed}},
                   checks, args.report, start)


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="caloron",
                                description="caloron correspondence toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("expand", help="print a caloron class integrand")
    pe.add_argument("--fiber-dim", type=int, required=True, dest="fiber_dim")
    pe.add_argument("--poly-degree", type=int, required=True, dest="poly_degree")
    style = pe.add_mutually_exclusive_group()
    style.add_argument("--latex", action="store_true")
    style.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_expand)

    pt = sub.add_parser("transform", help="run the caloron transform on a JSON document")
    pt.add_argument("--input", required=True)
    pt.add_argument("--direction", choices=("forward", "inverse", "roundtrip"),
                    required=True)
    pt.add_argument("--output", default=None)
    pt.set_defaults(func=cmd_transform)

    pc = sub.add_parser("classes", help="compute caloron classes for a scene config")
    pc.add_argument("--config", required=True)
    pc.add_argument("--report", default=None)
    pc.add_argument("--refine", action="store_true",
                    help="double the grids and report residual ratios")
    pc.set_defaults(func=cmd_classes)

    pu = sub.add_parser("universal", help="run the universal-connection property suite")
    pu.add_argument("--graph", default="ring:8")
    pu.add_argument("--group", choices=GROUPS, default=U1)
    pu.add_argument("--seed", type=_seed, default=0)
    pu.add_argument("--report", default=None)
    pu.set_defaults(func=cmd_universal)

    ps = sub.add_parser("selftest", help="run the condensed acceptance battery")
    ps.add_argument("--seed", type=_seed, default=7)
    ps.add_argument("--report", default=None)
    ps.set_defaults(func=cmd_selftest)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
