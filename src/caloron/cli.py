"""Command-line entry point: expand, transform, classes, universal, selftest.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical-tolerance
failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import serialize, symbolic
from .chernweil import InvariantPolynomial, caloron_class
from .errors import CaloronError, ConfigError, SingularOperatorError
from .lattice import SU2, U1, Grid, sample
from .scene import SceneConfig, load_config, report_hash
from .transform import ProductConnection, forward_transform, inverse_transform
from .universal import green_blocks, parse_graph, run_property_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_TOLERANCE = 4


def _write_report(report: dict, path: str | None) -> None:
    report["report_hash"] = report_hash(report)
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_expand(args) -> int:
    try:
        expr = symbolic.caloron_integrand(args.fiber_dim, args.poly_degree)
    except CaloronError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.json:
        print(symbolic.to_json(expr))
    else:
        print(symbolic.render(expr, "latex" if args.latex else "plain"))
    return EXIT_OK


def cmd_transform(args) -> int:
    # The parsed document stays alive from parse to write, so the collector
    # is off for the whole command rather than per codec call.  It resumes
    # only after _transform has returned and so dropped the documents.
    with serialize.collector_paused():
        return _transform(args)


def _transform(args) -> int:
    try:
        doc = serialize.load_document(args.input)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
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
    except (CaloronError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.output:
        try:
            serialize.save_document(out, args.output)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
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
    for r in cfg.classes:
        d = len(g.fiber_axes)
        k = (d + r) // 2
        f = InvariantPolynomial(k, cfg.poly_kind)
        if r == 0:
            cycles = [("point", (), {})]
        else:
            cycles = [("full", tuple(g.base_axes[:r]), {})]
        results.append(caloron_class(w, f, r, cycles=cycles))
    return results


def cmd_classes(args) -> int:
    start = time.time()
    try:
        cfg = SceneConfig(load_config(args.config))
        if args.refine:
            cfg.check_size(cfg.grid.refine(2))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CaloronError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        reports = _classes_for_scene(cfg)
    except CaloronError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    checks = []
    pairings = []
    failed = False
    for rep in reports:
        for name, value in rep.pairings:
            pairings.append({"r": rep.r, "cycle": name,
                             "value": [value.real, value.imag]})
            if cfg.expect_pairing is not None:
                err = abs(value - cfg.expect_pairing)
                ok = err <= cfg.tol_pairing
                failed |= not ok
                checks.append({"name": f"pairing_r{rep.r}_{name}",
                               "residual": err, "pass": ok})
        checks.append({"name": f"closedness_r{rep.r}",
                       "residual": rep.closedness_residual, "informational": True})

    if args.refine:
        fine = _classes_for_scene(cfg, cfg.grid.refine(2))
        for coarse_rep, fine_rep in zip(reports, fine):
            rc, rf = coarse_rep.closedness_residual, fine_rep.closedness_residual
            ratio = rc / rf if rf > 1e-14 else float("inf")
            ok = ratio >= 3.5 or rc <= 1e-13
            failed |= not ok
            checks.append({"name": f"closedness_ratio_r{coarse_rep.r}",
                           "residual": ratio, "pass": ok})

    report = {
        "command": "classes",
        "config": cfg.raw,
        "config_hash": cfg.config_hash(),
        "checks": checks,
        "pairings": pairings,
        "timings": {"wall_seconds": time.time() - start},
    }
    try:
        _write_report(report, args.report)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_universal(args) -> int:
    start = time.time()
    try:
        graph = parse_graph(args.graph)
        if args.group not in (U1, SU2):
            raise ConfigError(f"unknown group {args.group!r}")
        green_blocks(graph, args.group)  # the factor's size limit, checked before it is built
    except CaloronError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        results = run_property_suite(graph, args.group, seed=args.seed)
    except SingularOperatorError as exc:
        print(f"tolerance error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    checks = [{"name": n, "residual": r, "tolerance": t, "pass": ok}
              for n, r, t, ok in results]
    failed = any(not c["pass"] for c in checks)
    report = {
        "command": "universal",
        "config": {"graph": args.graph, "group": args.group, "seed": args.seed},
        "checks": checks,
        "timings": {"wall_seconds": time.time() - start},
    }
    try:
        _write_report(report, args.report)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_selftest(args) -> int:
    """Condensed acceptance battery; deterministic per seed."""
    start = time.time()
    checks = []

    def check(name, ok, detail=None):
        entry = {"name": name, "pass": bool(ok)}
        if detail is not None:
            entry["residual"] = float(detail)
        checks.append(entry)

    # symbolic identities, exact
    table_ok = all(
        symbolic.canonicalize(symbolic.table_fixture(d, k)) == symbolic.caloron_integrand(d, k)
        for d, k in symbolic.table_cells())
    check("table_reproduction", table_ok)
    abelian_ok = all(
        symbolic.abelian_closed_form(d, k) == symbolic.caloron_integrand(d, k)
        for k in range(1, 7) for d in range(1, min(2 * k, 8) + 1))
    check("abelian_closed_form", abelian_ok)
    string_ok = all(
        symbolic.string_class_integrand(k) == symbolic.caloron_integrand(1, k)
        for k in range(1, 7))
    check("string_class_integrand", string_ok)

    # transform round trip on seeded data
    grid = Grid(sizes=(8, 8), base_axes=(0,))
    for group, fam in ((U1, "u1_harmonic"), (SU2, "su2_band_limited")):
        A = sample(fam, grid, group, {"max_mode": 2}, seed=args.seed)
        w = ProductConnection.from_one_form(A)
        check(f"roundtrip_{group}", _same_bits(w, inverse_transform(*forward_transform(w))))

    # chern integrality on a twist-1 scene
    cfg = SceneConfig({"base.sizes": "4", "fiber.sizes": "16,16", "group": "u1",
                       "family": "zero", "twist": "1", "classes": "0",
                       "expect.pairing": "1", "seed": str(args.seed)})
    rep = _classes_for_scene(cfg)[0]
    err = abs(rep.pairings[0][1] - 1.0)
    check("twist_pairing", err <= 1e-8, err)

    # universal suite on a ring
    for group in (U1, SU2):
        results = run_property_suite(parse_graph("ring:8"), group, seed=args.seed)
        check(f"universal_{group}", all(ok for _, _, _, ok in results),
              max(r for _, r, _, _ in results))

    failed = any(not c["pass"] for c in checks)
    report = {
        "command": "selftest",
        "config": {"seed": args.seed},
        "checks": checks,
        "timings": {"wall_seconds": time.time() - start},
    }
    try:
        _write_report(report, args.report)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_TOLERANCE if failed else EXIT_OK


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
    pe.add_argument("--latex", action="store_true")
    pe.add_argument("--json", action="store_true")
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
    pu.add_argument("--group", default=U1)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
