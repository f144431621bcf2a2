"""The four workloads: inputs made from a seed, one op each, and its checks.

A workload object is built in a fresh process (that is the set-up the
benchmark times), then `op(i)` is called in a closed loop and every output
goes through `check(i, out)`, which returns a list of failure messages.
`reference(path)` runs in its own process before the timed one and writes
what the checks compare against, so the oracles' arrays never count in the
timed process's peak memory.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from math import pi

import numpy as np

import oracles
# Calls go through module attributes, so the traced run's wrappers see them.
from caloron import chernweil, cli, universal
from caloron.chernweil import InvariantPolynomial
from caloron.lattice import SU2, U1, Grid
from caloron.transform import ProductConnection

TWO_PI = 2.0 * pi


class Workload:
    def reference(self, path: str) -> list:
        """Compute and store the reference outputs; return failures found."""
        return []

    def load_reference(self, path: str) -> None:
        pass


class ClassU1(Workload):
    """U(1) on (32,32,4,32,4), twist 1: large arrays, few terms (numeric path)."""

    SIZES = (32, 32, 4, 32, 4)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        grid = Grid(sizes=self.SIZES, base_axes=(0, 1, 2))
        self.comps = {a: 1j * oracles.separable_field(rng, self.SIZES, amplitude=0.5)
                      for a in range(grid.dim)}
        self.twist = 1
        self.w = ProductConnection(grid, U1, self.comps, twist=self.twist)
        self.poly = InvariantPolynomial(2)
        self.want = None

    def reference(self, path: str) -> list:
        want = oracles.u1_pfaffian_class(self.comps, self.w.grid.lengths, self.twist)
        np.savez(path, **{f"{a},{b}": v for (a, b), v in want.items()})
        return []

    def load_reference(self, path: str) -> None:
        with np.load(path) as data:
            self.want = {tuple(int(x) for x in k.split(",")): data[k] for k in data.files}

    def op(self, i: int):
        return chernweil.caloron_class(self.w, self.poly, 2, cycles=[("base", (0, 1), {})])

    def check(self, i: int, rep) -> list:
        fails = oracles.check_class_form(rep.class_form.comps, self.want, "class form")
        fails += oracles.check_pairing(rep.pairings[0][1],
                                       oracles.twist_pairings({(2, 3): self.twist})[2],
                                       oracles.PAIRING_ATOL_CLASS, "base torus")
        return fails


class ClassSU2(Workload):
    """SU(2) on 4^6, base 4-d, fiber 2-d: tiny arrays, many terms.  k = 2
    because the symmetrised trace of three su(2) elements vanishes."""

    SIZES = (4,) * 6

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 2])
        self.grid = Grid(sizes=self.SIZES, base_axes=(0, 1, 2, 3))
        self.comps = {a: oracles.su2_algebra(*(oracles.separable_field(
                          self.rng, self.SIZES, amplitude=0.15) for _ in range(3)))
                      for a in range(self.grid.dim)}
        self.w = ProductConnection(self.grid, SU2, self.comps)
        self.poly = InvariantPolynomial(2)

    def _both_paths(self, w):
        sym = chernweil.caloron_class(w, self.poly, 2, symbolic_path=True)
        num = chernweil.caloron_class(w, self.poly, 2)
        return sym.class_form.comps, num.class_form.comps

    def reference(self, path: str) -> list:
        """Constant conjugation leaves the class form unchanged."""
        g = oracles.random_su2(self.rng)
        turned = ProductConnection(self.grid, SU2, oracles.conjugate_constant(self.comps, g))
        num, num_g = (chernweil.caloron_class(w, self.poly, 2).class_form.comps
                      for w in (self.w, turned))
        return oracles.check_class_form(num_g, num, "constant conjugation")

    def op(self, i: int):
        return self._both_paths(self.w)

    def check(self, i: int, out) -> list:
        sym, num = out
        fails = oracles.check_class_form(sym, num, "symbolic vs numeric path")
        if not max(float(np.max(np.abs(v))) for v in num.values()) > 1e-6:
            fails.append("class form vanishes")
        return fails


class UniversalSU2(Workload):
    """Property suite on torus:16:32 (512 vertices, 1533 unknowns), SU(2)."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=8)]
        self.graph = universal.parse_graph("torus:16:32")

    def op(self, i: int):
        return universal.run_property_suite(self.graph, SU2, seed=self.seeds[i % len(self.seeds)])

    def check(self, i: int, results) -> list:
        return oracles.check_universal([(name, res) for name, res, _, _ in results])


SCENE_TWIST = 2


class CliSession(Workload):
    """One in-process session of `caloron` commands on files the benchmark wrote."""

    SIZES = (8, 32, 32)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 4])
        self.path = {name: os.path.join(workdir, name) for name in
                     ("w.json", "pair.json", "back.json", "scene.cfg",
                      "classes.json", "universal.json", "selftest.json")}
        comps = {a: oracles.su2_algebra(*(oracles.separable_field(
                     rng, self.SIZES, amplitude=0.5) for _ in range(3)))
                 for a in range(len(self.SIZES))}
        # docs/formats.md: SU(2) values are 4 complex entries, row-major, each
        # [re, im]; `+ 0.0` keeps negative zeros out of the document.
        self.encoded = {str(a): np.stack([x.real + 0.0, x.imag + 0.0], axis=-1)
                        .reshape(self.SIZES + (4, 2)) for a, x in comps.items()}
        self.header = {
            "kind": "product_connection",
            "grid": {"dim": 3, "sizes": list(self.SIZES), "lengths": [TWO_PI] * 3,
                     "base_axes": [0]},
            "group": "su2",
            "twist": 0,
        }
        doc = dict(self.header, components={a: v.tolist() for a, v in self.encoded.items()})
        with open(self.path["w.json"], "w") as fh:
            fh.write(json.dumps(doc))
        with open(self.path["scene.cfg"], "w") as fh:
            fh.write("\n".join([
                "base.sizes = 8,8", "fiber.sizes = 16,16", "group = u1",
                "family = u1_harmonic", "family.max_mode = 2",
                f"seed = {int(rng.integers(0, 2**31))}", f"twist = {SCENE_TWIST}",
                "classes = 0,2", ""]))
        self.universal_seed = int(rng.integers(0, 2**31))
        self.selftest_hash = None

    def _run(self, argv: list) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def op(self, i: int):
        p = self.path
        calls = [
            ["expand", "--fiber-dim", "10", "--poly-degree", "10", "--json"],
            ["transform", "--input", p["w.json"], "--direction", "roundtrip"],
            ["transform", "--input", p["w.json"], "--direction", "forward",
             "--output", p["pair.json"]],
            ["transform", "--input", p["pair.json"], "--direction", "inverse",
             "--output", p["back.json"]],
            ["classes", "--config", p["scene.cfg"], "--report", p["classes.json"]],
            ["universal", "--graph", "torus:8:8", "--group", "su2",
             "--seed", str(self.universal_seed), "--report", p["universal.json"]],
            ["selftest", "--seed", "7", "--report", p["selftest.json"]],
        ]
        return [(argv[0], *self._run(argv)) for argv in calls]

    def check(self, i: int, results) -> list:
        fails = [f"{cmd} exited {code}" for cmd, code, _ in results if code != 0]
        fails += oracles.check_expand_json(results[0][2])
        if results[1][2] != "roundtrip: exact\n":
            fails.append(f"roundtrip printed {results[1][2]!r}")
        fails += self._check_back()
        with open(self.path["classes.json"]) as fh:
            classes = json.load(fh)
        want = oracles.twist_pairings({(2, 3): SCENE_TWIST})
        got = {p["r"]: complex(*p["value"]) for p in classes["pairings"]}
        for r in (0, 2):
            fails += oracles.check_pairing(got.get(r, float("nan")), want[r],
                                           oracles.PAIRING_ATOL_SCENE, f"classes r={r}")
        with open(self.path["universal.json"]) as fh:
            universal = json.load(fh)
        fails += oracles.check_universal([(c["name"], c["residual"])
                                          for c in universal["checks"]])
        with open(self.path["selftest.json"]) as fh:
            selftest = json.load(fh)
        fails += [f"selftest {c['name']} failed" for c in selftest["checks"] if not c["pass"]]
        if self.selftest_hash is None:
            self.selftest_hash = selftest["report_hash"]
        elif selftest["report_hash"] != self.selftest_hash:
            fails.append("selftest report_hash changed within the run")
        return fails

    def _check_back(self) -> list:
        """forward then inverse gives back the input document, bit for bit."""
        with open(self.path["back.json"]) as fh:
            back = json.load(fh)
        comps = back.pop("components", {})
        if back != self.header or set(comps) != set(self.encoded):
            return ["forward/inverse: document header or axes differ"]
        for a, want in self.encoded.items():
            got = np.asarray(comps[a], dtype=float)
            if got.shape != want.shape or not np.array_equal(got, want):
                return [f"forward/inverse: component {a} differs"]
        return []


WORKLOADS = {
    "class-u1-5d": ClassU1,
    "class-su2-6d": ClassSU2,
    "universal-su2-torus": UniversalSU2,
    "cli-session": CliSession,
}
