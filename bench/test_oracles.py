"""Each oracle accepts the program's output and rejects a perturbed copy.

    python3 -m pytest -q bench/test_oracles.py
"""
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import oracles  # noqa: E402
from caloron.chernweil import InvariantPolynomial, caloron_class  # noqa: E402
from caloron.cli import _classes_for_scene, main  # noqa: E402
from caloron.lattice import SU2, U1, Grid  # noqa: E402
from caloron.scene import SceneConfig  # noqa: E402
from caloron.transform import ProductConnection  # noqa: E402
from caloron.universal import parse_graph, run_property_suite  # noqa: E402


def _perturb(form: dict, rel: float = 1e-9) -> dict:
    out = {k: v.copy() for k, v in form.items()}
    key = next(iter(out))
    scale = max(float(np.max(np.abs(v))) for v in form.values())
    out[key].flat[0] += rel * scale
    return out


def test_pfaffian_oracle():
    sizes = (4, 4, 4, 6, 6)
    rng = np.random.default_rng(5)
    comps = {a: 1j * oracles.separable_field(rng, sizes, amplitude=0.5) for a in range(5)}
    w = ProductConnection(Grid(sizes=sizes, base_axes=(0, 1, 2)), U1, comps, twist=1)
    got = caloron_class(w, InvariantPolynomial(2), 2).class_form.comps
    want = oracles.u1_pfaffian_class(comps, w.grid.lengths, 1)
    assert oracles.check_class_form(got, want, "class") == []
    assert oracles.check_class_form(_perturb(got), want, "class") != []
    # the twist background matters: the twist-0 oracle rejects the twisted class
    assert oracles.check_class_form(got, oracles.u1_pfaffian_class(comps, w.grid.lengths, 0),
                                    "class") != []


def test_twist_pairings():
    assert oracles.twist_pairings({(2, 3): 2}) == {0: 2, 2: 0}
    assert oracles.twist_pairings({(0, 1): 1, (2, 3): 3}) == {0: 3, 2: 6}
    cfg = SceneConfig({"base.sizes": "4,4", "fiber.sizes": "8,8", "group": "u1",
                       "family": "zero", "twist": "2", "classes": "0,2"})
    want = oracles.twist_pairings({(2, 3): 2})
    for rep in _classes_for_scene(cfg):
        value = rep.pairings[0][1]
        assert oracles.check_pairing(value, want[rep.r], 1e-8, "pairing") == []
        assert oracles.check_pairing(value + 1e-6, want[rep.r], 1e-8, "pairing") != []


def test_multinomial_expand_oracle(capsys):
    assert oracles.multinomial_integrand(2, 2) == {
        ("NablaPhi", "NablaPhi"): 1, ("FA", "FPhi"): 2}
    assert main(["expand", "--fiber-dim", "10", "--poly-degree", "10", "--json"]) == 0
    text = capsys.readouterr().out
    assert oracles.check_expand_json(text) == []
    doc = json.loads(text)
    doc["terms"][0]["coeff"] = "7/1"
    assert oracles.check_expand_json(json.dumps(doc)) != []
    del doc["terms"][0]
    assert oracles.check_expand_json(json.dumps(doc)) != []
    assert oracles.check_expand_json("not json") != []


def test_universal_tolerances():
    results = [(n, r) for n, r, _, _ in run_property_suite(parse_graph("ring:8"), SU2, seed=3)]
    assert oracles.check_universal(results) == []
    name, tol = "ad_star_pairing", oracles.UNIVERSAL_SU2_TOLERANCES["ad_star_pairing"]
    worse = [(n, 2 * tol if n == name else r) for n, r in results]
    assert oracles.check_universal(worse) != []
    assert oracles.check_universal([(n, r) for n, r in results if n != name]) != []


def test_constant_conjugation():
    sizes = (4, 4, 4, 4)
    rng = np.random.default_rng(9)
    grid = Grid(sizes=sizes, base_axes=(0, 1))
    comps = {a: oracles.su2_algebra(*(oracles.separable_field(rng, sizes, amplitude=0.3)
                                      for _ in range(3))) for a in range(4)}
    g = oracles.random_su2(rng)
    assert np.allclose(g @ np.conj(g.T), np.eye(2)) and np.isclose(np.linalg.det(g), 1)

    def klass(c):
        return caloron_class(ProductConnection(grid, SU2, c), InvariantPolynomial(2),
                             2).class_form.comps

    base = klass(comps)
    turned = klass(oracles.conjugate_constant(comps, g))
    assert oracles.check_class_form(turned, base, "conjugation") == []
    # conjugating one component alone is not a symmetry
    partial = dict(comps)
    partial[0] = oracles.conjugate_constant({0: comps[0]}, g)[0]
    assert oracles.check_class_form(klass(partial), base, "conjugation") != []
    assert oracles.check_class_form(_perturb(turned), base, "conjugation") != []
