"""Exact-arithmetic tests for the expansion engine and closed formulas."""
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from caloron import symbolic as sym
from caloron.errors import ConfigError
from caloron.symbolic import FA, FPHI, NABLA, Expression


# brute-force oracle for the integrand: every word of the k-th power, filtered


def expand_power(k: int) -> Expression:
    """All 3^k words of length k, coefficient 1 each."""
    if not 1 <= k <= sym.MAX_EXPAND_POWER:
        raise ConfigError(f"power k={k} outside 1..{sym.MAX_EXPAND_POWER}")
    return Expression({w: Fraction(1) for w in product(sym.GENERATORS, repeat=k)})


def filter_bidegree(e: Expression, base: int, fiber: int) -> Expression:
    return Expression(
        {w: c for w, c in e.terms.items()
         if (sum(sym.BIDEGREE[g][0] for g in w), sum(sym.BIDEGREE[g][1] for g in w))
         == (base, fiber)}
    )


def test_expand_power_k1():
    e = expand_power(1)
    assert e.terms == {(FA,): 1, (FPHI,): 1, (NABLA,): 1}


def test_expand_power_k2_mass():
    e = expand_power(2)
    assert len(e.terms) == 9
    assert sum(e.terms.values()) == 9


def test_expand_power_k3_multiset_count():
    # independent oracle: number of multisets of size 3 from 3 generators
    from itertools import combinations_with_replacement
    expected = len(list(combinations_with_replacement(range(3), 3)))
    assert expected == 10
    assert len(sym.canonicalize(expand_power(3)).terms) == expected


def test_expand_power_range_guard():
    with pytest.raises(ConfigError, match=r"power k=0 outside 1\.\.12"):
        expand_power(0)
    with pytest.raises(ConfigError, match=r"power k=13 outside 1\.\.12"):
        expand_power(13)


def test_filter_pure_fa():
    e = filter_bidegree(expand_power(3), 6, 0)
    assert e.terms == {(FA, FA, FA): 1}


def test_filter_mixed_22():
    # oracle: enumerate all 9 words of length 2 (total degree 4) and keep base degree 2
    keep = {w for w in expand_power(2).terms if sum(sym.BIDEGREE[g][0] for g in w) == 2}
    assert keep == {(FA, FPHI), (FPHI, FA), (NABLA, NABLA)}
    e = filter_bidegree(expand_power(2), 2, 2)
    assert set(e.terms) == keep
    assert all(c == 1 for c in e.terms.values())


def test_filter_empty_is_legal():
    e = filter_bidegree(expand_power(1), 3, 1)
    assert e == Expression()


def test_bidegree_mass_partition():
    # total coefficient mass over all bidegrees equals 3^k
    for k in range(1, 7):
        e = expand_power(k)
        mass = sum(
            sum(filter_bidegree(e, 2 * k - d, d).terms.values())
            for d in range(0, 2 * k + 1)
        )
        assert mass == 3 ** k


def test_canonicalize_merges_permutations():
    e = Expression({(FA, NABLA): 1, (NABLA, FA): 1})
    assert sym.canonicalize(e).terms == {(FA, NABLA): 2}


def test_canonicalize_table_cell_d3_k3():
    e = Expression({(NABLA,) * 3: 1, (FA, NABLA, FPHI): 3, (FA, FPHI, NABLA): 3})
    assert sym.canonicalize(e).terms == {(NABLA,) * 3: 1, (FA, FPHI, NABLA): 6}


def test_canonicalize_empty():
    assert sym.canonicalize(Expression()) == Expression()


_words = st.lists(st.sampled_from(sym.GENERATORS), min_size=0, max_size=5).map(tuple)
_exprs = st.dictionaries(_words, st.fractions(min_value=-5, max_value=5), max_size=6)


@given(_exprs, st.randoms())
def test_canonicalize_permutation_invariant(terms, rnd):
    e = Expression(terms)
    shuffled = {}
    for w, c in e.terms.items():
        letters = list(w)
        rnd.shuffle(letters)
        key = tuple(letters)
        shuffled[key] = shuffled.get(key, Fraction(0)) + c
    assert sym.canonicalize(Expression(shuffled)) == sym.canonicalize(e)


@given(_exprs)
def test_canonicalize_idempotent(terms):
    e = Expression(terms)
    once = sym.canonicalize(e)
    assert sym.canonicalize(once) == once


def test_caloron_integrand_examples():
    assert sym.caloron_integrand(1, 2).terms == {(FA, NABLA): 2}
    assert sym.caloron_integrand(2, 2).terms == {(NABLA, NABLA): 1, (FA, FPHI): 2}
    assert sym.caloron_integrand(6, 3).terms == {(FPHI,) * 3: 1}
    assert sym.caloron_integrand(4, 3).terms == {
        (FA, FPHI, FPHI): 3, (FPHI, NABLA, NABLA): 3}


def test_caloron_integrand_multinomial_coefficients():
    from math import factorial
    e = sym.caloron_integrand(3, 3)
    for word, coeff in e.terms.items():
        a, b, c = word.count(FA), word.count(FPHI), word.count(NABLA)
        assert coeff == factorial(3) // (
            factorial(a) * factorial(b) * factorial(c))


def test_caloron_integrand_degree_guard():
    with pytest.raises(ConfigError, match=r"fiber degree d=5 outside 0\.\.4"):
        sym.caloron_integrand(5, 2)
    with pytest.raises(ConfigError, match=r"fiber degree d=-1 outside 0\.\.4"):
        sym.caloron_integrand(-1, 2)
    with pytest.raises(ConfigError, match="polynomial degree k=0 must be positive"):
        sym.caloron_integrand(0, 0)
    with pytest.raises(ConfigError, match=r"power k=13 outside 1\.\.12"):
        sym.caloron_integrand(2, sym.MAX_EXPAND_POWER + 1)
    assert sym.caloron_integrand(2, sym.MAX_EXPAND_POWER) != Expression()


def test_caloron_integrand_matches_brute_force_oracle():
    for k in range(1, 9):
        power = expand_power(k)
        for d in range(0, 2 * k + 1):
            want = sym.canonicalize(filter_bidegree(power, 2 * k - d, d))
            assert sym.caloron_integrand(d, k) == want, (d, k)


def test_low_degree_examples():
    assert sym.low_degree_formula(0, 2).terms == {(FPHI,): 1}
    assert sym.low_degree_formula(1, 1).terms == {(NABLA,): 1}
    assert sym.low_degree_formula(2, 2).terms == {(FA, FPHI): 2, (NABLA, NABLA): 1}


def test_low_degree_parity_guard():
    with pytest.raises(ConfigError, match="r=1 and d=2 must have the same parity"):
        sym.low_degree_formula(1, 2)


def test_low_degree_matches_integrand():
    for r in range(0, 5):
        for d in range(1, 9):
            if (r + d) % 2:
                continue
            k = (d + r) // 2
            if k < 1 or d > 2 * k:
                continue
            assert sym.canonicalize(sym.low_degree_formula(r, d)) == \
                sym.caloron_integrand(d, k), (r, d)


def test_abelian_examples():
    assert sym.abelian_closed_form(2, 3).terms == {
        (FA, FA, FPHI): 3, (FA, NABLA, NABLA): 3}
    assert sym.abelian_closed_form(1, 1).terms == {(NABLA,): 1}
    assert sym.abelian_closed_form(5, 3).terms == {(FPHI, FPHI, NABLA): 3}


def test_abelian_matches_integrand():
    for k in range(1, 7):
        for d in range(1, min(2 * k, 8) + 1):
            assert sym.abelian_closed_form(d, k) == sym.caloron_integrand(d, k), (d, k)


def test_string_class_examples():
    assert sym.string_class_integrand(1).terms == {(NABLA,): 1}
    assert sym.string_class_integrand(2).terms == {(FA, NABLA): 2}
    assert sym.string_class_integrand(3).terms == {(FA, FA, NABLA): 3}


def test_string_class_matches_integrand():
    for k in range(1, 7):
        assert sym.string_class_integrand(k) == sym.caloron_integrand(1, k)


def test_table_fixture_cells():
    assert sym.table_fixture(3, 2).terms == {(NABLA, FPHI): 2}
    assert sym.table_fixture(2, 3).terms == {(FA, NABLA, NABLA): 3, (FA, FA, FPHI): 3}
    with pytest.raises(ConfigError, match=r"table cell \(d=3, k=1\) is empty"):
        sym.table_fixture(3, 1)


def test_table_matches_integrand():
    for d, k in sym.table_cells():
        assert sym.canonicalize(sym.table_fixture(d, k)) == \
            sym.caloron_integrand(d, k), (d, k)


def test_render_plain():
    assert sym.render(Expression({(FA, FPHI): 2})) == "2*FA*FPhi"
    assert sym.render(Expression()) == "0"
    assert sym.render(sym.caloron_integrand(2, 2)) == "NablaPhi^2 + 2*FA*FPhi"


def test_render_latex():
    assert sym.render(Expression({(NABLA,) * 3: 1}), "latex") == "\\nabla\\Phi^{3}"
    e = Expression({(FA, NABLA, NABLA): 3, (FPHI, FPHI): Fraction(-1, 2), (NABLA,): -1,
                    (FA, FA, FPHI): Fraction(5, 3)})
    assert sym.render(e, "latex") == ("-\\nabla\\Phi - 1/2F_{\\Phi}^{2}"
                                      " + 3F_{A}\\nabla\\Phi^{2} + 5/3F_{A}^{2}F_{\\Phi}")
    assert sym.render(e) == "-NablaPhi - 1/2*FPhi^2 + 3*FA*NablaPhi^2 + 5/3*FA^2*FPhi"


def test_json_round_trip():
    e = sym.caloron_integrand(3, 3)
    terms = json.loads(sym.to_json(e))["terms"]
    assert Expression({tuple(t["word"]): Fraction(t["coeff"]) for t in terms}) == e
    assert '"coeff": "6/1"' in sym.to_json(e).replace("'", '"') or \
        '"coeff":"6/1"' in sym.to_json(e).replace(" ", "")
