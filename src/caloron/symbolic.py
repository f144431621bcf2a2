"""Exact expansion of invariant-polynomial arguments in the three curvature generators.

Words are tuples over the alphabet {FA, FPhi, NablaPhi}, of bidegree
(2,0), (0,2) and (1,1); an Expression is a finite rational-linear combination
of words.  All coefficients are exact fractions, so the closed-formula
identities can be tested with zero tolerance.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .errors import ConfigError

FA = "FA"
FPHI = "FPhi"
NABLA = "NablaPhi"

GENERATORS = (FA, FPHI, NABLA)
BIDEGREE = {FA: (2, 0), FPHI: (0, 2), NABLA: (1, 1)}

# canonical letter order: FA < FPhi < NablaPhi (all letters have even total
# degree, so reordering inside a word is sign-free)
_ORDER = {FA: 0, FPHI: 1, NABLA: 2}

MAX_EXPAND_POWER = 12

Word = tuple  # tuple of generator names


@dataclass
class Expression:
    """Finite map word -> nonzero rational coefficient."""

    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for word, coeff in self.terms.items():
            coeff = Fraction(coeff)
            if coeff != 0:
                cleaned[tuple(word)] = coeff
        self.terms = cleaned

    def __eq__(self, other) -> bool:
        return isinstance(other, Expression) and self.terms == other.terms

    def __repr__(self):
        return f"Expression({render(self)!r})"


def word_from_powers(a: int, b: int, c: int) -> Word:
    """Canonical word FA^a FPhi^b NablaPhi^c."""
    return (FA,) * a + (FPHI,) * b + (NABLA,) * c


def canonicalize(e: Expression) -> Expression:
    """Merge words equal up to letter permutation, letters sorted FA < FPhi < NablaPhi."""
    out = {}
    for word, coeff in e.terms.items():
        key = tuple(sorted(word, key=_ORDER.__getitem__))
        out[key] = out.get(key, Fraction(0)) + coeff
    return Expression(out)


def caloron_integrand(d: int, k: int) -> Expression:
    """Canonical bidegree-(2k-d, d) part of the k-th power expansion.

    Each canonical word FA^a FPhi^b NablaPhi^c (a+b+c=k, 2b+c=d) carries the
    multinomial coefficient k!/(a!b!c!), the number of length-k words with
    those letter counts.
    """
    if k < 1:
        raise ConfigError(f"polynomial degree k={k} must be positive")
    if d < 0 or d > 2 * k:
        raise ConfigError(f"fiber degree d={d} outside 0..{2 * k}")
    if k > MAX_EXPAND_POWER:
        raise ConfigError(f"power k={k} outside 1..{MAX_EXPAND_POWER}")
    terms = {}
    for b in range(d // 2 + 1):
        c = d - 2 * b
        a = k - b - c
        if a >= 0:
            terms[word_from_powers(a, b, c)] = Fraction(
                factorial(k), factorial(a) * factorial(b) * factorial(c))
    return Expression(terms)


def abelian_closed_form(d: int, k: int) -> Expression:
    """Double-binomial closed form, valid when the structure group is abelian."""
    if k < 1:
        raise ConfigError(f"polynomial degree k={k} must be positive")
    if d > 2 * k:
        raise ConfigError(f"fiber degree d={d} exceeds 2k={2 * k}")
    terms = {}
    for i in range((d + 1) // 2, min(d, k) + 1):
        coeff = Fraction(comb(k, i) * comb(i, d - i))
        if coeff:
            terms[word_from_powers(k - i, d - i, 2 * i - d)] = coeff
    return Expression(terms)


def string_class_integrand(k: int) -> Expression:
    """k * FA^{k-1} NablaPhi, the circle-fiber specialization."""
    if k < 1:
        raise ConfigError(f"k={k} must be positive")
    return Expression({word_from_powers(k - 1, 0, 1): Fraction(k)})


def _w(*letters) -> Word:
    return tuple(letters)


def low_degree_formula(r: int, d: int) -> Expression:
    """The displayed closed formulas for the degree-0..4 classes, un-canonicalized.

    Nested sums are emitted term by term in written order (duplicate words
    merge by coefficient addition); the rational prefactor (d+r)/2-style
    constants are included.
    """
    if r not in (0, 1, 2, 3, 4):
        raise ConfigError(f"degree r={r} outside 0..4")
    if d < 1:
        raise ConfigError(f"fiber dimension d={d} must be positive")
    if (r + d) % 2 != 0:
        raise ConfigError(f"r={r} and d={d} must have the same parity")

    terms: dict = {}

    def add(word: Word, coeff) -> None:
        coeff = Fraction(coeff)
        terms[word] = terms.get(word, Fraction(0)) + coeff

    fp = lambda n: (FPHI,) * n  # noqa: E731

    if r == 0:
        add(fp(d // 2), 1)
        return Expression(terms)
    if r == 1:
        add(_w(NABLA) + fp((d - 1) // 2), Fraction(d + 1, 2))
        return Expression(terms)
    if r == 2:
        pre = Fraction(d + 2, 2)
        add(_w(FA) + fp(d // 2), pre)
        for j in range((d - 2) // 2 + 1):
            add(_w(NABLA) + fp((d - 2) // 2 - j) + _w(NABLA) + fp(j), pre / 2)
        return Expression(terms)
    if r == 3:
        pre = Fraction(d + 3, 2)
        for j in range((d - 1) // 2 + 1):
            add(_w(FA) + fp((d - 1) // 2 - j) + _w(NABLA) + fp(j), pre)
        for j in range((d - 3) // 2 + 1):
            for l in range(j + 1):
                add(
                    _w(NABLA) + fp((d - 3) // 2 - j) + _w(NABLA) + fp(j - l) + _w(NABLA) + fp(l),
                    pre / 3,
                )
        return Expression(terms)
    # r == 4
    pre = Fraction(d + 4, 2)
    for j in range(d // 2 + 1):
        add(_w(FA) + fp(d // 2 - j) + _w(FA) + fp(j), pre / 2)
    for j in range((d - 2) // 2 + 1):
        for l in range(j + 1):
            add(
                _w(FA) + fp((d - 2) // 2 - j) + _w(NABLA) + fp(j - l) + _w(NABLA) + fp(l),
                pre,
            )
    for j in range((d - 4) // 2 + 1):
        for l in range(j + 1):
            for m in range(l + 1):
                add(
                    _w(NABLA) + fp((d - 4) // 2 - j) + _w(NABLA) + fp(j - l)
                    + _w(NABLA) + fp(l - m) + _w(NABLA) + fp(m),
                    pre / 4,
                )
    return Expression(terms)


# the populated cells of the (d, k) table, exactly as written
_TABLE = {
    (1, 1): [(_w(NABLA), 1)],
    (1, 2): [(_w(FA, NABLA), 2)],
    (1, 3): [(_w(FA, FA, NABLA), 3)],
    (2, 1): [(_w(FPHI), 1)],
    (2, 2): [(_w(NABLA, NABLA), 1), (_w(FA, FPHI), 2)],
    (2, 3): [(_w(FA, NABLA, NABLA), 3), (_w(FA, FA, FPHI), 3)],
    (3, 2): [(_w(NABLA, FPHI), 2)],
    (3, 3): [(_w(NABLA, NABLA, NABLA), 1), (_w(FA, NABLA, FPHI), 3), (_w(FA, FPHI, NABLA), 3)],
    (4, 2): [(_w(FPHI, FPHI), 1)],
    (4, 3): [(_w(NABLA, NABLA, FPHI), 3), (_w(FA, FPHI, FPHI), 3)],
    (5, 3): [(_w(NABLA, FPHI, FPHI), 3)],
    (6, 3): [(_w(FPHI, FPHI, FPHI), 1)],
}


def table_cells() -> list:
    """Sorted (d, k) keys of the populated table cells."""
    return sorted(_TABLE)


def table_fixture(d: int, k: int) -> Expression:
    if (d, k) not in _TABLE:
        raise ConfigError(f"table cell (d={d}, k={k}) is empty")
    terms = {}
    for word, coeff in _TABLE[(d, k)]:
        terms[word] = terms.get(word, Fraction(0)) + Fraction(coeff)
    return Expression(terms)


# per style: letter symbols, power format, factor joiner, coefficient format
_STYLES = {
    "plain": ({FA: "FA", FPHI: "FPhi", NABLA: "NablaPhi"}, "{}^{}", "*", "{}*{}"),
    "latex": ({FA: "F_{A}", FPHI: "F_{\\Phi}", NABLA: "\\nabla\\Phi"},
              "{}^{{{}}}", "", "{}{}"),
}


def _word_key(word: Word):
    # display order follows the closed-formula tables: fewest FA letters first,
    # then fewest FPhi, with a lexicographic tie-break
    return (len(word), word.count(FA), word.count(FPHI),
            tuple(_ORDER[g] for g in word))


def render(e: Expression, style: str = "plain") -> str:
    """Deterministic text form; words in canonical order, reduced fractions."""
    if style not in _STYLES:
        raise ValueError(f"unknown render style {style!r}")
    if not e.terms:
        return "0"
    symbols, power, joiner, scaled = _STYLES[style]
    parts = []
    canon = canonicalize(e)
    for word in sorted(canon.terms, key=_word_key):
        coeff = canon.terms[word]
        # a canonical word runs through GENERATORS in order
        runs = [(g, word.count(g)) for g in GENERATORS if g in word]
        body = joiner.join(symbols[g] if n == 1 else power.format(symbols[g], n)
                           for g, n in runs)
        piece = body if abs(coeff) == 1 else scaled.format(abs(coeff), body)
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(parts)


def to_json(e: Expression) -> str:
    canon = canonicalize(e)
    terms = [
        {"word": list(w), "coeff": f"{c.numerator}/{c.denominator}"}
        for w, c in sorted(canon.terms.items(), key=lambda kv: _word_key(kv[0]))
    ]
    return json.dumps({"terms": terms})
