"""Independent oracles for the benchmark's output checks.

Numpy and the standard library only: nothing here imports caloron, so a
fault in the program cannot hide in the reference it is compared against.
Each check returns a list of failure messages; an empty list means the output
passed.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import factorial, pi

import numpy as np

# Relative tolerance of the class-form comparisons: the program and the
# oracles evaluate the same stencils, so only summation order differs.
CLASS_RTOL = 1e-12
# The c1^2 pairing of a bundle twisted along the fiber alone is exactly zero on
# the lattice; only round-off remains.
PAIRING_ATOL_CLASS = 1e-9
PAIRING_ATOL_SCENE = 1e-8

# Universal-connection property suite: acceptance 8's table, plus the two
# properties acceptance 8 leaves to the suite's own flag.  Every SU(2) run must
# report all ten names.
UNIVERSAL_SU2_TOLERANCES = {
    "adjoint_identity": 1e-12,
    "green_inverse": 1e-9,
    "vertical_reproduction": 1e-9,
    "projector_horizontal": 1e-10,
    "projector_idempotent": 1e-10,
    "projector_contraction": 1e-12,
    "ad_star_antisymmetry": 1e-12,
    "ad_star_pairing": 1e-12,
    "FA_antisymmetry": 1e-10,
    "full_curvature_antisymmetry": 1e-10,
}

GENERATOR_ORDER = ("FA", "FPhi", "NablaPhi")


# ---------------------------------------------------------------------------
# input fields


def separable_field(rng: np.random.Generator, sizes: tuple, terms: int = 2,
                    amplitude: float = 1.0) -> np.ndarray:
    """Real periodic field, a sum of `terms` products of per-axis mode-<=1
    trigonometric polynomials (band-limited, max mode 1 on every axis)."""
    out = np.zeros(sizes)
    for _ in range(terms):
        prod = amplitude * rng.standard_normal()
        for axis, n in enumerate(sizes):
            x = np.arange(n) * (2.0 * pi / n)
            c = rng.standard_normal(3)
            shape = [1] * len(sizes)
            shape[axis] = n
            prod = prod * (c[0] + c[1] * np.cos(x) + c[2] * np.sin(x)).reshape(shape)
        out = out + prod
    return out


def su2_algebra(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """i (a1 s1 + a2 s2 + a3 s3) with Pauli matrices s_j, as trailing 2x2."""
    out = np.empty(a1.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 1j * a3
    out[..., 0, 1] = a2 + 1j * a1
    out[..., 1, 0] = -a2 + 1j * a1
    out[..., 1, 1] = -1j * a3
    return out


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """A constant SU(2) element from a random unit quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    alpha, beta = q[0] + 1j * q[1], q[2] + 1j * q[3]
    return np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]])


def conjugate_constant(comps: dict, g: np.ndarray) -> dict:
    """g X g^-1 for every component, with g constant over the grid."""
    ginv = np.conj(g.T)
    return {a: g @ x @ ginv for a, x in comps.items()}


# ---------------------------------------------------------------------------
# U(1) Chern-Weil oracle


def _central_difference(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * spacing)


def u1_pfaffian_class(comps: dict, lengths: tuple, twist: int) -> dict:
    """Degree-2 class of a U(1) connection on base x T^2 (fiber = last two axes).

    The fiber integral of (i/2pi)^2 F^F has, on the base plane (a, b), the
    component (i/2pi)^2 * 2 * fiber-mean(F_ab F_xy - F_ax F_by + F_ay F_bx) *
    fiber area.  F = dA by periodic central differences plus the twist
    background -2 pi i twist / area on the fiber plane (x, y).
    """
    dim = len(lengths)
    sizes = comps[0].shape
    h = [lengths[a] / sizes[a] for a in range(dim)]
    x, y = dim - 2, dim - 1
    area = lengths[x] * lengths[y]

    def curv(a, b):
        out = _central_difference(comps[b], a, h[a]) - _central_difference(comps[a], b, h[b])
        if (a, b) == (x, y):
            out = out - 2j * pi * twist / area
        return out

    f_xy = curv(x, y)
    norm = (1j / (2.0 * pi)) ** 2 * 2.0 * area
    out = {}
    for a, b in combinations(range(x), 2):
        top = curv(a, b) * f_xy - curv(a, x) * curv(b, y) + curv(a, y) * curv(b, x)
        out[(a, b)] = norm * np.mean(top, axis=(x, y))
    return out


def twist_pairings(flux: dict) -> dict:
    """Exact pairings of the U(1) classes of a connection whose curvature is a
    constant flux {(a, b): n} on the axis planes of T^4 with base (0, 1) and
    fiber (2, 3): r=0 pairs the fiber flux n23, and r=2 (the base torus, with
    the Chern-normalised degree-2 polynomial) gives 2 * Pf(n) =
    2 (n01 n23 - n02 n13 + n03 n12)."""
    n = lambda a, b: flux.get((a, b), 0)  # noqa: E731
    pf = n(0, 1) * n(2, 3) - n(0, 2) * n(1, 3) + n(0, 3) * n(1, 2)
    return {0: n(2, 3), 2: 2 * pf}


# ---------------------------------------------------------------------------
# symbolic oracle


def multinomial_integrand(d: int, k: int) -> dict:
    """FA^a FPhi^b NablaPhi^c with coefficient k!/(a! b! c!) over a+b+c = k and
    2b + c = d: the bidegree-(2k-d, d) part of (FA + FPhi + NablaPhi)^k."""
    out = {}
    for b in range(k + 1):
        c = d - 2 * b
        a = k - b - c
        if c < 0 or a < 0:
            continue
        word = ("FA",) * a + ("FPhi",) * b + ("NablaPhi",) * c
        out[word] = Fraction(factorial(k), factorial(a) * factorial(b) * factorial(c))
    return out


# ---------------------------------------------------------------------------
# checks


def relative_difference(got: dict, want: dict) -> float:
    """max |got - want| over all components, relative to max |want|."""
    if set(got) != set(want):
        return float("inf")
    scale = max((float(np.max(np.abs(v))) for v in want.values()), default=0.0)
    err = max((float(np.max(np.abs(got[k] - want[k]))) for k in want), default=0.0)
    return err / scale if scale > 0.0 else err


def check_class_form(got: dict, want: dict, what: str) -> list:
    err = relative_difference(got, want)
    return [] if err <= CLASS_RTOL else [f"{what}: relative difference {err:.3e}"]


def check_pairing(value: complex, expected: float, atol: float, what: str) -> list:
    err = abs(value - expected)
    return [] if err <= atol else [f"{what}: pairing {value} != {expected} ({err:.3e})"]


def check_expand_json(text: str) -> list:
    """`caloron expand --json` output for (d, k) = (10, 10) against the
    multinomial oracle, exactly."""
    try:
        doc = json.loads(text)
        got = {}
        for term in doc["terms"]:
            word = tuple(sorted(term["word"], key=GENERATOR_ORDER.index))
            got[word] = got.get(word, Fraction(0)) + Fraction(term["coeff"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"expand: unreadable JSON ({exc})"]
    want = multinomial_integrand(10, 10)
    return [] if got == want else ["expand: terms differ from the multinomial oracle"]


def check_universal(checks: list) -> list:
    """Residuals of an SU(2) property suite, as (name, residual) pairs, against
    the pinned tolerances; never relies on the suite's own pass flag."""
    seen = dict(checks)
    fails = [f"universal: {name} missing" for name in UNIVERSAL_SU2_TOLERANCES
             if name not in seen]
    for name, tol in UNIVERSAL_SU2_TOLERANCES.items():
        if name in seen and not float(seen[name]) <= tol:
            fails.append(f"universal: {name} residual {seen[name]:.3e} > {tol:.0e}")
    return fails
