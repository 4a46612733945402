"""Hyper-complex arithmetic for bases 2, 4, 8 and 16.

A base-``2p`` hyper-complex number is stored as ``p`` complex components.
The product is defined by the Cayley-Dickson doubling rule

    (x, y) * (u, v) = (x*u - conj(v)*y,  v*x + y*conj(u))

applied recursively until the factors are single complex numbers.  This
recursion is the one authoritative product in the package; the hand-expanded
component formulas that float around for quaternions/octonions/sedenions are
kept only as cross-check oracles (see ``PRINTED_PRODUCT_ROWS``), because the
published expansions are not all mutually consistent.  ``conformance``
compares them row by row against the recursion.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContractError

VALID_BASES = (2, 4, 8, 16)


# --- Cayley-Dickson recursion over component tuples -------------------------

def _cd_mul(a: tuple[complex, ...], b: tuple[complex, ...]) -> tuple[complex, ...]:
    if len(a) == 1:
        return (a[0] * b[0],)
    h = len(a) // 2
    x, y = a[:h], a[h:]
    u, v = b[:h], b[h:]
    low = tuple(p - q for p, q in zip(_cd_mul(x, u), _cd_mul(_conj_t(v), y)))
    high = tuple(p + q for p, q in zip(_cd_mul(v, x), _cd_mul(y, _conj_t(u))))
    return low + high


def _conj_t(a: tuple[complex, ...]) -> tuple[complex, ...]:
    return (a[0].conjugate(),) + tuple(-c for c in a[1:])


def cd_multiply_components(a_components, b_components):
    """The recursion applied to component sequences (scalars or ndarrays)."""
    if len(a_components) != len(b_components):
        raise ContractError("component counts differ")
    return _cd_mul(tuple(a_components), tuple(b_components))


# --- printed component expansions (cross-check oracles only) ----------------
#
# Each row is the term list for one output component:
#   (sign, a_index, conj_a, b_index, conj_b)  ~  sign * ca(a_i) * cb(b_j)
# transcribed literally from the published displays, 0-based.

_QUAT_ROWS = (
    ((+1, 0, False, 0, False), (-1, 1, True, 1, False)),
    ((+1, 1, False, 0, True), (+1, 0, False, 1, False)),
)

_OCT_ROWS = (
    ((+1, 0, False, 0, False), (-1, 1, False, 1, True),
     (-1, 2, False, 2, True), (-1, 3, False, 3, True)),
    ((+1, 1, False, 0, True), (+1, 0, False, 1, False),
     (+1, 2, False, 3, True), (-1, 3, False, 2, True)),
    ((+1, 2, False, 0, True), (+1, 3, False, 1, True),
     (+1, 0, False, 2, False), (-1, 1, False, 3, True)),
    ((+1, 3, False, 0, True), (+1, 1, False, 2, True),
     (+1, 0, False, 3, False), (-1, 2, False, 1, True)),
)

_SED_ROWS = (
    ((+1, 0, False, 0, False), (-1, 1, False, 1, True), (-1, 2, False, 2, True),
     (-1, 3, False, 3, True), (-1, 4, False, 4, True), (-1, 5, False, 5, True),
     (-1, 6, False, 6, True), (-1, 7, False, 7, True)),
    ((+1, 0, False, 1, False), (+1, 1, False, 0, False), (+1, 2, False, 3, True),
     (-1, 3, False, 2, True), (+1, 4, False, 5, True), (-1, 5, False, 4, True),
     (+1, 6, False, 7, True), (-1, 7, False, 6, True)),
    ((+1, 0, False, 2, False), (-1, 1, False, 3, True), (+1, 2, False, 0, False),
     (+1, 3, False, 1, False), (+1, 4, False, 6, True), (-1, 5, False, 7, True),
     (-1, 6, False, 4, True), (+1, 7, False, 5, True)),
    ((+1, 0, False, 3, False), (+1, 1, False, 2, False), (-1, 2, False, 1, False),
     (+1, 3, False, 0, False), (+1, 4, False, 7, True), (+1, 5, False, 6, True),
     (-1, 6, False, 5, True), (-1, 7, False, 4, True)),
    ((+1, 0, False, 4, False), (-1, 1, False, 5, True), (-1, 2, False, 6, True),
     (-1, 3, False, 7, True), (+1, 4, False, 0, False), (+1, 5, False, 1, False),
     (+1, 6, False, 2, False), (+1, 7, False, 3, False)),
    ((+1, 0, False, 5, False), (+1, 1, False, 4, False), (-1, 2, False, 7, True),
     (+1, 3, False, 6, True), (-1, 4, False, 1, False), (+1, 5, False, 0, False),
     (-1, 6, False, 3, False), (+1, 7, False, 2, False)),
    ((+1, 0, False, 6, False), (+1, 1, False, 7, False), (+1, 2, False, 4, False),
     (-1, 3, False, 5, False), (-1, 4, False, 2, False), (+1, 5, False, 3, False),
     (+1, 6, False, 0, False), (-1, 7, False, 1, False)),
    ((+1, 0, False, 7, False), (-1, 1, False, 6, False), (+1, 2, False, 5, False),
     (+1, 3, False, 4, False), (-1, 4, False, 3, False), (-1, 5, False, 2, False),
     (+1, 6, False, 1, False), (+1, 7, False, 0, False)),
)

# The published four-window affine-layer expansion uses yet another
# conjugation pattern; kept separately so conformance can report on it.
_OCT_LAYER_ROWS = (
    ((+1, 0, False, 0, False), (-1, 1, False, 1, True),
     (-1, 2, False, 2, True), (-1, 3, False, 3, True)),
    ((+1, 1, False, 0, True), (+1, 0, False, 1, False),
     (-1, 3, False, 2, True), (+1, 2, False, 3, True)),
    ((+1, 2, False, 0, False), (+1, 0, False, 2, True),
     (-1, 1, False, 3, True), (+1, 3, False, 1, True)),
    ((+1, 3, False, 0, True), (+1, 0, False, 3, False),
     (-1, 2, False, 1, True), (+1, 1, False, 2, True)),
)

PRINTED_PRODUCT_ROWS = {4: _QUAT_ROWS, 8: _OCT_ROWS, 16: _SED_ROWS}
PRINTED_LAYER_ROWS = {4: _QUAT_ROWS, 8: _OCT_LAYER_ROWS, 16: _SED_ROWS}


def evaluate_rows(rows, a_comps, b_comps):
    """Evaluate a printed term table on component sequences (scalars or arrays)."""
    out = []
    for row in rows:
        acc = None
        for sign, ai, ca, bi, cb in row:
            av = np.conj(a_comps[ai]) if ca else a_comps[ai]
            bv = np.conj(b_comps[bi]) if cb else b_comps[bi]
            term = sign * av * bv
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def printed_product(base: int, a_comps, b_comps):
    """The published product display for ``base`` on component sequences
    (scalars or arrays); base 2 is the textbook complex product over real parts."""
    if base == 2:
        (x,), (y,) = a_comps, b_comps
        re = x.real * y.real - x.imag * y.imag
        im = x.real * y.imag + x.imag * y.real
        return [re + 1j * im]
    return evaluate_rows(PRINTED_PRODUCT_ROWS[base], a_comps, b_comps)


# --- bilinear structure of the recursion -------------------------------------
#
# For every component pair (i, j) the recursion contributes exactly one signed,
# possibly conjugated monomial to exactly one output component.  The table is
# extracted by probing the recursion with unit and imaginary-unit inputs, so it
# stays mechanically tied to the recursion.

@lru_cache(maxsize=None)
def component_product_table(base: int):
    """Entries (out_index, a_index, b_index, sign, conj_a, conj_b) of the product."""
    p = base // 2
    entries = []
    for i in range(p):
        for j in range(p):
            probes = {}
            for za, zb in ((1, 1), (1j, 1), (1, 1j), (1j, 1j)):
                a = [0j] * p
                b = [0j] * p
                a[i], b[j] = za, zb
                prod = _cd_mul(tuple(a), tuple(b))
                nz = [k for k, c in enumerate(prod) if abs(c) > 1e-14]
                if len(nz) != 1:
                    raise ContractError(
                        f"base {base}: pair ({i},{j}) spread over components {nz}"
                    )
                probes[(za, zb)] = (nz[0], prod[nz[0]])
            k, v11 = probes[(1, 1)]
            sign = int(round(v11.real))
            conj_a = probes[(1j, 1)][1] == -sign * 1j
            conj_b = probes[(1, 1j)][1] == -sign * 1j
            # cross-check the fully imaginary probe against the inferred monomial
            expect = sign * (-1j if conj_a else 1j) * (-1j if conj_b else 1j)
            got_k, got_v = probes[(1j, 1j)]
            if got_k != k or abs(got_v - expect) > 1e-12:
                raise ContractError(
                    f"base {base}: pair ({i},{j}) is not a single monomial"
                )
            entries.append((k, i, j, sign, conj_a, conj_b))
    return tuple(entries)

