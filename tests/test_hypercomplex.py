"""The Cayley-Dickson product on complex-component tuples: its laws, the
printed displays and the structure table."""

import numpy as np
import pytest

from freqcast.conformance import algebra_rows
from freqcast.errors import ContractError
from freqcast.hypercomplex import (
    cd_multiply_components,
    component_product_table,
    printed_product,
)

from conftest import rand_hc

BASES = (2, 4, 8, 16)


def one(base):
    return (1 + 0j,) + (0j,) * (base // 2 - 1)


class TestScalarBasics:
    def test_base_mismatch_rejected(self):
        with pytest.raises(ContractError):
            cd_multiply_components(one(4), one(8))

    def test_multiplicative_identity(self, rng):
        for base in BASES:
            o = rand_hc(rng, base)
            e = one(base)
            for prod in (cd_multiply_components(e, o), cd_multiply_components(o, e)):
                np.testing.assert_allclose(np.array(prod), np.array(o), atol=1e-15)

    def test_identity_on_octonion_example(self):
        o = (1 + 2j, 3 - 1j, 0j, 5j)
        assert cd_multiply_components(one(8), o) == o

    def test_base2_conjugate_pair(self):
        assert cd_multiply_components((1 + 1j,), (1 - 1j,)) == (2 + 0j,)

    def test_base2_is_textbook_complex_product(self, rng):
        for _ in range(100):
            a, b = rand_hc(rng, 2), rand_hc(rng, 2)
            assert cd_multiply_components(a, b)[0] == a[0] * b[0]


class TestNorm:
    @pytest.mark.parametrize("base", (2, 4, 8))
    def test_multiplicative_up_to_base8(self, rng, base):
        norm = np.linalg.norm
        for _ in range(300):
            a, b = rand_hc(rng, base), rand_hc(rng, base)
            lhs = norm(cd_multiply_components(a, b))
            rhs = norm(a) * norm(b)
            assert abs(lhs - rhs) / rhs < 1e-9


class TestAlgebraicLaws:
    @pytest.mark.parametrize("base", (2, 4, 8))
    def test_left_distributivity(self, rng, base):
        for _ in range(100):
            a, b, c = (rand_hc(rng, base) for _ in range(3))
            lhs = cd_multiply_components(a, np.add(b, c))
            rhs = np.add(cd_multiply_components(a, b), cd_multiply_components(a, c))
            np.testing.assert_allclose(np.array(lhs), rhs, atol=1e-12)

    @pytest.mark.parametrize("base", (2, 4))
    def test_associative_small_bases(self, rng, base):
        for _ in range(100):
            a, b, c = (rand_hc(rng, base) for _ in range(3))
            lhs = cd_multiply_components(cd_multiply_components(a, b), c)
            rhs = cd_multiply_components(a, cd_multiply_components(b, c))
            np.testing.assert_allclose(np.array(lhs), np.array(rhs), atol=1e-12)

    @pytest.mark.parametrize("base", (8, 16))
    def test_non_associativity_witness(self, rng, base):
        found = False
        for _ in range(50):
            a, b, c = (rand_hc(rng, base) for _ in range(3))
            lhs = cd_multiply_components(cd_multiply_components(a, b), c)
            rhs = cd_multiply_components(a, cd_multiply_components(b, c))
            gap = max(abs(x - y) for x, y in zip(lhs, rhs))
            if gap > 1e-6:
                found = True
                break
        assert found, f"no associativity violation found at base {base}"


class TestExplicitOracles:
    def test_octonion_identity_row(self, rng):
        b = rand_hc(rng, 8)
        prod = printed_product(8, one(8), b)
        np.testing.assert_allclose(np.array(prod), np.array(b), atol=1e-15)

    def test_octonion_embedded_j_squared(self):
        a = (1j, 0j, 0j, 0j)
        assert tuple(printed_product(8, a, a)) == (-1 + 0j, 0j, 0j, 0j)

    def test_sedenion_identity_and_j(self, rng):
        b = rand_hc(rng, 16)
        prod = printed_product(16, one(16), b)
        np.testing.assert_allclose(np.array(prod), np.array(b), atol=1e-15)
        a = (1j,) + (0j,) * 7
        assert tuple(printed_product(16, a, a)) == ((-1 + 0j,) + (0j,) * 7)

    @pytest.mark.parametrize("base", BASES)
    def test_deviations_confined_to_flagged_rows(self, rng, base):
        """Where the published expansion disagrees with the recursion, the
        disagreement must be exactly on the rows the conformance report flags."""
        flagged = {r["row"] for r in algebra_rows()
                   if (r["base"], r["display"]) == (base, "product") and not r["matches"]}
        for _ in range(200):
            a, b = rand_hc(rng, base), rand_hc(rng, base)
            rec = cd_multiply_components(a, b)
            exp = printed_product(base, a, b)
            for row, (x, y) in enumerate(zip(rec, exp)):
                if abs(x - y) > 1e-12:
                    assert row in flagged, (
                        f"base {base} row {row} deviates but is not flagged"
                    )

    def test_some_rows_match_recursion(self):
        flagged = {(r["base"], r["row"]) for r in algebra_rows()
                   if r["display"] == "product" and not r["matches"]}
        assert not any(base == 2 for base, _ in flagged)
        assert (4, 1) not in flagged


class TestStructureTable:
    @pytest.mark.parametrize("base", BASES)
    def test_table_reproduces_recursion(self, rng, base):
        p = base // 2
        a, b = rand_hc(rng, base), rand_hc(rng, base)
        out = [0j] * p
        for k, i, j, sign, ca, cb in component_product_table(base):
            av = a[i].conjugate() if ca else a[i]
            bv = b[j].conjugate() if cb else b[j]
            out[k] += sign * av * bv
        rec = cd_multiply_components(a, b)
        np.testing.assert_allclose(np.array(out), np.array(rec), atol=1e-12)

    @pytest.mark.parametrize("base", BASES)
    def test_table_covers_all_pairs_once(self, base):
        table = component_product_table(base)
        p = base // 2
        assert len(table) == p * p
        assert {(i, j) for _, i, j, *_ in table} == {(i, j) for i in range(p) for j in range(p)}
