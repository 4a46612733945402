"""Scalar hyper-complex algebra: products, printed displays, norms, zero divisors."""

import numpy as np
import pytest

from freqcast.conformance import flagged_rows
from freqcast.errors import ContractError
from freqcast.hypercomplex import (
    SEDENION_ZERO_DIVISOR,
    HCNumber,
    cd_multiply,
    component_product_table,
    hc_norm,
    printed_product,
)

from conftest import rand_hc

BASES = (2, 4, 8, 16)


class TestScalarBasics:
    def test_component_count_enforced(self):
        with pytest.raises(ContractError):
            HCNumber(8, (1 + 0j, 2 + 0j))

    def test_base_mismatch_rejected(self):
        with pytest.raises(ContractError):
            cd_multiply(HCNumber.one(4), HCNumber.one(8))

    def test_addition_componentwise_and_zero(self, rng):
        for base in BASES:
            a = rand_hc(rng, base)
            z = HCNumber.zero(base)
            assert (a + z).components == a.components
            b = rand_hc(rng, base)
            s = a + b
            assert all(
                s.components[i] == a.components[i] + b.components[i]
                for i in range(base // 2)
            )

    def test_multiplicative_identity(self, rng):
        for base in BASES:
            o = rand_hc(rng, base)
            e = HCNumber.one(base)
            for prod in (cd_multiply(e, o), cd_multiply(o, e)):
                np.testing.assert_allclose(
                    np.array(prod.components), np.array(o.components), atol=1e-15
                )

    def test_identity_on_octonion_example(self):
        o = HCNumber(8, (1 + 2j, 3 - 1j, 0j, 5j))
        prod = cd_multiply(HCNumber.one(8), o)
        assert prod.components == o.components

    def test_base2_conjugate_pair(self):
        prod = cd_multiply(HCNumber(2, (1 + 1j,)), HCNumber(2, (1 - 1j,)))
        assert prod.components == (2 + 0j,)

    def test_base2_is_textbook_complex_product(self, rng):
        for _ in range(100):
            a, b = rand_hc(rng, 2), rand_hc(rng, 2)
            assert cd_multiply(a, b).components[0] == a.components[0] * b.components[0]

    def test_conjugation_involution_and_pattern(self, rng):
        for base in BASES:
            a = rand_hc(rng, base)
            c = a.conj()
            assert c.components[0] == a.components[0].conjugate()
            assert c.components[1:] == tuple(-x for x in a.components[1:])
            assert c.conj().components == a.components


class TestNorm:
    def test_three_four_five(self):
        assert hc_norm(HCNumber(2, (3 + 4j,))) == pytest.approx(5.0)

    def test_unit_components_base8(self):
        a = HCNumber(8, (1 + 0j,) * 4)
        assert hc_norm(a) == pytest.approx(2.0)

    def test_zero_iff_zero(self, rng):
        for base in BASES:
            assert hc_norm(HCNumber.zero(base)) == 0.0
            assert hc_norm(rand_hc(rng, base)) > 0.0

    @pytest.mark.parametrize("base", (2, 4, 8))
    def test_multiplicative_up_to_base8(self, rng, base):
        for _ in range(300):
            a, b = rand_hc(rng, base), rand_hc(rng, base)
            lhs = hc_norm(cd_multiply(a, b))
            rhs = hc_norm(a) * hc_norm(b)
            assert abs(lhs - rhs) / rhs < 1e-9


class TestAlgebraicLaws:
    @pytest.mark.parametrize("base", (2, 4, 8))
    def test_left_distributivity(self, rng, base):
        for _ in range(100):
            a, b, c = (rand_hc(rng, base) for _ in range(3))
            lhs = cd_multiply(a, b + c)
            rhs = cd_multiply(a, b) + cd_multiply(a, c)
            np.testing.assert_allclose(
                np.array(lhs.components), np.array(rhs.components), atol=1e-12
            )

    @pytest.mark.parametrize("base", (2, 4))
    def test_associative_small_bases(self, rng, base):
        for _ in range(100):
            a, b, c = (rand_hc(rng, base) for _ in range(3))
            lhs = cd_multiply(cd_multiply(a, b), c)
            rhs = cd_multiply(a, cd_multiply(b, c))
            np.testing.assert_allclose(
                np.array(lhs.components), np.array(rhs.components), atol=1e-12
            )

    @pytest.mark.parametrize("base", (8, 16))
    def test_non_associativity_witness(self, rng, base):
        found = False
        for _ in range(50):
            a, b, c = (rand_hc(rng, base) for _ in range(3))
            lhs = cd_multiply(cd_multiply(a, b), c)
            rhs = cd_multiply(a, cd_multiply(b, c))
            gap = max(abs(x - y) for x, y in zip(lhs.components, rhs.components))
            if gap > 1e-6:
                found = True
                break
        assert found, f"no associativity violation found at base {base}"


class TestExplicitOracles:
    def test_octonion_identity_row(self, rng):
        b = rand_hc(rng, 8)
        prod = printed_product(8, HCNumber.one(8).components, b.components)
        np.testing.assert_allclose(
            np.array(prod), np.array(b.components), atol=1e-15
        )

    def test_octonion_embedded_j_squared(self):
        a = HCNumber(8, (1j, 0j, 0j, 0j))
        prod = printed_product(8, a.components, a.components)
        assert tuple(prod) == (-1 + 0j, 0j, 0j, 0j)

    def test_sedenion_identity_and_j(self, rng):
        b = rand_hc(rng, 16)
        prod = printed_product(16, HCNumber.one(16).components, b.components)
        np.testing.assert_allclose(
            np.array(prod), np.array(b.components), atol=1e-15
        )
        a = HCNumber(16, (1j,) + (0j,) * 7)
        assert tuple(printed_product(16, a.components, a.components)) == (
            (-1 + 0j,) + (0j,) * 7)

    @pytest.mark.parametrize("base", BASES)
    def test_deviations_confined_to_flagged_rows(self, rng, base):
        """Where the published expansion disagrees with the recursion, the
        disagreement must be exactly on the rows the conformance report flags."""
        flagged = flagged_rows(base, "product")
        for _ in range(200):
            a, b = rand_hc(rng, base), rand_hc(rng, base)
            rec = cd_multiply(a, b).components
            exp = printed_product(base, a.components, b.components)
            for row, (x, y) in enumerate(zip(rec, exp)):
                if abs(x - y) > 1e-12:
                    assert row in flagged, (
                        f"base {base} row {row} deviates but is not flagged"
                    )

    def test_some_rows_match_recursion(self):
        assert flagged_rows(2, "product") == frozenset()
        assert 1 not in flagged_rows(4, "product")


class TestStructureTable:
    @pytest.mark.parametrize("base", BASES)
    def test_table_reproduces_recursion(self, rng, base):
        p = base // 2
        a, b = rand_hc(rng, base), rand_hc(rng, base)
        out = [0j] * p
        for k, i, j, sign, ca, cb in component_product_table(base):
            av = a.components[i].conjugate() if ca else a.components[i]
            bv = b.components[j].conjugate() if cb else b.components[j]
            out[k] += sign * av * bv
        rec = cd_multiply(a, b).components
        np.testing.assert_allclose(np.array(out), np.array(rec), atol=1e-12)

    @pytest.mark.parametrize("base", BASES)
    def test_table_covers_all_pairs_once(self, base):
        table = component_product_table(base)
        p = base // 2
        assert len(table) == p * p
        assert {(i, j) for _, i, j, *_ in table} == {(i, j) for i in range(p) for j in range(p)}


class TestZeroDivisors:
    def test_found_pair_is_a_zero_divisor(self):
        a, b = SEDENION_ZERO_DIVISOR
        assert hc_norm(a) > 0 and hc_norm(b) > 0
        assert hc_norm(cd_multiply(a, b)) < 1e-9
