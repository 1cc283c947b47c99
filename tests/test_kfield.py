import math

import pytest

from groupk.abelian import FgAbelianGroup
from groupk.errors import NotAPrimePower
from groupk.kfield import PrimePower, k_finite_field, validate_prime_power

from oracles import multiplicative_group_order

Z = FgAbelianGroup.free(1)
trivial = FgAbelianGroup.trivial()


class TestValidatePrimePower:
    @pytest.mark.parametrize("q,p,e", [(2, 2, 1), (9, 3, 2), (8, 2, 3), (11, 11, 1), (49, 7, 2)])
    def test_valid(self, q, p, e):
        assert validate_prime_power(q) == PrimePower(q, p, e)

    @pytest.mark.parametrize("q", [6, 12, 100, 15])
    def test_invalid(self, q):
        with pytest.raises(NotAPrimePower):
            validate_prime_power(q)

    @pytest.mark.parametrize("q,p,e", [
        (2**61 - 1, 2**61 - 1, 1),
        (2**64 - 59, 2**64 - 59, 1),  # the largest prime below the guard
        (2**64, 2, 64),
        (4294967291**2, 4294967291, 2),
        (3**40, 3, 40),
    ])
    def test_valid_near_guard(self, q, p, e):
        assert validate_prime_power(q) == PrimePower(q, p, e)

    # 3825123056546413051 is a strong pseudoprime to every prime base up to 23
    @pytest.mark.parametrize("q", [3825123056546413051, 2**64 - 1, 4294967291 * 4294967279])
    def test_invalid_near_guard(self, q):
        with pytest.raises(NotAPrimePower, match="not a prime power"):
            validate_prime_power(q)

    def test_too_small(self):
        with pytest.raises(NotAPrimePower):
            validate_prime_power(1)


class TestKFiniteField:
    def test_degree0(self):
        assert k_finite_field(validate_prime_power(5), 0) == Z

    def test_negative(self):
        assert k_finite_field(validate_prime_power(3), -2) == trivial

    def test_even_positive(self):
        assert k_finite_field(validate_prime_power(7), 4) == trivial

    def test_odd_formula(self):
        q2 = validate_prime_power(2)
        assert k_finite_field(q2, 3) == FgAbelianGroup.cyclic(3)
        assert k_finite_field(q2, 5) == FgAbelianGroup.cyclic(7)

    def test_k1_trivial_for_q2(self):
        assert k_finite_field(validate_prime_power(2), 1) == trivial

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_cardinality_identity(self, q):
        qp = validate_prime_power(q)
        for i in range(1, 11):
            k = k_finite_field(qp, 2 * i - 1)
            assert k.free_rank == 0 and math.prod(k.invariant_factors) == q**i - 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_k1_is_unit_group(self, q):
        # independent check: build F_q explicitly and count its units
        qp = validate_prime_power(q)
        units = multiplicative_group_order(qp.p, qp.e)
        k1 = k_finite_field(qp, 1)
        assert k1.free_rank == 0 and math.prod(k1.invariant_factors) == units
