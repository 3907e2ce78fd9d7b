"""Coproduct: algebra map, coassociativity, divided-power law."""

import pytest

from iqsl2.coeff import Scalar
from iqsl2.pbw import UElement, divided_power, u_gen
from iqsl2.tensor import (
    TensorElement,
    _delta_mono,
    delta,
    expand_left,
    expand_right,
)

E = u_gen("E")
F = u_gen("F")
K = u_gen("K")
Ki = u_gen("Kinv")
ONE = UElement.one()


# the coproducts of the generators, as pairs of generators
DELTA_E = TensorElement.from_pair(E, ONE) + TensorElement.from_pair(K, E)
DELTA_F = TensorElement.from_pair(ONE, F) + TensorElement.from_pair(F, Ki)


def test_delta_on_generators():
    assert delta(u_gen("E")) == DELTA_E
    assert delta(u_gen("F")) == DELTA_F
    assert delta(u_gen("K")) == TensorElement.from_pair(K, K)
    assert delta(u_gen("Kinv")) == TensorElement.from_pair(Ki, Ki)


def test_closed_delta_is_the_product_of_generator_coproducts():
    # the q-binomial sums of delta(E)^a and delta(F)^c against products
    # of the generator pairs in the tensor square
    e_pow = [TensorElement.one()]
    f_pow = [TensorElement.one()]
    for _ in range(6):
        e_pow.append(e_pow[-1] * DELTA_E)
        f_pow.append(f_pow[-1] * DELTA_F)
    for b in (-2, 0, 3):
        kk = UElement.monomial(0, b, 0)
        kk = TensorElement.from_pair(kk, kk)
        for a, ea in enumerate(e_pow):
            for c, fc in enumerate(f_pow):
                assert _delta_mono((a, b, c)) == ea * kk * fc, (a, b, c)


def test_delta_b_generator():
    # delta(B) = B x K^-1 + 1 x B for B = F + Echeck
    B = F + u_gen("Echeck")
    assert delta(B) == TensorElement.from_pair(B, Ki) + TensorElement.from_pair(
        ONE, B
    )


def test_delta_is_algebra_map_randomized():
    import random

    rng = random.Random(2024)
    gens = [E, F, K, Ki]

    def rand_elt():
        out = UElement.zero()
        for _ in range(2):
            m = gens[rng.randrange(4)] * gens[rng.randrange(4)]
            out = out + m.scale(Scalar.q_power(rng.randrange(-2, 3)))
        return out

    for _ in range(12):
        x = rand_elt()
        y = rand_elt()
        assert delta(x * y) == delta(x) * delta(y)


def test_delta_unit():
    assert delta(ONE) == TensorElement.one()
    assert delta(UElement.zero()) == TensorElement.zero()


def test_coassociativity_on_generators():
    for g in ("E", "F", "K", "Kinv", "Echeck"):
        t = delta(u_gen(g))
        assert expand_left(t) == expand_right(t)


def test_coassociativity_on_products():
    for x in (E * F, K * F, E * E * F):
        t = delta(x)
        assert expand_left(t) == expand_right(t)


def test_divided_power_coproduct():
    # delta(F^{(n)}) = sum_a q^{a(n-a)} F^{(a)} x F^{(n-a)} K^{-a}
    for n in range(0, 6):
        lhs = delta(divided_power("F", n))
        rhs = TensorElement.zero()
        for a in range(n + 1):
            pair = TensorElement.from_pair(
                divided_power("F", a),
                divided_power("F", n - a) * UElement.monomial(0, -a, 0),
            )
            rhs = rhs + pair.scale(Scalar.q_power(a * (n - a)))
        assert lhs == rhs


def test_tensor_multiplication_componentwise():
    t1 = TensorElement.from_pair(E, F)
    t2 = TensorElement.from_pair(F, E)
    assert t1 * t2 == TensorElement.from_pair(E * F, F * E)


def test_serialization_deterministic():
    t = TensorElement.from_pair(E + K, F + Ki)
    s = str(t)
    assert s == str(TensorElement.from_pair(E + K, F + Ki))
    assert "⊗" in s
    assert str(TensorElement.zero()) == "0"
    assert str(TensorElement.one()) == "(1)*(1)⊗(1)"


@pytest.mark.parametrize("bad", [(-1, 0, 0), (0, 0, -1), (1, 0), (1, 0, 0, 0),
                                 (1.0, 0, 0), (0, "1", 0)])
def test_legs_are_validated_as_pbw_monomials(bad):
    with pytest.raises(ValueError, match="bad PBW monomial"):
        UElement({bad: 1})
    with pytest.raises(ValueError, match="bad PBW monomial"):
        TensorElement({(bad, (0, 0, 0)): 1})
    with pytest.raises(ValueError, match="bad PBW monomial"):
        TensorElement({((0, 0, 0), bad): 1})
    # a valid key is stored as given, a zero coefficient dropped
    t = TensorElement({((1, -1, 0), (0, 2, 3)): 1, ((0, 0, 0), (0, 0, 0)): 0})
    assert t == TensorElement.from_pair(UElement.monomial(1, -1, 0),
                                        UElement.monomial(0, 2, 3))
