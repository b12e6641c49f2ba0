import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lie_elements, random_lie_element
from mccool.derivations import (
    Derivation,
    NotTangential,
    apply,
    apply_via_tensor,
    der_bracket,
    inner_derivation,
    tangential_witness,
)
from mccool.freelie import LieElement, abc_alphabet, lie_bracket, x_alphabet
from mccool.johnson import tau_generator
from mccool.words import lyndon_tuples, witt_dimension


def x_gens(n):
    alphabet = x_alphabet(n)
    return alphabet, [LieElement.generator(alphabet, f"X{i}") for i in range(1, n + 1)]


class TestApply:
    def test_d12_on_generators(self):
        alphabet, x = x_gens(3)
        d12 = tau_generator(3, 1, 2)
        assert apply(d12, x[0]) == lie_bracket(x[1], x[0])
        assert apply(d12, x[1]).is_zero()
        assert apply(d12, x[2]).is_zero()

    def test_d12_leibniz_example(self):
        alphabet, x = x_gens(3)
        d12 = tau_generator(3, 1, 2)
        got = apply(d12, lie_bracket(x[0], x[2]))
        assert got == lie_bracket(lie_bracket(x[1], x[0]), x[2])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_leibniz_exactness(self, data):
        alphabet = x_alphabet(3)
        d = data.draw(st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 2)]))
        der = tau_generator(3, *d)
        du = data.draw(st.integers(1, 3))
        dv = data.draw(st.integers(1, max(1, 6 - du)))
        u = data.draw(lie_elements(alphabet, du))
        v = data.draw(lie_elements(alphabet, dv))
        lhs = apply(der, lie_bracket(u, v))
        rhs = lie_bracket(apply(der, u), v) + lie_bracket(u, apply(der, v))
        assert lhs == rhs

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_apply_agrees_with_tensor_route(self, data):
        alphabet = x_alphabet(3)
        pair = data.draw(st.sampled_from([(1, 2), (2, 3), (3, 1)]))
        der = tau_generator(3, *pair)
        deg = data.draw(st.integers(1, 5))
        u = data.draw(lie_elements(alphabet, deg))
        assert apply(der, u) == apply_via_tensor(der, u)

    def test_higher_degree_derivation_tensor_route(self, rng):
        alphabet, x = x_gens(3)
        d12, d21 = tau_generator(3, 1, 2), tau_generator(3, 2, 1)
        d2 = der_bracket(d12, d21)
        for _ in range(20):
            u = random_lie_element(rng, alphabet, rng.randint(1, 4))
            assert apply(d2, u) == apply_via_tensor(d2, u)


def derivations_over(alphabet, degree):
    """Hypothesis strategy for derivations with arbitrary sparse images."""
    image = lie_elements(alphabet, degree + 1, max_terms=3)
    return st.lists(image, min_size=alphabet.size, max_size=alphabet.size).map(
        lambda images: Derivation(alphabet, degree, images)
    )


class TestWordMemos:
    # the word memos hold dicts, shared with the images for letters: every
    # route must read them without changing them, on first use and on reuse
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_apply_and_der_bracket_agree_with_tensor_route(self, data):
        alphabet = data.draw(st.sampled_from([abc_alphabet(), x_alphabet(4)]))
        d = data.draw(derivations_over(alphabet, data.draw(st.integers(1, 2))))
        e = data.draw(derivations_over(alphabet, data.draw(st.integers(1, 2))))
        images = [LieElement(alphabet, img.degree, dict(img.coeffs)) for img in d.images]
        u = data.draw(lie_elements(alphabet, data.draw(st.integers(1, 4))))
        expected = apply_via_tensor(d, u)
        assert apply(d, u) == expected
        bracket = der_bracket(d, e)
        for img, di, ei in zip(bracket.images, d.images, e.images):
            assert img == apply_via_tensor(d, ei) - apply_via_tensor(e, di)
        assert apply(d, u) == expected
        assert list(d.images) == images


class TestDerBracket:
    def test_self_bracket_vanishes(self):
        d12 = tau_generator(3, 1, 2)
        assert der_bracket(d12, d12).is_zero()

    def test_commuting_conjugations(self):
        d13, d23 = tau_generator(3, 1, 3), tau_generator(3, 2, 3)
        assert der_bracket(d13, d23).is_zero()

    def test_product_relation_shadow(self):
        d12 = tau_generator(3, 1, 2)
        d13, d23 = tau_generator(3, 1, 3), tau_generator(3, 2, 3)
        assert der_bracket(d13 + d23, d12).is_zero()

    def test_degrees_add(self):
        d12, d21 = tau_generator(3, 1, 2), tau_generator(3, 2, 1)
        assert der_bracket(d12, d21).degree == 2

    @pytest.mark.parametrize("n", [4, 5])
    def test_relations_all_indices(self, n):
        # disjoint pairs commute; the triangle relations hold
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if len({i, j, k}) != 3:
                        continue
                    dik = tau_generator(n, i, k)
                    djk = tau_generator(n, j, k)
                    dij = tau_generator(n, i, j)
                    assert der_bracket(dik, djk).is_zero()
                    assert der_bracket(dik + djk, dij).is_zero()
                    for l in range(1, n + 1):
                        if l in (i, j, k):
                            continue
                        dkl = tau_generator(n, k, l)
                        assert der_bracket(dij, dkl).is_zero()

    def test_jacobi(self, rng):
        ders = [tau_generator(3, 1, 2), tau_generator(3, 2, 1), tau_generator(3, 1, 3)]
        for _ in range(10):
            d, e, f = (rng.choice(ders) for _ in range(3))
            cyclic = (
                der_bracket(der_bracket(d, e), f)
                + der_bracket(der_bracket(e, f), d)
                + der_bracket(der_bracket(f, d), e)
            )
            assert cyclic.is_zero()

    def test_images_match_tensor_route(self, rng):
        # [d, e](X_i) = d(e(X_i)) - e(d(X_i)), each side through the tensor
        # ring, for random derivations of degrees 1..3 on n = 3
        alphabet = x_alphabet(3)
        for _ in range(12):
            d, e = (
                Derivation(alphabet, k, [random_lie_element(rng, alphabet, k + 1) for _ in "123"])
                for k in (rng.randint(1, 3), rng.randint(1, 3))
            )
            bracket = der_bracket(d, e)
            assert bracket.degree == d.degree + e.degree
            for img, di, ei in zip(bracket.images, d.images, e.images):
                assert img == apply_via_tensor(d, ei) - apply_via_tensor(e, di)


class TestDimension:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_free_images_representation(self, n, k):
        # a derivation is freely specified by n images of degree k+1
        alphabet = x_alphabet(n)
        words = lyndon_tuples(n, k + 1)
        assert n * len(words) == n * witt_dimension(n, k + 1)
        for slot in range(n):
            for w in words[:3]:
                images = [LieElement.zero(alphabet, k + 1) for _ in range(n)]
                images[slot] = LieElement(alphabet, k + 1, {w: 1})
                d = Derivation(alphabet, k, tuple(images))
                assert not d.is_zero()

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 3), (4, 2)])
    def test_column_stacks_the_slots(self, n, k, rng):
        # slot i of the column starts at row i * witt(n, k+1)
        alphabet = x_alphabet(n)
        words = lyndon_tuples(n, k + 1)
        images = [random_lie_element(rng, alphabet, k + 1) for _ in range(n)]
        images[0] = LieElement.zero(alphabet, k + 1)
        expected = sorted(
            (i * len(words) + words.index(w), c)
            for i, img in enumerate(images)
            for w, c in img.coeffs.items()
        )
        assert Derivation(alphabet, k, images).column() == expected


class TestInner:
    def test_inner_x3_is_sum_of_conjugation_generators(self):
        alphabet, x = x_gens(3)
        assert inner_derivation(x[2]) == tau_generator(3, 1, 3) + tau_generator(3, 2, 3)

    def test_inner_fixes_its_own_generator(self):
        alphabet, x = x_gens(3)
        assert apply(inner_derivation(x[0]), x[0]).is_zero()

    def test_ad_is_a_lie_morphism(self, rng):
        alphabet, _ = x_gens(3)
        for _ in range(25):
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            w1 = random_lie_element(rng, alphabet, d1)
            w2 = random_lie_element(rng, alphabet, d2)
            lhs = inner_derivation(lie_bracket(w1, w2))
            rhs = der_bracket(inner_derivation(w1), inner_derivation(w2))
            assert lhs == rhs


class TestTangentialWitness:
    def test_d12_witness(self):
        alphabet, x = x_gens(3)
        w = tangential_witness(tau_generator(3, 1, 2))
        assert w[0] == -x[1]
        assert w[1].is_zero() and w[2].is_zero()

    def test_inner_witness_reproduces_images(self):
        alphabet, x = x_gens(3)
        d = inner_derivation(x[2])
        w = tangential_witness(d)
        for i in range(3):
            assert lie_bracket(x[i], w[i]) == d.images[i]
        assert w[2].is_zero()  # degree-1 normalization kills the X3 slot
        assert w[0] == w[1] == -x[2]  # zero coefficient on X1 and on X2

    def test_rational_images(self):
        # the kernel is solved over integer columns, so d(X_i) with
        # Fraction coefficients is scaled into them and the witness back
        alphabet, x = x_gens(3)
        half = Fraction(1, 2)
        d = inner_derivation(x[2].scale(half))
        assert tangential_witness(d) == [-x[2].scale(half), -x[2].scale(half), LieElement.zero(alphabet, 1)]
        e = der_bracket(tau_generator(3, 1, 2), tau_generator(3, 2, 1))
        scaled = Derivation(alphabet, e.degree, [p.scale(Fraction(2, 3)) for p in e.images])
        assert tangential_witness(scaled) == [w.scale(Fraction(2, 3)) for w in tangential_witness(e)]

    def test_not_tangential(self):
        alphabet, x = x_gens(3)
        bad = Derivation(
            alphabet,
            1,
            (lie_bracket(x[1], x[2]), LieElement.zero(alphabet, 2), LieElement.zero(alphabet, 2)),
        )
        with pytest.raises(NotTangential):
            tangential_witness(bad)

    def test_closure_under_brackets(self, rng):
        # brackets of tangential derivations stay tangential
        gens = [tau_generator(3, i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        for d in gens:
            for e in gens:
                b = der_bracket(d, e)
                if b.is_zero():
                    continue
                w = tangential_witness(b)
                alphabet = b.alphabet
                for i in range(3):
                    xi = LieElement.generator(alphabet, f"X{i + 1}")
                    assert lie_bracket(xi, w[i]) == b.images[i]

    def test_closure_random_higher_degree(self, rng):
        gens = [tau_generator(3, 1, 2), tau_generator(3, 2, 1), tau_generator(3, 1, 3)]
        for _ in range(12):
            d = der_bracket(rng.choice(gens), rng.choice(gens))
            e = der_bracket(d, rng.choice(gens))
            if e.is_zero():
                continue
            w = tangential_witness(e)
            for i in range(3):
                xi = LieElement.generator(e.alphabet, f"X{i + 1}")
                assert lie_bracket(xi, w[i]) == e.images[i]


class TestSerialization:
    def test_json_shape(self):
        d = tau_generator(3, 1, 2)
        data = d.to_json_dict()
        assert data["n"] == 3 and data["degree"] == 1
        assert len(data["images"]) == 3
