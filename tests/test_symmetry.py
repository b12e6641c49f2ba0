from fractions import Fraction

import pytest

from conftest import random_lie_element
from mccool.freelie import LieElement, abc_alphabet, coordinates, lie_bracket
from mccool.johnson import kernel_report, omega
from mccool.symmetry import (
    S3_12,
    S3_123,
    S3_132,
    S3_23,
    S3_ALL,
    S3_ID,
    Character,
    act_on_polynomial,
    action_on_degree,
    action_on_generators,
    equivariance_check,
    kernel_character,
)
from mccool.symmetry import KernelNotStable, _abc_images, _letter_map_arrays, _staircase_coords
from mccool.exactla import _ColumnArrays
from mccool.words import lyndon_index, lyndon_tuples


class TestGroup:
    def test_composition_and_inverse(self):
        for s in S3_ALL:
            assert (s * s.inverse()) == S3_ID
        assert (S3_12 * S3_23) in (S3_123, S3_132)

    def test_cycle_types(self):
        assert S3_ID.cycle_type == "id"
        assert S3_12.cycle_type == "transposition"
        assert S3_123.cycle_type == "3-cycle"


class TestGeneratorAction:
    def test_identity(self):
        m = action_on_generators(S3_ID)
        assert m.entries == {(0, 0): 1, (1, 1): 1, (2, 2): 1}

    def test_transposition_12(self):
        # exchanges the first two symbols and negates the third
        m = action_on_generators(S3_12)
        assert m.entries == {(1, 0): 1, (0, 1): 1, (2, 2): -1}

    def test_transposition_23(self):
        # a -> c, b -> -b, c -> a in the canonical reduction
        m = action_on_generators(S3_23)
        assert m.entries == {(2, 0): 1, (1, 1): -1, (0, 2): 1}

    def test_three_cycle_has_order_three(self):
        a = LieElement.generator(abc_alphabet(), "a")
        img = act_on_polynomial(S3_123, act_on_polynomial(S3_123, act_on_polynomial(S3_123, a)))
        assert img == a

    def test_multiplicative(self):
        def matmul(m1, m2):
            out = {}
            for (i, k), v in m1.entries.items():
                for (k2, j), w in m2.entries.items():
                    if k == k2:
                        out[(i, j)] = out.get((i, j), 0) + v * w
            return {k: v for k, v in out.items() if v}

        for s in S3_ALL:
            for t in S3_ALL:
                got = matmul(action_on_generators(s), action_on_generators(t))
                assert got == action_on_generators(s * t).entries


class TestDegreeAction:
    def test_degree_one_matches_generator_action(self):
        for s in S3_ALL:
            assert action_on_degree(s, 1).entries == action_on_generators(s).entries

    def test_omega_signs(self):
        om = omega()
        assert act_on_polynomial(S3_12, om) == -om
        assert act_on_polynomial(S3_23, om) == -om
        assert act_on_polynomial(S3_123, om) == om

    def test_homomorphism_property_on_elements(self, rng):
        alphabet = abc_alphabet()
        for s in S3_ALL:
            for t in S3_ALL:
                for k in (1, 2, 3, 4):
                    p = random_lie_element(rng, alphabet, k, terms=2)
                    assert act_on_polynomial(s * t, p) == act_on_polynomial(
                        s, act_on_polynomial(t, p)
                    )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_homomorphism_property_on_matrices(self, k):
        def matmul(m1, m2):
            out = {}
            for (i, a), v in m1.entries.items():
                for (a2, j), w in m2.entries.items():
                    if a == a2:
                        key = (i, j)
                        out[key] = out.get(key, 0) + v * w
            return {key: v for key, v in out.items() if v}

        mats = {s: action_on_degree(s, k) for s in S3_ALL}
        for s in S3_ALL:
            for t in S3_ALL:
                assert matmul(mats[s], mats[t]) == mats[s * t].entries

    def test_action_commutes_with_bracket(self, rng):
        alphabet = abc_alphabet()
        for _ in range(40):
            s = rng.choice(S3_ALL)
            du, dv = rng.randint(1, 3), rng.randint(1, 3)
            u = random_lie_element(rng, alphabet, du)
            v = random_lie_element(rng, alphabet, dv)
            assert act_on_polynomial(s, lie_bracket(u, v)) == lie_bracket(
                act_on_polynomial(s, u), act_on_polynomial(s, v)
            )

    def test_trace_of_three_cycle_degree_two(self):
        # cross-check the matrix trace against brute-force normal forms
        m = action_on_degree(S3_123, 2)
        trace = sum(v for (i, j), v in m.entries.items() if i == j)
        from mccool.words import lyndon_tuples

        brute = 0
        for w in lyndon_tuples(3, 2):
            img = act_on_polynomial(S3_123, LieElement(abc_alphabet(), 2, {w: 1}))
            brute += img.coeffs.get(w, 0)
        assert trace == brute


class TestKernelCharacter:
    def test_zero_at_degree5(self):
        assert tuple(kernel_character(5)) == (0, 0, 0)

    def test_sign_at_degree6(self):
        ch = kernel_character(6)
        assert tuple(ch) == (1, -1, 1)
        assert ch.multiplicities() == (0, 1, 0)

    def test_degree7(self):
        ch = kernel_character(7)
        assert tuple(ch) == (6, 0, 0)
        assert ch.multiplicities() == (1, 1, 2)

    def test_kernel_stability(self):
        # the action maps the kernel into itself at every computed degree
        for k in (6, 7):
            basis = kernel_report(k).kernel_basis
            span_words = set()
            for p in basis:
                span_words.update(p.coeffs)
            for s in (S3_12, S3_123):
                for p in basis:
                    img = act_on_polynomial(s, p)
                    # membership is exact: kernel_character would raise
                    # KernelNotStable otherwise; double-check by killing tau
                    from mccool.johnson import tau_evaluate

                    assert tau_evaluate(img).is_zero()

    def test_multiplicities_reject_bad_character(self):
        with pytest.raises(ValueError):
            Character(1, 1, -1).multiplicities()

    def test_corrupted_action_column_is_refused(self, monkeypatch):
        # one entry negated in the action column of the leading word of a
        # degree-7 kernel vector: its image leaves the kernel span
        from mccool import symmetry

        lead = coordinates(kernel_report(7).kernel_basis[0])[0][0]
        build = symmetry._letter_map_arrays

        def corrupted(images, d):
            arrays = build(images, d)
            vals = arrays.vals.copy()
            vals[arrays.indptr[lead]] *= -1
            return _ColumnArrays.from_csr(arrays.indptr, arrays.rows, vals, arrays.nrows)

        monkeypatch.setattr(symmetry, "_letter_map_arrays", corrupted)
        with pytest.raises(KernelNotStable):
            kernel_character(7)


class TestLetterMapArrays:
    """The whole-degree action, read from the bracket tables, against the
    per-word route of act_on_polynomial (freelie.substitute)."""

    @pytest.mark.parametrize("k, sigmas", [(7, S3_ALL), (8, S3_ALL), (9, (S3_12, S3_123))])
    def test_arrays_equal_the_per_word_route(self, k, sigmas):
        alphabet = abc_alphabet()
        for sigma in sigmas:
            columns = action_on_degree(sigma, k).columns()
            for j, w in enumerate(lyndon_tuples(3, k)):
                image = act_on_polynomial(sigma, LieElement(alphabet, k, {w: 1}))
                assert columns[j] == coordinates(image)

    def test_images_past_int64_are_exact(self):
        # kernel vectors scaled by 2^62: their images need Python ints
        scale = 1 << 62
        for sigma in (S3_12, S3_123):
            arrays = _letter_map_arrays(_abc_images(sigma), 7)
            for p in kernel_report(7).kernel_basis:
                big = p.scale(scale)
                image = arrays.apply(coordinates(big))
                assert max(abs(c) for _, c in image) >= 1 << 63
                assert image == coordinates(act_on_polynomial(sigma, big))


def fraction_coords(cols, target):
    """Oracle: the staircase solve carried out in Fractions throughout."""
    idx = lyndon_index(3, target.degree)
    residue = {idx[w]: Fraction(c) for w, c in target.coeffs.items()}
    coords = []
    for col in cols:
        lead_row, piv = col[0]
        x = residue.get(lead_row, Fraction(0)) / piv
        coords.append(x)
        for r, v in col:
            residue[r] = residue.get(r, 0) - x * v
    return None if any(residue.values()) else coords


class TestStaircaseCoords:
    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_integer_coords_equal_fraction_route(self, k):
        basis = kernel_report(k).kernel_basis
        cols = [coordinates(p) for p in basis]
        for sigma in S3_ALL:
            for p in basis:
                image = act_on_polynomial(sigma, p)
                coords = _staircase_coords(cols, coordinates(image))
                # the kernel lattice is stable, so every pivot divides
                assert all(type(x) is int for x in coords)
                assert coords == fraction_coords(cols, image)

    def test_non_dividing_pivot_means_outside_span(self):
        # the solve assumes a saturated basis; on this unsaturated one the
        # target has rational coordinates (3/2, 1/2), and a pivot that does
        # not divide reads as outside the span
        alphabet = abc_alphabet()
        a, b, c = (LieElement.generator(alphabet, lab) for lab in "abc")
        ab, ac = lie_bracket(a, b), lie_bracket(a, c)
        cols = [coordinates(ab.scale(2) + ac), coordinates(ac.scale(3))]
        target = ab.scale(3) + ac.scale(3)
        assert fraction_coords(cols, target) == [Fraction(3, 2), Fraction(1, 2)]
        assert _staircase_coords(cols, coordinates(target)) is None
        assert _staircase_coords(cols, coordinates(ab.scale(4) + ac.scale(5))) == [2, 1]
        assert _staircase_coords(cols, coordinates(lie_bracket(b, c))) is None

    def test_target_outside_kernel_span(self):
        basis = kernel_report(7).kernel_basis
        cols = [coordinates(p) for p in basis]
        outside = basis[0] + LieElement(abc_alphabet(), 7, {(0, 0, 0, 0, 0, 0, 1): 1})
        assert _staircase_coords(cols, coordinates(outside)) is None
        assert fraction_coords(cols, outside) is None


class TestEquivariance:
    def test_identity_always(self, rng):
        alphabet = abc_alphabet()
        p = random_lie_element(rng, alphabet, 3)
        assert equivariance_check(S3_ID, p)

    def test_generator_case(self):
        a = LieElement.generator(abc_alphabet(), "a")
        assert equivariance_check(S3_12, a)

    def test_omega_case(self):
        assert equivariance_check(S3_123, omega())

    def test_random_cases(self, rng):
        alphabet = abc_alphabet()
        for _ in range(12):
            s = rng.choice(S3_ALL)
            p = random_lie_element(rng, alphabet, rng.randint(1, 4), terms=2)
            assert equivariance_check(s, p)
