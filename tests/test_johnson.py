import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lie_elements, random_lie_element
from mccool.derivations import apply, der_bracket, inner_derivation, tangential_witness
from mccool.freelie import LieElement, abc_alphabet, lie_bracket, to_tensor, x_alphabet
from mccool.johnson import (
    McCoolSymbols,
    bracket_map_rank,
    kernel_report,
    omega,
    sign_normalize,
    tau_evaluate,
    tau_generator,
)
from mccool.words import lyndon_tuples


class TestTauGenerator:
    def test_images_of_d12(self):
        d = tau_generator(3, 1, 2)
        x = x_alphabet(3)
        x1, x2 = LieElement.generator(x, "X1"), LieElement.generator(x, "X2")
        assert d.images[0] == lie_bracket(x2, x1)
        assert d.images[1].is_zero() and d.images[2].is_zero()

    def test_d13_is_tau_of_c(self):
        c = LieElement.generator(abc_alphabet(), "c")
        assert tau_evaluate(c) == tau_generator(3, 1, 3)

    def test_sum_of_column_is_inner(self):
        x3 = LieElement.generator(x_alphabet(3), "X3")
        assert tau_generator(3, 1, 3) + tau_generator(3, 2, 3) == inner_derivation(x3)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            tau_generator(3, 1, 1)
        with pytest.raises(IndexError):
            tau_generator(3, 0, 2)
        with pytest.raises(IndexError):
            tau_generator(3, 1, 4)


class TestTauEvaluate:
    def test_generator_case(self):
        a = LieElement.generator(abc_alphabet(), "a")
        assert tau_evaluate(a) == tau_generator(3, 1, 2)

    def test_graded_relation(self):
        sym = McCoolSymbols(3)
        p = lie_bracket(sym.symbol(1, 3), sym.symbol(2, 3))
        assert tau_evaluate(p).is_zero()

    def test_omega_in_kernel(self):
        assert tau_evaluate(omega()).is_zero()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tau_is_a_lie_morphism(self, data):
        alphabet = abc_alphabet()
        du = data.draw(st.integers(1, 4))
        dv = data.draw(st.integers(1, max(1, 7 - du)))
        p = data.draw(lie_elements(alphabet, du))
        q = data.draw(lie_elements(alphabet, dv))
        lhs = tau_evaluate(lie_bracket(p, q))
        rhs = der_bracket(tau_evaluate(p), tau_evaluate(q))
        assert lhs == rhs

    def test_image_is_tangential(self, rng):
        alphabet = abc_alphabet()
        for _ in range(15):
            deg = rng.randint(1, 5)
            p = random_lie_element(rng, alphabet, deg)
            d = tau_evaluate(p)
            if d.is_zero():
                continue
            witnesses = tangential_witness(d)
            for i, w in enumerate(witnesses):
                xi = LieElement.generator(d.alphabet, f"X{i + 1}")
                assert lie_bracket(xi, w) == d.images[i]


class TestOmega:
    def test_degree_and_terms(self):
        om = omega()
        assert om.degree == 6
        assert not om.is_zero()

    def test_ccbbaa_coefficient(self):
        # frozen from the independent tensor-expansion oracle
        assert to_tensor(omega()).coefficient("ccbbaa") == -1

    def test_normal_form_has_eleven_terms(self):
        # frozen Lyndon normal form footprint (leading coefficient +1)
        om = sign_normalize(omega())
        assert len(om.coeffs) == 11
        lead = min(om.coeffs)
        assert om.coeffs[lead] == 1


class TestKernelReports:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_low_degrees_vanish(self, k):
        rep = kernel_report(k)
        assert rep.kernel_dim == 0
        assert rep.image_rank == rep.domain_dim

    def test_degree6(self):
        rep = kernel_report(6)
        assert rep.domain_dim == 116
        assert rep.image_rank == 115
        assert rep.kernel_dim == 1
        assert rep.kernel_basis[0] == sign_normalize(omega())

    def test_degree7(self):
        rep = kernel_report(7)
        assert (rep.domain_dim, rep.kernel_dim) == (312, 6)
        engine_words = lyndon_tuples(3, 7)
        assert rep.domain_dim == len(engine_words)

    def test_basis_killed_by_tau(self):
        for k in (6, 7):
            for p in kernel_report(k).kernel_basis:
                assert tau_evaluate(p).is_zero()
                assert not p.is_zero()

    def test_divisors_low_degrees_trivial(self):
        for k in range(1, 6):
            rep = kernel_report(k, with_divisors=True)
            assert all(d == 1 for d in rep.elementary_divisors)
            assert len(rep.elementary_divisors) == rep.image_rank

    def test_degree6_divisors(self):
        # the degree-6 matrix genuinely has two divisors equal to 2
        # (cross-checked against an independent Smith implementation);
        # the kernel lattice is nevertheless generated by the degree-6
        # element, which test_degree6 certifies
        rep = kernel_report(6, with_divisors=True)
        assert sorted(rep.elementary_divisors) == [1] * 113 + [2, 2]

    def test_json_schema(self):
        rep = kernel_report(6)
        data = rep.to_json_dict()
        blob = json.loads(json.dumps(data))
        assert set(blob) >= {"n", "degree", "domain_dim", "image_rank", "kernel_dim", "basis"}
        assert blob["degree"] == 6 and blob["kernel_dim"] == 1
        assert blob["basis"][0]["terms"]

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            kernel_report(10)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_block_split_matches_unsplit_solve(self, k):
        # the basis assembled block by block is the one a single solve of
        # the whole tau matrix gives, tuple for tuple
        from mccool import exactla
        from mccool.johnson import _abc_columns, _vector_to_polynomial

        arrays = _abc_columns().tau_arrays(k)
        if k > 1:
            assert len(exactla._column_blocks(arrays)) > 1
        unsplit = exactla._kernel_block(arrays)
        assert exactla._kernel_lattice_columns(arrays, arrays.nrows) == unsplit
        assert exactla._kernel_lattice_columns(list(arrays), arrays.nrows) == unsplit
        domain = lyndon_tuples(3, k)
        expected = tuple(
            sign_normalize(_vector_to_polynomial(v, domain, abc_alphabet()))
            for v in unsplit
        )
        assert kernel_report(k).kernel_basis == expected


class TestBracketMap:
    def test_degree5(self):
        rep = bracket_map_rank(5)
        assert rep.rank == 0
        assert rep.injective  # vacuously: the source is zero
        assert not rep.surjective

    def test_degree6(self):
        rep = bracket_map_rank(6)
        assert rep.rank == 3
        assert rep.injective
        assert not rep.surjective

    def test_degree7(self):
        rep = bracket_map_rank(7)
        assert rep.rank == 18
        assert rep.injective
        assert not rep.surjective
