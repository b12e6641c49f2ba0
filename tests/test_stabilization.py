import pytest

from conftest import random_lie_element
from mccool.derivations import Derivation, der_bracket
from mccool.freelie import LieElement, abc_alphabet, lie_bracket, x_alphabet
from mccool.johnson import McCoolSymbols, omega, tau_evaluate, tau_generator
from mccool.stabilization import (
    IndexTriple,
    embed_abc,
    independence_certificate,
    iota_der,
    iota_sym,
    pi_der,
    pi_sym,
)


class TestIndexTriple:
    def test_validation(self):
        IndexTriple((1, 2, 4), 4)
        with pytest.raises(ValueError):
            IndexTriple((2, 1, 3), 3)
        with pytest.raises(ValueError):
            IndexTriple((1, 2, 5), 4)
        with pytest.raises(ValueError):
            IndexTriple((1, 2), 3)


class TestSymbolLevel:
    def test_identity_triple_is_relabelling(self):
        om = omega()
        e = iota_sym(IndexTriple((1, 2, 3), 3), om, 3)
        assert e == embed_abc(om)
        assert not e.is_zero()

    def test_c_goes_to_k14(self):
        c = LieElement.generator(abc_alphabet(), "c")
        img = iota_sym(IndexTriple((1, 2, 4), 4), c, 4)
        sym = McCoolSymbols(4)
        assert img == sym.symbol(1, 4)

    @pytest.mark.parametrize("alphabet", [x_alphabet(3), McCoolSymbols(4).alphabet])
    def test_iota_names_a_source_it_cannot_embed(self, alphabet):
        with pytest.raises(ValueError, match="iota_sym needs"):
            iota_sym(IndexTriple((1, 2, 4), 4), LieElement.generator(alphabet, alphabet.labels[0]), 4)

    def test_projection_of_out_of_range_symbol(self):
        sym = McCoolSymbols(4)
        assert pi_sym(IndexTriple((1, 2, 3), 4), sym.symbol(1, 4), 4).is_zero()

    def test_section_retraction(self, rng):
        for _ in range(25):
            k = rng.randint(1, 6)
            p = random_lie_element(rng, abc_alphabet(), k)
            triple = IndexTriple((1, 3, 5), 5)
            assert pi_sym(triple, iota_sym(triple, p, 5), 5) == embed_abc(p)

    def test_morphism_property(self, rng):
        for _ in range(20):
            du, dv = rng.randint(1, 3), rng.randint(1, 2)
            u = random_lie_element(rng, abc_alphabet(), du, terms=2)
            v = random_lie_element(rng, abc_alphabet(), dv, terms=2)
            triple = IndexTriple((2, 3, 4), 4)
            assert iota_sym(triple, lie_bracket(u, v), 4) == lie_bracket(
                iota_sym(triple, u, 4), iota_sym(triple, v, 4)
            )

    def test_projection_morphism_property(self, rng):
        sym = McCoolSymbols(4)
        for _ in range(20):
            u = sym.symbol(1, 2)
            v = lie_bracket(sym.symbol(2, 3), sym.symbol(1, 4))
            triple = IndexTriple((1, 2, 3), 4)
            assert pi_sym(triple, lie_bracket(u, v), 4) == lie_bracket(
                pi_sym(triple, u, 4), pi_sym(triple, v, 4)
            )

    def test_omega_grid_disjoint_projections_vanish(self):
        om = omega()
        for n in (4, 5):
            triples = []
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    for c in range(b + 1, n + 1):
                        triples.append(IndexTriple((a, b, c), n))
            for it in triples:
                e = iota_sym(it, om, n)
                for jt in triples:
                    proj = pi_sym(jt, e, n)
                    if it.indices == jt.indices:
                        assert proj == embed_abc(om)
                    else:
                        assert proj.is_zero()


class TestDerivationLevel:
    def test_iota_der_on_generator(self):
        d13 = tau_generator(3, 1, 3)
        assert iota_der(IndexTriple((1, 2, 4), 4), d13, 4) == tau_generator(4, 1, 4)

    def test_pi_der_kills_outside_witness(self):
        d14 = tau_generator(4, 1, 4)
        assert pi_der(IndexTriple((1, 2, 3), 4), d14, 4).is_zero()

    def test_retraction(self, rng):
        triple = IndexTriple((1, 2, 4), 4)
        for pair in ((1, 2), (2, 1), (1, 3)):
            d = tau_generator(3, *pair)
            assert pi_der(triple, iota_der(triple, d, 4), 4) == d

    def test_tau_square_commutes(self, rng):
        for _ in range(15):
            k = rng.randint(1, 5)
            p = random_lie_element(rng, abc_alphabet(), k, terms=2)
            triple = IndexTriple((2, 3, 5), 5)
            assert tau_evaluate(iota_sym(triple, p, 5)) == iota_der(
                triple, tau_evaluate(p), 5
            )

    def test_maps_act_on_lyndon_words_letter_by_letter(self, rng):
        # a triple keeps the order of its letters, so iota_der and pi_der
        # relabel each Lyndon word; pi_der drops every word with a letter
        # outside J
        n = 5
        big, small = x_alphabet(n), x_alphabet(3)
        for indices in ((1, 2, 3), (1, 3, 5), (2, 4, 5)):
            triple = IndexTriple(indices, n)
            up = {s: t - 1 for s, t in enumerate(indices)}
            down = {t: s for s, t in up.items()}
            for k in (1, 2, 3):
                d = Derivation(big, k, [random_lie_element(rng, big, k + 1, 8) for _ in range(n)])
                projected = pi_der(triple, d, n).images
                e = Derivation(small, k, [random_lie_element(rng, small, k + 1, 4) for _ in range(3)])
                embedded = iota_der(triple, e, n).images
                for s, t in up.items():
                    kept = {w: c for w, c in d.images[t].coeffs.items() if set(w) <= set(down)}
                    assert projected[s].coeffs == {tuple(down[x] for x in w): c for w, c in kept.items()}
                    moved = {tuple(up[x] for x in w): c for w, c in e.images[s].coeffs.items()}
                    assert embedded[t].coeffs == moved
                assert all(embedded[t].is_zero() for t in range(n) if t not in down)

    def test_iota_der_is_a_lie_morphism(self):
        triple = IndexTriple((1, 3, 4), 5)
        d = tau_generator(3, 1, 2)
        e = tau_generator(3, 1, 3)
        assert iota_der(triple, der_bracket(d, e), 5) == der_bracket(
            iota_der(triple, d, 5), iota_der(triple, e, 5)
        )


class TestIndependence:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 4), (5, 10), (8, 56), (9, 84)])
    def test_certificate(self, n, count):
        cert = independence_certificate(n)
        assert cert.count == count
        assert cert.verified
        assert cert.nonzero_ok and cert.tau_kills_ok and cert.grid_ok

    def test_range_guard(self):
        # below 3 there is no triple, and the grid would pass vacuously;
        # n = 10 is refused by the symbol labels, which stop at 9, and a
        # large n is refused before its binom(n, 3) triples are listed
        with pytest.raises(ValueError, match="n = 2"):
            independence_certificate(2)
        for n in (10, 10**6):
            with pytest.raises(ValueError, match="n <= 9"):
                independence_certificate(n)

    def test_letter_maps_are_built_once_per_triple(self):
        # 10 triples of {1..5}: pi_sym runs 100 times over the grid and
        # iota_sym 10 times, plus once along (1, 2, 3) in rank 3 for embed_abc
        from mccool import stabilization

        stabilization._pi_images.cache_clear()
        stabilization._iota_images.cache_clear()
        assert independence_certificate(5).verified
        pi, iota = stabilization._pi_images.cache_info(), stabilization._iota_images.cache_info()
        assert (pi.misses, pi.hits) == (10, 90)
        assert (iota.misses, iota.hits) == (11, 0)
