import pytest

from conftest import random_lie_element
from mccool.derivations import Derivation
from mccool.derivations import apply as der_apply
from mccool.exactla import SparseMat, intersect_columnspaces, rank
from mccool.freelie import LieElement, abc_alphabet, coordinates, lie_bracket, x_alphabet
from mccool.johnson import kernel_report, tau_generator
from mccool.psigma3 import (
    SDElement,
    _sd_basis,
    _sd_tau_arrays,
    c_alphabet,
    intersection_kappa,
    sd_bracket,
    sd_rank,
    sd_s3_action,
    sd_tau,
    sd_tau_kernel,
)
from mccool.symmetry import S3_12, S3_123, S3_132, S3_23, S3_ALL, act_on_derivation
from mccool.words import lyndon_index, lyndon_tuples, witt_dimension
from oracles import _rank_bareiss


def c_gens():
    c = c_alphabet()
    return [LieElement.generator(c, f"C{i}") for i in (1, 2, 3)]


def abc_gens():
    a = abc_alphabet()
    return [LieElement.generator(a, lab) for lab in "abc"]


def random_sd(rng, degree, terms=2):
    h = random_lie_element(rng, c_alphabet(), degree, terms=terms, spread=2)
    g = random_lie_element(rng, abc_alphabet(), degree, terms=terms, spread=2)
    return SDElement(h, g)


class TestSDBracket:
    def test_inner_part_is_a_subalgebra(self):
        c1, c2, _ = c_gens()
        r = sd_bracket(SDElement.from_h(c1), SDElement.from_h(c2))
        assert r.gpart.is_zero()
        assert r.hpart == lie_bracket(c1, c2)

    def test_section_acts_through_tau(self):
        a, _, _ = abc_gens()
        c1, c2, _ = c_gens()
        r = sd_bracket(SDElement.from_g(a), SDElement.from_h(c1))
        assert r.gpart.is_zero()
        assert r.hpart == lie_bracket(c2, c1)

    def test_section_is_a_subalgebra(self):
        a, b, _ = abc_gens()
        r = sd_bracket(SDElement.from_g(a), SDElement.from_g(b))
        assert r.hpart.is_zero()
        assert r.gpart == lie_bracket(a, b)

    def test_jacobi(self, rng):
        for _ in range(40):
            du = rng.randint(1, 3)
            dv = rng.randint(1, 3)
            dw = rng.randint(1, max(1, 7 - du - dv))
            u, v, w = random_sd(rng, du), random_sd(rng, dv), random_sd(rng, dw)
            jac = (
                sd_bracket(sd_bracket(u, v), w)
                + sd_bracket(sd_bracket(v, w), u)
                + sd_bracket(sd_bracket(w, u), v)
            )
            assert jac.is_zero()

    def test_degree_mismatch_rejected(self):
        c1, _, _ = c_gens()
        with pytest.raises(ValueError):
            SDElement(c1, LieElement.zero(abc_alphabet(), 2))


class TestSDRank:
    def test_values(self):
        assert sd_rank(1) == 6
        assert sd_rank(6) == 232
        assert sd_rank(9) == 4368

    def test_formula(self):
        for k in range(1, 10):
            assert sd_rank(k) == 2 * witt_dimension(3, k)


class TestSDTau:
    def test_inner_generator(self):
        _, _, c3 = c_gens()
        assert sd_tau(SDElement.from_h(c3)) == tau_generator(3, 1, 3) + tau_generator(3, 2, 3)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_zero_element_gives_the_zero_derivation(self, k):
        zero = SDElement(LieElement.zero(c_alphabet(), k), LieElement.zero(abc_alphabet(), k))
        assert sd_tau(zero) == Derivation.zero(x_alphabet(3), k)

    def test_is_a_lie_morphism(self, rng):
        from mccool.derivations import der_bracket

        for _ in range(30):
            du = rng.randint(1, 3)
            dv = rng.randint(1, max(1, 6 - du))
            u, v = random_sd(rng, du), random_sd(rng, dv)
            assert sd_tau(sd_bracket(u, v)) == der_bracket(sd_tau(u), sd_tau(v))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_kernel_lives_in_the_section(self, k):
        ker = sd_tau_kernel(k)
        assert len(ker) == kernel_report(k).kernel_dim
        for u in ker:
            assert u.hpart.is_zero()
            assert sd_tau(u).is_zero()

    @pytest.mark.parametrize("k", range(1, 10))
    def test_injective_on_inner_part(self, k):
        # the matrix of ad on the degree-k inner part has full column rank
        idx = lyndon_index(3, k + 1)
        wd = len(idx)
        cols = []
        from mccool.derivations import inner_derivation

        for w in lyndon_tuples(3, k):
            h = LieElement(x_alphabet(3), k, {w: 1})
            d = inner_derivation(h)
            col = []
            for i in range(3):
                for ww, c in d.images[i].coeffs.items():
                    col.append((i * wd + idx[ww], c))
            cols.append(sorted(col))
        m = SparseMat.from_columns(cols, 3 * wd)
        assert (rank(m) if k > 6 else _rank_bareiss(m)) == witt_dimension(3, k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_stacked_matrix_is_the_per_word_route(self, k):
        # the ad columns, read from the bracket table of degree k + 1, beside
        # tau_arrays(k) are the columns of sd_tau on the basis, evaluated
        # word by word through inner_derivation and tau_evaluate; once the
        # tau arrays and the table exist, reading them fills no _bw entry
        from mccool import freelie
        from mccool.johnson import _abc_tau_map, _bracket_table

        _abc_tau_map().tau_arrays(k)
        _bracket_table(3, k + 1)
        freelie._bw.cache_clear()
        arrays = _sd_tau_arrays(k)
        assert freelie._bw.cache_info().currsize == 0
        assert arrays.nrows == 3 * witt_dimension(3, k + 1)
        assert list(arrays) == [sd_tau(b).column() for b in _sd_basis(k)]

    def test_corrupted_basis_vector_is_refused(self, monkeypatch):
        # negative control: every saturated basis is moved off the kernel
        # by one unit before the block's one product with the stacked
        # matrix, which must refuse it; the corruption is never returned
        from mccool import exactla

        saturate = exactla._saturate_rows
        corrupted = []

        def corrupt(rows):
            basis = [list(v) for v in saturate(rows)]
            if basis:
                basis[0][0] += 1
                corrupted.append(basis)
            return [tuple(v) for v in basis]

        monkeypatch.setattr(exactla, "_saturate_rows", corrupt)
        with pytest.raises(RuntimeError, match="modular kernel failed to certify"):
            sd_tau_kernel.__wrapped__(6)
        assert corrupted

    def test_results_recompute_equal_after_clear_caches(self, rng):
        import mccool

        pairs = [(random_sd(rng, rng.randint(1, 3)), random_sd(rng, rng.randint(1, 4))) for _ in range(20)]

        def results():
            return [sd_bracket(u, v) for u, v in pairs], [sd_tau_kernel(k) for k in range(1, 8)]

        before = results()
        mccool.clear_caches()
        assert not sd_tau_kernel.cache_info().currsize
        after = results()
        assert after[1][6] is not before[1][6]
        assert after == before

    def test_image_intersection_trivial(self):
        # tau(h) and tau(g) intersect trivially in low degrees: the
        # combined kernel has no mixed vectors (hpart always zero)
        for k in range(1, 7):
            for u in sd_tau_kernel(k):
                assert u.hpart.is_zero() and not u.gpart.is_zero()

    @pytest.mark.parametrize("k", range(1, 5))
    def test_image_intersection_by_subspace_computation(self, k):
        # second route: literal intersection of the two image spans
        from mccool.exactla import intersect_columnspaces
        from mccool.derivations import inner_derivation
        from mccool.johnson import tau_evaluate as tau

        idx = lyndon_index(3, k + 1)
        wd = len(idx)

        def column(d):
            col = []
            for i in range(3):
                for ww, c in d.images[i].coeffs.items():
                    col.append((i * wd + idx[ww], c))
            return sorted(col)

        h_cols = [
            column(inner_derivation(LieElement(x_alphabet(3), k, {w: 1})))
            for w in lyndon_tuples(3, k)
        ]
        g_cols = [
            column(tau(LieElement(abc_alphabet(), k, {w: 1})))
            for w in lyndon_tuples(3, k)
        ]
        inter = intersect_columnspaces(
            [
                SparseMat.from_columns(h_cols, 3 * wd),
                SparseMat.from_columns(g_cols, 3 * wd),
            ]
        )
        assert inter.cols == 0


class TestS3ActionOnSD:
    def test_mixing_examples(self):
        a, b, c = abc_gens()
        c1, _, c3 = c_gens()
        r = sd_s3_action(S3_12, SDElement.from_g(c))
        assert r.hpart == c3 and r.gpart == -c
        r = sd_s3_action(S3_23, SDElement.from_g(b))
        assert r.hpart == c1 and r.gpart == -b

    def test_three_cycle_has_order_three(self, rng):
        for _ in range(20):
            u = random_sd(rng, rng.randint(1, 4))
            r = u
            for _ in range(3):
                r = sd_s3_action(S3_123, r)
            assert (r - u).is_zero()

    def test_preserves_bracket(self, rng):
        for _ in range(25):
            s = rng.choice(S3_ALL)
            du, dv = rng.randint(1, 3), rng.randint(1, 2)
            u, v = random_sd(rng, du), random_sd(rng, dv)
            lhs = sd_s3_action(s, sd_bracket(u, v))
            rhs = sd_bracket(sd_s3_action(s, u), sd_s3_action(s, v))
            assert (lhs - rhs).is_zero()

    def test_commutes_with_sd_tau_up_to_der_action(self, rng):
        for _ in range(15):
            s = rng.choice(S3_ALL)
            u = random_sd(rng, rng.randint(1, 4))
            assert sd_tau(sd_s3_action(s, u)) == act_on_derivation(s, sd_tau(u))


class TestIntersection:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_kernel_dimension(self, k):
        assert intersection_kappa(k) == kernel_report(k).kernel_dim

    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_generic_intersection(self, k):
        """The kernel of the stacked h-parts against the generic route: the
        column spaces of g, c.g and c^2.g in (h, g) coordinates, built from
        sd_s3_action and intersected by intersect_columnspaces."""
        w = witt_dimension(3, k)

        def translates(sigma):
            cols = []
            for word in lyndon_tuples(3, k):
                g = SDElement.from_g(LieElement(abc_alphabet(), k, {word: 1}))
                moved = sd_s3_action(sigma, g)
                cols.append(coordinates(moved.hpart) + coordinates(moved.gpart, w))
            return SparseMat.from_columns(cols, 2 * w)

        g = SparseMat(2 * w, w, {(w + i, i): 1 for i in range(w)})
        inter = intersect_columnspaces([g, translates(S3_123), translates(S3_132)])
        assert all(i >= w for i, _ in inter.entries)  # the intersection lies in g
        assert intersection_kappa(k) == inter.cols
