import hashlib
import itertools
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mccool.exactla import (
    CertificateError,
    SparseMat,
    hnf_rows,
    intersect_columnspaces,
    kernel_lattice,
    rank,
    read_matrix_text,
    smith_normal_form,
    write_matrix_text,
)
from mccool.exactla import (
    _append,
    _ColumnArrays,
    _column_blocks,
    _crt_pair,
    _exact_array,
    _gather,
    _indptr,
    _invariant_factors,
    _PRIMES,
    _rat_reconstruct,
    _reconstruct_candidates,
    _saturate_rows,
    _smith_diagonal,
)
from oracles import _kernel_exact, _rank_bareiss


def is_prime_by_trial_division(m: int) -> bool:
    """Independent of the sieve behind _PRIMES."""
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def dense_vector(vec):
    """The (col_index, coeffs) pair that _ColumnArrays.kills takes for a
    dense vector, zeros included."""
    return range(len(vec)), vec


def frac_rank(dense):
    """Independent oracle: plain Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in dense]
    if not a:
        return 0
    r = 0
    for j in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][j]:
                f = a[i][j] / a[r][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


small_matrices = st.integers(1, 7).flatmap(
    lambda nr: st.integers(1, 7).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


class TestEntries:
    # an inexact entry would be solved silently as some other matrix (1.5
    # as 1, "2" as 2), so construction refuses it and names its position
    @pytest.mark.parametrize(
        "dense, position, kind",
        [
            ([[1.5, 1]], "(0,0)", "float"),
            ([[0, 0], [0, 0.5]], "(1,1)", "float"),
            ([[1, np.float64(2)]], "(0,1)", "numpy.float64"),
            ([["2"]], "(0,0)", "str"),
            ([[1, True]], "(0,1)", "bool"),
            ([[np.bool_(True)]], "(0,0)", "numpy.bool"),
            ([[None, 1]], "(0,0)", "NoneType"),
            ([[0.0]], "(0,0)", "float"),
        ],
    )
    def test_inexact_entry_is_refused(self, dense, position, kind):
        message = f"entry {position} must be int or Fraction, got <class '{kind}'>"
        with pytest.raises(TypeError, match=re.escape(message)):
            SparseMat.from_dense(dense)

    @pytest.mark.parametrize("three", [3, np.int64(3), np.int8(3), np.uint16(3)])
    def test_integers_are_stored_as_python_ints(self, three):
        m = SparseMat.from_dense([[three, 2]])
        assert [type(v) for v in m.entries.values()] == [int, int]
        assert kernel_lattice(m) == [(2, -3)]

    def test_fractions_are_stored_as_they_are(self):
        m = SparseMat.from_columns([[(0, Fraction(3, 2))], [(0, 1)]], 1)
        assert m.entries == {(0, 0): Fraction(3, 2), (0, 1): 1}
        assert kernel_lattice(m) == [(2, -3)]

    @pytest.mark.parametrize(
        "entries, key",
        [
            ({(0.5, 0): 1, (1, 1): 1}, (0.5, 0)),
            ({(True, 0): 1}, (True, 0)),
            ({(0, np.bool_(False)): 1}, (0, np.bool_(False))),
            ({(0, 1, 2): 1}, (0, 1, 2)),
            ({(1,): 1}, (1,)),
            ({1: 1}, 1),
            ({"01": 1}, "01"),
            ({(0, "1"): 1}, (0, "1")),
        ],
    )
    def test_key_that_is_not_a_pair_of_ints_is_refused(self, entries, key):
        with pytest.raises(TypeError, match=re.escape(f"entry key {key!r} must be a pair of ints")):
            SparseMat(2, 2, entries)

    @pytest.mark.parametrize("rows, cols", [(2.0, 2), (2, 2.0), (True, 2), (2, None), ("2", 2)])
    def test_dimensions_that_are_not_ints_are_refused(self, rows, cols):
        message = f"dimensions {(rows, cols)!r} must be a pair of ints"
        with pytest.raises(TypeError, match=re.escape(message)):
            SparseMat(rows, cols)

    def test_numpy_indices_are_stored_as_python_ints(self):
        m = SparseMat(np.int64(2), np.uint8(2), {(np.int32(1), np.int64(0)): 3, (0, 1): 2})
        assert (m.rows, m.cols) == (2, 2) and type(m.rows) is type(m.cols) is int
        assert m.entries == {(1, 0): 3, (0, 1): 2}
        assert all(type(x) is int for key in m.entries for x in key)


class TestPrimePool:
    def test_pool_is_the_96_largest_primes_below_2_23(self):
        # pinned by digest: the first and last entries and the sha256 of the
        # tuple's repr; every kernel certificate reads the primes in order
        digest = hashlib.sha256(repr(_PRIMES).encode()).hexdigest()
        assert len(_PRIMES) == 96
        assert (_PRIMES[0], _PRIMES[-1]) == (8_388_593, 8_387_033)
        assert digest == "a2ba8fe7dcd09357fc4d84cad2b5a407fd28ec5ab393eee4362d58549fce5571"
        assert all(a > b for a, b in zip(_PRIMES, _PRIMES[1:])) and _PRIMES[0] < 1 << 23
        assert all(is_prime_by_trial_division(p) for p in _PRIMES)
        # and no prime between them, or above them below 2^23, is left out
        skipped = range(_PRIMES[-1], 1 << 23)
        assert sum(map(is_prime_by_trial_division, skipped)) == 96


class TestRank:
    def test_identity(self):
        assert rank(SparseMat.identity(3)) == 3

    def test_zero(self):
        assert rank(SparseMat(4, 5)) == 0

    @settings(max_examples=200, deadline=None)
    @given(small_matrices)
    def test_rank_methods_agree_with_oracle(self, dense):
        m = SparseMat.from_dense(dense)
        expected = frac_rank(dense)
        assert _rank_bareiss(m) == expected
        assert rank(m) == expected

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_rank_equals_transpose_rank(self, dense):
        m = SparseMat.from_dense(dense)
        assert _rank_bareiss(m) == _rank_bareiss(SparseMat.from_dense(zip(*dense)))

    def test_rational_entries(self):
        m = SparseMat(2, 2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
        assert rank(m) == _rank_bareiss(m) == 1


class TestKernel:
    def test_examples(self):
        assert kernel_lattice(SparseMat.from_dense([[2]])) == []
        assert kernel_lattice(SparseMat.from_dense([[1, 1]])) == [(1, -1)]
        assert kernel_lattice(SparseMat.from_dense([[2, 4]])) == [(2, -1)]

    def test_zero_matrix_kernel_is_identity(self):
        ker = kernel_lattice(SparseMat(3, 4))
        assert ker == [tuple(int(i == j) for j in range(4)) for i in range(4)]

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_exact_and_modular_agree(self, dense):
        m = SparseMat.from_dense(dense)
        assert _kernel_exact(m.columns(), m.rows) == kernel_lattice(m)

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_column_arrays_are_read_as_they_are(self, dense):
        # the product hands kernel_lattice and rank integer column arrays;
        # they give what the SparseMat of the same columns gives
        m = SparseMat.from_dense(dense)
        arrays = _ColumnArrays(m.columns(), m.rows)
        assert kernel_lattice(arrays) == kernel_lattice(m)
        assert rank(arrays) == rank(m) == frac_rank(dense)

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_kernel_vectors_annihilate_exactly(self, dense):
        m = SparseMat.from_dense(dense)
        ker = kernel_lattice(m)
        assert len(ker) == m.cols - frac_rank(dense)
        for v in ker:
            for i in range(m.rows):
                assert sum(dense[i][j] * v[j] for j in range(m.cols)) == 0

    def test_saturation_planted(self):
        rng = random.Random(42)
        c = [[rng.randint(-2, 2) for _ in range(10)] for _ in range(30)]
        d = [[rng.randint(-2, 2) for _ in range(40)] for _ in range(10)]
        prod = [
            [sum(c[i][t] * d[t][j] for t in range(10)) for j in range(40)]
            for i in range(30)
        ]
        m = SparseMat.from_dense(prod)
        ker = kernel_lattice(m)
        assert len(ker) == 40 - frac_rank(prod)
        assert _ColumnArrays(m.columns(), 30).kills(map(dense_vector, ker))
        assert [tuple(v) for v in _kernel_exact(m.columns(), m.rows)] == [tuple(v) for v in ker]

    @staticmethod
    def _rank_mod_p(rows, p):
        a = [[x % p for x in row] for row in rows]
        r = 0
        for j in range(len(a[0])):
            piv = next((i for i in range(r, len(a)) if a[i][j]), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = pow(a[r][j], p - 2, p)
            a[r] = [(x * inv) % p for x in a[r]]
            for i in range(len(a)):
                if i != r and a[i][j]:
                    f = a[i][j]
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
            r += 1
        return r

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_saturation_no_fractional_combination(self, dense):
        # saturation spot check: (1/p) * (nontrivial integer combination)
        # of the basis never lands back in Z^n, for p = 2, 3; equivalently
        # the basis stays full rank mod p
        m = SparseMat.from_dense(dense)
        ker = [list(v) for v in kernel_lattice(m)]
        if not ker:
            return
        for p in (2, 3):
            assert self._rank_mod_p(ker, p) == len(ker)
        for row in ker:
            assert math.gcd(*[abs(x) for x in row] + [0]) in (0, 1)

    @staticmethod
    def _count_primes(monkeypatch):
        # _kernel_block eliminates the block once per prime it takes
        from mccool import exactla

        used = []
        solve = exactla._nullspace_mod

        def counted(a, p):
            used.append(p)
            return solve(a, p)

        monkeypatch.setattr(exactla, "_nullspace_mod", counted)
        return used

    def test_one_prime_certifies_a_small_kernel(self, monkeypatch):
        used = self._count_primes(monkeypatch)
        m = SparseMat.from_dense([[1, 2, 0], [0, 3, -3]])
        assert kernel_lattice(m) == [(2, -1, -1)]
        assert used == [_PRIMES[0]]

    def test_second_prime_when_one_does_not_reconstruct(self, monkeypatch):
        # the kernel vector (3000, -1) has 3000 > sqrt(p/2) for every pool
        # prime p, so one residue cannot be reconstructed and a second
        # prime is taken
        assert all(3000 * 3000 > p // 2 for p in _PRIMES)
        used = self._count_primes(monkeypatch)
        m = SparseMat.from_dense([[1, 3000]])
        expected = [tuple(v) for v in _kernel_exact(m.columns(), m.rows)]
        assert expected == [(3000, -1)]
        assert kernel_lattice(m) == expected
        assert used == list(_PRIMES[:2])

    def test_stops_at_the_first_prime_that_certifies(self, monkeypatch):
        # the kernel vector (big, 1) is lifted from (1, 1/big) mod the
        # primes, which reconstructs once big <= sqrt(m/2) for their
        # product m: after 3, 5 and 6 primes for big = 2^30, 2^51, 2^61,
        # each tried as soon as it is taken
        used = self._count_primes(monkeypatch)
        for big, calls in [(1 << 30, 3), (1 << 51, 5), (1 << 61, 6)]:
            used.clear()
            assert kernel_lattice(SparseMat.from_dense([[1, -big]])) == [(big, 1)]
            assert len(used) == calls
            assert used == list(_PRIMES[:calls])
            assert math.isqrt(math.prod(_PRIMES[: calls - 1]) // 2) < big
            assert math.isqrt(math.prod(_PRIMES[:calls]) // 2) >= big

    def test_deterministic(self):
        rng = random.Random(1)
        dense = [[rng.randint(-4, 4) for _ in range(12)] for _ in range(8)]
        m1 = SparseMat.from_dense(dense)
        m2 = SparseMat.from_dense(dense)
        assert kernel_lattice(m1) == kernel_lattice(m2)
        assert rank(m1) == rank(m2)


def reconstruct_reference(bases, primes):
    """_reconstruct_candidates with CRT and rational reconstruction run
    on every coordinate, zero or repeated."""
    out = []
    for k in range(bases[0].shape[0]):
        fracs = []
        for j in range(bases[0].shape[1]):
            x, m = int(bases[0][k, j]), primes[0]
            for t in range(1, len(primes)):
                x, m = _crt_pair(x, m, int(bases[t][k, j]), primes[t])
            rec = _rat_reconstruct(x, m)
            if rec is None:
                return None
            fracs.append(Fraction(*rec))
        den = math.lcm(*(f.denominator for f in fracs))
        vec = [int(f * den) for f in fracs]
        content = math.gcd(*vec)
        out.append([x // content for x in vec] if content > 1 else vec)
    return out


class TestReconstruction:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(st.fractions(-50, 50, max_denominator=9), min_size=n, max_size=n),
                    st.integers(0, n - 1),
                ),
                min_size=1,
                max_size=3,
            )
        ),
    )
    def test_candidates_match_per_coordinate_route(self, nprimes, planted):
        # residues of planted rational vectors (zeros and repeated
        # coordinates included) mod nprimes primes, each exactly 1 at one
        # free column, as every row of _nullspace_mod is
        rows = [row[:f] + [Fraction(1)] + row[f + 1 :] for row, f in planted]
        primes = list(_PRIMES[:nprimes])
        bases = [
            np.array([[f.numerator * pow(f.denominator, -1, p) % p for f in row] for row in rows],
                     dtype=np.int64)
            for p in primes
        ]
        got = _reconstruct_candidates(bases, primes)
        assert got == reconstruct_reference(bases, primes)
        # such rows lift to primitive vectors, with no content to divide out
        assert all(math.gcd(*vec) == 1 for vec in got)

    def test_tuples_equal_mod_one_prime_are_told_apart(self):
        primes = list(_PRIMES[:3])
        vec = [1, 1 + primes[0], 0, 1]
        bases = [np.array([[x % p for x in vec]], dtype=np.int64) for p in primes]
        assert _reconstruct_candidates(bases, primes) == [vec]

    def test_unreconstructible_residue_gives_none(self):
        p = _PRIMES[0]
        bases = [np.array([[0, 1, p - 3000]], dtype=np.int64)]
        assert _reconstruct_candidates(bases, [p]) is None
        assert reconstruct_reference(bases, [p]) is None


blocks_strategy = st.lists(
    st.integers(1, 4).flatmap(
        lambda nr: st.integers(1, 4).flatmap(
            lambda nc: st.lists(
                st.lists(st.integers(-4, 4), min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            )
        )
    ),
    min_size=2,
    max_size=4,
)

# the rows each column touches, for up to 12 columns over up to 12 rows
incidence_patterns = st.integers(1, 12).flatmap(
    lambda nrows: st.tuples(
        st.just(nrows),
        st.lists(st.lists(st.integers(0, nrows - 1), max_size=3), max_size=12),
    )
)


class TestBlockSplit:
    @staticmethod
    def _build(data):
        """Random blocks on the diagonal plus zero columns, rows and
        columns shuffled; also returns each block's column indices."""
        blocks = data.draw(blocks_strategy)
        nrows = sum(len(b) for b in blocks)
        ncols = sum(len(b[0]) for b in blocks) + data.draw(st.integers(0, 2))
        row_perm = data.draw(st.permutations(range(nrows)))
        col_perm = data.draw(st.permutations(range(ncols)))
        dense = [[0] * ncols for _ in range(nrows)]
        owner = []
        r0 = c0 = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, v in enumerate(row):
                    dense[row_perm[r0 + i]][col_perm[c0 + j]] = v
            owner.append([col_perm[c0 + j] for j in range(len(b[0]))])
            r0 += len(b)
            c0 += len(b[0])
        return dense, owner

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_split_kernel_equals_exact_route(self, data):
        dense, owner = self._build(data)
        m = SparseMat.from_dense(dense)
        components = [set(c) for c in _column_blocks(_ColumnArrays(m.columns(), m.rows))]
        # every component lies inside one planted block (or the zero columns)
        planted = [set(o) for o in owner]
        for comp in components:
            if all(any(dense[i][j] for i in range(m.rows)) for j in comp):
                assert any(comp <= b for b in planted)
        assert kernel_lattice(m) == _kernel_exact(m.columns(), m.rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shared_row_merges_two_blocks(self, data):
        dense, owner = self._build(data)
        ja = data.draw(st.sampled_from(owner[0]))
        jb = data.draw(st.sampled_from(owner[1]))
        shared = [0] * len(dense[0])
        shared[ja], shared[jb] = data.draw(st.integers(1, 3)), data.draw(st.integers(-3, -1))
        dense.insert(data.draw(st.integers(0, len(dense))), shared)
        m = SparseMat.from_dense(dense)
        components = _column_blocks(_ColumnArrays(m.columns(), m.rows))
        assert any(ja in comp and jb in comp for comp in components)
        assert kernel_lattice(m) == _kernel_exact(m.columns(), m.rows)

    @settings(max_examples=100, deadline=None)
    @given(incidence_patterns)
    def test_blocks_match_plain_union_find(self, shaped):
        nrows, shape = shaped
        columns = [[(i, 1) for i in sorted(set(col))] for col in shape]
        blocks = _column_blocks(_ColumnArrays(columns, nrows))
        assert all((b == np.sort(b)).all() for b in blocks)
        assert sorted(b.tolist() for b in blocks) == sorted(reference_blocks(columns, nrows))

    def test_blocks_are_sized_by_entries_not_rows(self):
        # two entries in a row near 2^61 of 2^62 rows: no array of the
        # row count may be allocated
        m = SparseMat(1 << 62, 2, {(1 << 61, 0): 3, (1 << 61, 1): -3})
        assert kernel_lattice(m) == [(1, 1)]
        assert rank(m) == 1
        assert smith_normal_form(m).divisors == (3,)

    def test_long_chain_is_one_block(self):
        # column j shares row j with column j - 1: one component whose
        # labels must travel the whole chain, shuffled so that no ordering
        # of rows or columns shortens the path
        rng = random.Random(3)
        n = 500
        row_perm, col_perm = list(range(n + 1)), list(range(n))
        rng.shuffle(row_perm)
        rng.shuffle(col_perm)
        columns = [None] * n
        for j in range(n):
            columns[col_perm[j]] = sorted([(row_perm[j], 1), (row_perm[j + 1], -1)])
        blocks = _column_blocks(_ColumnArrays(columns, n + 1))
        assert [b.tolist() for b in blocks] == [list(range(n))]


class TestModularRouteAlone:
    def test_runtime_error_in_modular_route_is_not_hidden(self, monkeypatch):
        from mccool import exactla

        def broken(*args):
            raise RuntimeError("int64 elimination bound fails")

        monkeypatch.setattr(exactla, "_nullspace_mod", broken)
        with pytest.raises(RuntimeError, match="elimination bound fails"):
            kernel_lattice(SparseMat.from_dense([[1, 1]]))

    def test_unlucky_first_prime_is_not_kept_for_its_rows(self):
        # mod the first prime row 0 vanishes, so row 1 alone is its pivot
        # row; the kernel (1, 0) of that row reconstructs but leaves the
        # kernel of row 0, and only a later prime that eliminates both
        # rows again can certify the empty kernel
        m = SparseMat.from_dense([[_PRIMES[0], 0], [0, 1]])
        assert kernel_lattice(m) == []
        assert rank(m) == 2

    def test_large_entry_block_certifies_in_the_modular_route(self, monkeypatch):
        # the candidates (2, 0, -big) and (0, 2, -3) span an index-2
        # sublattice, one row with entries beyond int64: a saturation that
        # once gave up and fell back to the exact route now ends in the
        # modular route with the exact route's basis.  Saturation runs
        # before the block's product, so the four candidate sets that the
        # product refuses are saturated too; the last input is the one kept
        from mccool import exactla

        big = (1 << 70) + 1
        m = SparseMat.from_dense([[big, 3, 2]])
        expected = _kernel_exact(m.columns(), m.rows)
        saturate = exactla._saturate_rows
        inputs = []

        def spy(rows):
            inputs.append(hnf_rows(rows))
            return saturate(rows)

        monkeypatch.setattr(exactla, "_saturate_rows", spy)
        assert kernel_lattice(m) == expected == [(1, 1, -(big + 3) // 2), (0, 2, -3)]
        assert len(inputs) == 5
        assert [max(map(abs, r)) >= 1 << 63 for r in inputs[-1]] == [True, False]
        assert inputs[-1] != expected  # saturation was needed

    def test_each_route_names_its_failure(self, monkeypatch):
        # one 23-bit prime cannot reconstruct the kernel vector (1, 2^61)
        import oracles
        from mccool import exactla

        monkeypatch.setattr(exactla, "_PRIMES", _PRIMES[:1])
        with pytest.raises(RuntimeError) as info:
            kernel_lattice(SparseMat.from_dense([[1 << 61, -1]]))
        msg = str(info.value)
        assert "modular kernel" in msg
        assert "1x2 block" in msg
        assert "no prime set certified within the pool of 1 primes" in msg
        monkeypatch.setattr(oracles, "_EXACT_KERNEL_BITS", 32)
        with pytest.raises(RuntimeError, match="exact kernel entries exceed the 32-bit bound"):
            _kernel_exact([[(0, 1 << 61)], [(0, -1)]], 1)

    def test_oracles_are_not_in_the_product(self):
        # the two routes with no primes live in tests/oracles.py, so no
        # product path can reach them
        from mccool import exactla

        for name in ("_kernel_exact", "_EXACT_KERNEL_BITS", "_rank_bareiss"):
            assert not hasattr(exactla, name)

    def test_no_product_solve_converts_a_sparse_mat(self, monkeypatch):
        # every product path hands the solver column arrays, so none
        # clears the fractions of a SparseMat on its way in
        import mccool
        from mccool import exactla
        from mccool.derivations import tangential_witness
        from mccool.johnson import bracket_map_rank, elementary_divisors, kernel_report, tau_generator
        from mccool.psigma3 import intersection_kappa, sd_tau_kernel

        def solves():
            return (
                [kernel_report(k).kernel_basis for k in range(1, 9)],
                [bracket_map_rank(k) for k in range(5, 8)],
                elementary_divisors(6),
                [sd_tau_kernel(k) for k in range(1, 7)],
                [intersection_kappa(k) for k in range(1, 7)],
                tangential_witness(tau_generator(3, 1, 2)),
            )

        def refuse(*args):
            raise AssertionError("a product solve converted a SparseMat")

        usual = solves()
        mccool.clear_caches()
        monkeypatch.setattr(exactla, "_cleared", refuse)
        try:
            assert solves() == usual
        finally:
            mccool.clear_caches()
        bases, reports, _, sd_kernels, kappas, _ = usual
        assert [len(b) for b in bases] == [0, 0, 0, 0, 0, 1, 6, 24]
        assert [r.rank for r in reports] == [0, 3, 18]
        assert [len(v) for v in sd_kernels] == kappas == [0, 0, 0, 0, 0, 1]


def reference_blocks(columns, nrows):
    """Independent oracle: connected components by a plain union-find."""
    parent = list(range(nrows))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for col in columns:
        for i, _ in col[1:]:
            parent[find(i)] = find(col[0][0])
    blocks: dict = {}
    for j, col in enumerate(columns):
        blocks.setdefault(find(col[0][0]) if col else -1, []).append(j)
    return list(blocks.values())


def reference_residual(columns, nrows, vec):
    """Independent oracle: M @ vec in plain Python ints."""
    out = [0] * nrows
    for col, x in zip(columns, vec):
        for i, a in col:
            out[i] += a * x
    return out


sparse_columns = st.integers(1, 6).flatmap(
    lambda nrows: st.tuples(
        st.just(nrows),
        st.lists(
            st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(-3, 3)), max_size=4),
            min_size=1,
            max_size=6,
        ),
    )
)


class TestSaturationGuard:
    def test_planted_lattice_is_saturated(self):
        # twice the kernel vector (1, 5) of the row (5, -1)
        assert _saturate_rows([(2, 10)]) == [(1, 5)]

    @pytest.mark.parametrize("big", [1 << 61, 1 << 70])
    def test_large_planted_lattice_is_too_hard(self, big):
        # twice (1, big): the entries are beyond int64, the Hermite route
        # has no such range
        assert _saturate_rows([(2, 2 * big)]) == [(1, big)]

    def test_prime_beyond_the_int64_elimination_is_too_hard(self):
        # q^2 + q >= 2^63: an elimination mod q would leave int64, and the
        # Hermite route takes no residues
        q = 3_037_000_507
        assert is_prime_by_trial_division(q) and q * q + q >= 1 << 63
        assert _saturate_rows([(q, q)]) == [(1, 1)]

    @staticmethod
    def _scaled_kernel(dense, diagonal, below):
        """The kernel K of dense from _kernel_exact, and T @ K for the lower
        triangular T with the given diagonal and entries below it."""
        m = SparseMat.from_dense(dense)
        kernel = [list(v) for v in _kernel_exact(m.columns(), m.rows)]
        d = len(kernel)
        t = [below[i] + [diagonal[i]] + [0] * (d - i - 1) for i in range(d)]
        scaled = [
            [sum(t[i][s] * kernel[s][c] for s in range(d)) for c in range(m.cols)]
            for i in range(d)
        ]
        return kernel, scaled

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_saturates_a_scaled_kernel(self, data):
        nrows = data.draw(st.integers(1, 4))
        ncols = data.draw(st.integers(nrows + 1, nrows + 5))
        dense = data.draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        )
        d = ncols - frac_rank(dense)
        diagonal = data.draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=d, max_size=d))
        below = [[data.draw(st.integers(-4, 4)) for _ in range(i)] for i in range(d)]
        kernel, scaled = self._scaled_kernel(dense, diagonal, below)
        assert _saturate_rows(hnf_rows(scaled)) == hnf_rows(kernel)

    def test_repairs_several_rows_and_primes(self):
        dense = [[1, 2, -1, 0, 3, 1], [0, 1, 1, -2, 0, 1]]
        below = [[], [0], [0, -2], [3, 1, 0]]
        kernel, scaled = self._scaled_kernel(dense, [2, 2, 3, 5], below)
        assert _saturate_rows(hnf_rows(scaled)) == hnf_rows(kernel)

    def test_large_kernel_entries_take_the_modular_route(self):
        m = SparseMat.from_dense([[1 << 61, -1]])
        assert kernel_lattice(m) == [(1, 1 << 61)]

    def test_row_outside_the_kernel_is_refused(self, monkeypatch):
        # the first reconstruction gives (2, 2), not a kernel vector of the
        # row (5, -1): saturated to (1, 1), it is refused by the block's one
        # product, and the next prime eliminates the whole block again
        from mccool import exactla

        arrays = _ColumnArrays([[(0, 5)], [(0, -1)]], 1)
        reconstruct, solve, kills = (
            exactla._reconstruct_candidates,
            exactla._nullspace_mod,
            _ColumnArrays.kills,
        )
        shapes, products, lifts = [], [], []

        def counted(a, p):
            shapes.append(a.shape)
            return solve(a, p)

        def planted(bases, primes):
            lifts.append(len(primes))
            return [[2, 2]] if len(lifts) == 1 else reconstruct(bases, primes)

        def recorded(self, vectors):
            vectors = list(vectors)
            killed = kills(self, vectors)
            dense = []
            for cols, coeffs in vectors:
                row = [0] * self.ncols
                for j, x in zip(cols, coeffs):
                    row[j] = x
                dense.append(tuple(row))
            products.append((dense, killed))
            return killed

        monkeypatch.setattr(exactla, "_nullspace_mod", counted)
        assert exactla._kernel_block(arrays, [0, 1]) == [(1, 5)]
        assert shapes == [(1, 2)]
        shapes.clear()
        monkeypatch.setattr(exactla, "_reconstruct_candidates", planted)
        monkeypatch.setattr(_ColumnArrays, "kills", recorded)
        assert exactla._kernel_block(arrays, [0, 1]) == [(1, 5)]
        assert shapes == [(1, 2), (1, 2)]
        assert lifts == [1, 2]
        assert products == [([(1, 1)], False), ([(1, 5)], True)]

    def test_every_block_makes_one_product(self, monkeypatch):
        # kernel_report(1..9): each block's one kills call runs on the
        # basis it returns, against the degree's tau arrays themselves;
        # saturation multiplies nothing, and nothing outside the blocks
        # multiplies
        import mccool
        from mccool import exactla
        from mccool.johnson import _abc_tau_map, kernel_report

        block, saturate = exactla._kernel_block, exactla._saturate_rows
        kills = _ColumnArrays.kills
        frames, per_block, in_saturation, outside, repaired = [], [], [], [], []
        degree, matrices = [], []

        def framed(name, fn):
            def call(*args, **kwargs):
                frames.append(name)
                if name == "block":
                    per_block.append(0)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    frames.pop()
                if name == "saturate" and list(map(tuple, args[0])) != out:
                    repaired.append(out)
                return out

            return call

        def counted(self, vectors):
            if "saturate" in frames:
                in_saturation.append(self)
            elif frames:
                per_block[-1] += 1
                matrices.append((degree[-1], self))
            else:
                outside.append(self)
            return kills(self, vectors)

        mccool.clear_caches()
        monkeypatch.setattr(exactla, "_kernel_block", framed("block", block))
        monkeypatch.setattr(exactla, "_saturate_rows", framed("saturate", saturate))
        monkeypatch.setattr(_ColumnArrays, "kills", counted)
        try:
            dims = []
            for k in range(1, 10):
                degree.append(k)
                dims.append(kernel_report(k).kernel_dim)
            engine = _abc_tau_map()
            assert all(arrays is engine.tau_arrays(k) for k, arrays in matrices)
        finally:
            mccool.clear_caches()
        assert len(per_block) == 364
        assert per_block == [1] * 364
        assert len(matrices) == 364
        assert in_saturation == []
        assert outside == []
        assert dims == [0, 0, 0, 0, 0, 1, 6, 24, 92]
        assert repaired  # some blocks were saturated, and still multiplied once

    def test_block_cut_is_checked_against_the_whole_matrix(self, monkeypatch):
        # negative control: a block() that drops the last entry cuts the
        # columns (1, 1), (1, 0), (0, 0) of [[1, 1, 0], [1, 0, 2]], whose
        # kernel (0, 0, 1) the whole matrix does not kill; every prime
        # lifts it, the product refuses it every time, and the pool runs out
        from mccool import exactla

        block = _ColumnArrays.block
        cuts = []

        def dropped(self, cols):
            cut = block(self, cols)
            columns = list(cut)
            columns[-1] = columns[-1][:-1]
            cuts.append(columns)
            return _ColumnArrays(columns, cut.nrows)

        columns = [[(0, 1), (1, 1)], [(0, 1)], [(1, 2)]]
        assert kernel_lattice(_ColumnArrays(columns, 2)) == [(2, -2, -1)]
        monkeypatch.setattr(_ColumnArrays, "block", dropped)
        with pytest.raises(RuntimeError, match="modular kernel failed to certify a 2x3 block"):
            exactla.kernel_lattice(_ColumnArrays(columns, 2))
        assert cuts == [[[(0, 1), (1, 1)], [(0, 1)], []]]

    @staticmethod
    def _corrupt_column_lattice(monkeypatch, corrupt):
        """Make the first hnf_rows call of _saturate_rows, the Hermite
        basis C of V's columns, return corrupt(C)."""
        from mccool import exactla

        calls = []

        def patched(rows):
            out = hnf_rows(rows)
            calls.append(None)
            return corrupt(out) if len(calls) == 1 else out

        monkeypatch.setattr(exactla, "hnf_rows", patched)

    def test_scaled_column_lattice_is_caught(self, monkeypatch):
        # with C's first column doubled, a solution B of C^T B = V would
        # have a column lattice of covolume 1/2: no integer B has one
        _, scaled = self._scaled_kernel([[1, 2, -1]], [2, 3], [[], [1]])
        basis = hnf_rows(scaled)
        self._corrupt_column_lattice(monkeypatch, lambda c: [(2 * r[0],) + r[1:] for r in c])
        with pytest.raises(CertificateError, match="not exact"):
            _saturate_rows(basis)

    def test_column_superlattice_is_caught(self, monkeypatch):
        # the identity spans a strict superlattice of V's columns: C^T B = V
        # solves with B = V, whose columns do not span Z^d
        _, scaled = self._scaled_kernel([[1, 2, -1]], [2, 3], [[], [1]])
        basis = hnf_rows(scaled)
        self._corrupt_column_lattice(monkeypatch, lambda c: [(1, 0), (0, 1)])
        with pytest.raises(CertificateError, match="do not span"):
            _saturate_rows(basis)

    def test_exact_route_refuses_entries_beyond_its_bound(self):
        # the chain 2^80 x_i = x_(i+1) on 27 columns has the kernel vector
        # (1, 2^80, ..., 2^2080), whose last entry needs 2,081 bits
        n = 27
        entries = {(i, i): 1 << 80 for i in range(n - 1)}
        entries.update({(i, i + 1): -1 for i in range(n - 1)})
        m = SparseMat(n - 1, n, entries)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="exact kernel entries exceed the 2048-bit bound"):
            _kernel_exact(m.columns(), m.rows)
        assert time.perf_counter() - start < 1.0
        short = SparseMat(n - 2, n - 1, {(i, j): v for (i, j), v in entries.items() if i < n - 2})
        assert _kernel_exact(short.columns(), short.rows) == [tuple(1 << 80 * j for j in range(n - 1))]


# CSR rows as a list of rows, each a list of (word, value) pairs
csr_rows = st.lists(st.lists(st.tuples(st.integers(0, 20), st.integers(-9, 9)), max_size=4), max_size=8)


def csr_model(rows):
    """The CSR arrays of rows, with the indptr summed in Python."""
    indptr = np.array([0] + list(itertools.accumulate(len(row) for row in rows)), dtype=np.int64)
    words = np.array([w for row in rows for w, _ in row], dtype=np.int64)
    return indptr, words, np.array([v for row in rows for _, v in row], dtype=np.int64)


class TestCSRPrimitives:
    def test_indptr_of_no_rows(self):
        indptr = _indptr([])
        assert indptr.dtype == np.int64 and indptr.tolist() == [0]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_gather_reads_the_keyed_rows(self, data):
        # keys repeat, may be empty and may name empty rows
        rows = data.draw(csr_rows.filter(bool))
        csr = csr_model(rows)
        got = _indptr([len(row) for row in rows])
        assert got.dtype == np.int64 and got.tolist() == csr[0].tolist()
        keys = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12))
        words, vals, lengths = _gather(csr, np.array(keys, dtype=np.int64))
        assert lengths.tolist() == [len(rows[k]) for k in keys]
        assert list(zip(words.tolist(), vals.tolist())) == [e for k in keys for e in rows[k]]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(csr_rows, min_size=1, max_size=5))
    def test_appends_are_the_concatenated_rows(self, parts):
        store, starts = csr_model(parts[0]), [0]
        for part in parts[1:]:
            start, store = _append(store, csr_model(part))
            starts.append(start)
        want = csr_model([row for part in parts for row in part])
        for got_arr, want_arr in zip(store, want):
            assert got_arr.dtype == np.int64 and got_arr.tolist() == want_arr.tolist()
        # each part is read back from the row its append returned
        for start, part in zip(starts, parts):
            words, vals, lengths = _gather(store, start + np.arange(len(part)))
            assert lengths.tolist() == [len(row) for row in part]
            assert list(zip(words.tolist(), vals.tolist())) == [e for row in part for e in row]


class TestColumnArrays:
    def test_wraparound_is_rejected(self):
        # 2^32 * 2^32 = 2^64 wraps to 0 in int64; the bound must send this
        # product to Python ints, where the residual is 2^64, not 0
        with np.errstate(over="ignore"):
            assert np.int64(1 << 32) * np.int64(1 << 32) == 0
        assert not _ColumnArrays([[(0, 1 << 32)]], 1).kills([([0], [1 << 32])])
        arrays = _ColumnArrays([[(0, 1 << 32)], [(0, -1)]], 1)
        assert arrays.kills([([0, 1], [1 << 32, 1 << 64])])

    def test_row_bound_counts_the_entries_one_row_sums(self):
        # four entries 2^31 * 2^31 in one row: each product fits int64,
        # but their sum 2^64 wraps to 0, so the bound must count all four
        with np.errstate(over="ignore"):
            assert np.full(4, 1 << 62, dtype=np.int64).sum() == 0
        assert not _ColumnArrays([[(0, 1 << 31)]] * 4, 1).kills([dense_vector([1 << 31] * 4)])

    def test_tall_columns_are_bounded_per_row(self):
        # two equal 1,000-row columns of 2^14: every row sums two products
        # of 2^54, though the columns hold 2,000 entries
        column = [(i, 1 << 14) for i in range(1000)]
        arrays = _ColumnArrays([column, column], 1000)
        assert arrays.kills([([0, 1], [1 << 40, -(1 << 40)])])
        assert not arrays.kills([([0, 1], [1 << 40, 1 - (1 << 40)])])

    @pytest.mark.parametrize("shift", [0, 20, 32, 64])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_product_agrees_with_python_ints(self, shift, data):
        # entries are multiples of 2^shift, up to 2^70: shifts 0 and 20 stay
        # inside the int64 bound; at 32 every product is a multiple of 2^64,
        # so int64 wraparound would call any vector a kernel vector; at 64
        # the entries themselves need Python ints
        from mccool.exactla import _ColumnArrays

        nrows, shape = data.draw(sparse_columns)
        entry = st.integers(-63, 63).map(lambda v: v << shift)
        columns = [sorted({i: data.draw(entry) for i, _ in col}.items()) for col in shape]
        vecs = [[data.draw(entry) for _ in columns] for _ in range(2)]
        arrays = _ColumnArrays(columns, nrows)
        killed = [not any(reference_residual(columns, nrows, v)) for v in vecs]
        for vec, expected in zip(vecs, killed):
            assert arrays.kills([dense_vector(vec)]) == expected
            assert _ColumnArrays(columns, nrows).kills([dense_vector(vec)]) == expected
        assert arrays.kills(map(dense_vector, vecs)) == all(killed)
        # one more column, -M @ vec, puts (vec, 1) in the kernel exactly;
        # moving one coordinate by 1 then adds its column to the residual
        vec = vecs[0]
        residual = reference_residual(columns, nrows, vec)
        columns.append([(i, -r) for i, r in enumerate(residual) if r])
        planted = _ColumnArrays(columns, nrows)
        assert planted.kills([dense_vector(vec + [1])])
        moved = vec + [1]
        moved[data.draw(st.integers(0, len(moved) - 1))] += 1
        expected = not any(reference_residual(columns, nrows, moved))
        assert planted.kills([dense_vector(moved)]) == expected
        assert planted.kills(map(dense_vector, [vec + [1], moved])) == expected

    @settings(max_examples=60, deadline=None)
    @given(sparse_columns, st.sampled_from([8, 20, 70]))
    def test_dense_matches_python_ints(self, shaped, bits):
        # entries up to 3 * 2^8 are int16 and give an int64 matrix; up to
        # 3 * 2^20 (int64) and 3 * 2^70 (Python ints), an object matrix
        nrows, shape = shaped
        columns = [[(i, v << bits) for i, v in col] for col in shape]  # repeats add up
        arrays = _ColumnArrays(columns, nrows)
        dense = arrays.dense()
        wide = bits > 8 and any(v for col in shape for _, v in col)
        assert dense.dtype == (object if wide else np.int64)
        assert dense.shape == (nrows, len(columns))
        for i in range(nrows):
            for j, col in enumerate(columns):
                assert dense[i, j] == sum(v for r, v in col if r == i)

    @pytest.mark.parametrize(
        "scale, dtype", [(1, np.int16), (1 << 40, np.int64), (1 << 70, object)]
    )
    def test_arrays_are_their_columns(self, scale, dtype):
        columns = [[(0, 3 * scale), (2, -scale)], [], [(1, 7), (2, -(1 << 15))]]
        arrays = _ColumnArrays(columns, 3)
        assert arrays.vals.dtype == dtype
        # the same columns as CSR arrays, with values in int64 or Python ints
        vals = _exact_array([3 * scale, -scale, 7, -(1 << 15)])
        csr = _ColumnArrays.from_csr([0, 2, 2, 4], np.array([0, 2, 1, 2]), vals, 3)
        for name in ("indptr", "rows", "vals"):
            got, want = getattr(csr, name), getattr(arrays, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
        assert (csr.nrows, csr.ncols) == (arrays.nrows, arrays.ncols)
        assert len(arrays) == 3
        assert list(arrays) == columns
        assert all(type(v) is int for col in arrays for _, v in col)

    def test_values_keep_their_exact_dtype(self):
        # numpy's own inference would make [-1, 2^63] float64 and [2^63]
        # uint64; the values go through _exact_array, which keeps them
        columns = [[(0, -1), (1, 1 << 63)]]
        arrays = _ColumnArrays(columns, 2)
        assert arrays.vals.dtype == object
        assert list(arrays) == columns
        assert _ColumnArrays([[(0, 1 << 63)]], 1).vals.tolist() == [1 << 63]
        assert _ColumnArrays([[(0, (1 << 63) - 1)]], 1).vals.dtype == np.int64

    def test_non_integers_are_refused(self):
        # np.array(..., dtype=np.int64) alone reads Fraction(1, 2) as 0
        with pytest.raises(TypeError, match=r"Fraction\(1, 2\)"):
            _ColumnArrays([[(0, Fraction(1, 2))], [(0, 3)]], 1)
        with pytest.raises(TypeError, match=r"Fraction\(1, 2\)"):
            _ColumnArrays([[(0, 1)]], 1).kills([([0], [Fraction(1, 2)])])
        # a bool, a float or a numpy float is refused as SparseMat refuses it,
        # alone or among ints, in a list or an array
        refused = ([True], [1, True], [1, 1.0], [np.float64(2)], np.array([1.5]), np.array([True]))
        for values in refused:
            with pytest.raises(TypeError, match="exact integer arrays take ints"):
                _exact_array(values)
        # ints and numpy integers keep the int64 / object choice
        assert _exact_array([np.int16(3), 2, np.uint64(1 << 63)]).dtype == object
        assert _exact_array(np.array([1, 2], dtype=np.int16)).dtype == np.int64
        assert _exact_array(np.array([1 << 63], dtype=np.uint64)).tolist() == [1 << 63]
        assert _exact_array([]).dtype == np.int64

    @settings(max_examples=100, deadline=None)
    @given(sparse_columns, st.sampled_from([0, 20, 62, 70]), st.data())
    def test_block_equals_fresh_build(self, shaped, bits, data):
        nrows, shape = shaped
        columns = [sorted({i: v << bits for i, v in col}.items()) for col in shape]
        columns.append([(0, data.draw(st.sampled_from([1, 1 << 20, 1 << 70])))])
        sel = data.draw(
            st.lists(st.integers(0, len(columns) - 1), unique=True, max_size=len(columns))
        )
        block = _ColumnArrays(columns, nrows).block(sel)
        touched = sorted({i for j in sel for i, _ in columns[j]})
        local = {i: t for t, i in enumerate(touched)}
        fresh = _ColumnArrays([[(local[i], v) for i, v in columns[j]] for j in sel], len(touched))
        for name in ("indptr", "rows", "vals"):
            got, want = getattr(block, name), getattr(fresh, name)
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name
        assert (block.nrows, block.ncols) == (fresh.nrows, fresh.ncols)
        assert list(block) == [[(local[i], v) for i, v in columns[j]] for j in sel]

    def test_block_beyond_int64_keeps_python_ints(self):
        columns = [[(0, 1), (3, 1 << 70)], [(1, 1 << 40)], [(2, 5)]]
        arrays = _ColumnArrays(columns, 4)
        assert arrays.vals.dtype == object
        big = arrays.block([0])
        assert big.vals.dtype == object
        assert list(big) == [[(0, 1), (1, 1 << 70)]]
        assert big.kills([([0], [0])]) and not big.kills([([0], [1])])
        assert arrays.block([1]).vals.dtype == np.int64
        assert arrays.block([2]).vals.dtype == np.int16

    def test_rows_beyond_the_dense_row_count_multiply_exactly(self):
        # two entries in row 5 of 2^62 rows: the product sums only the
        # rows the vector touches, and no array of the row count is made
        arrays = _ColumnArrays([[(5, 2)], [(5, -1)]], 1 << 62)
        assert arrays.kills([([0, 1], [1, 2])])
        assert not arrays.kills([([0, 1], [1, 1])])
        assert arrays.apply([(0, 1), (1, 1)]) == [(5, 1)]
        assert arrays.apply([(0, 1 << 70), (1, 1)]) == [(5, (1 << 71) - 1)]
        assert arrays.apply([(0, 1), (1, 2)]) == []
        wide = _ColumnArrays([[(5, 2), ((1 << 62) - 1, 3)], [(0, -1)]], 1 << 62)
        assert wide.apply([(0, 1), (1, 1)]) == [(0, -1), (5, 2), ((1 << 62) - 1, 3)]

    def test_corrupted_kernel_report_basis_is_caught(self, monkeypatch):
        # negative control: every saturated basis is moved off the kernel
        # by one unit before the block's one product, which must refuse it;
        # no prime certifies, so the corruption is never returned
        from mccool import exactla
        from mccool.johnson import kernel_report

        saturate = exactla._saturate_rows
        corrupted = []

        def corrupt(rows):
            basis = [list(v) for v in saturate(rows)]
            if basis:
                j = next(j for j, x in enumerate(basis[0]) if x)
                basis[0][j] += 1
                corrupted.append(basis)
            return [tuple(v) for v in basis]

        kernel_report.cache_clear()
        monkeypatch.setattr(exactla, "_saturate_rows", corrupt)
        try:
            with pytest.raises(RuntimeError, match="modular kernel failed to certify"):
                kernel_report(7)
        finally:
            kernel_report.cache_clear()
        assert corrupted


def _rref_mod_small(a: np.ndarray, p: int):
    """Reference: in-place reduced row echelon form mod p; returns the
    pivot column list."""
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for j in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, j])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, j]), p - 2, p)
        a[r, j:] = (a[r, j:] * inv) % p
        below = r + 1 + np.nonzero(a[r + 1 :, j])[0]
        if len(below):
            a[below, j:] = (a[below, j:] - np.outer(a[below, j], a[r, j:])) % p
        pivots.append(j)
        r += 1
    for i in range(len(pivots) - 1, -1, -1):
        j = pivots[i]
        above = np.nonzero(a[:i, j])[0]
        if len(above):
            a[above, j:] = (a[above, j:] - np.outer(a[above, j], a[i, j:])) % p
    return pivots


def rref_nullspace(a, p):
    """Reference: pivots and canonical nullspace basis read off the full
    reduced row echelon form of _rref_mod_small."""
    small = a % p
    pivots = _rref_mod_small(small, p)
    pivset = set(pivots)
    free = [j for j in range(a.shape[1]) if j not in pivset]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, j in enumerate(pivots):
            basis[k, j] = (-int(small[i, f])) % p
    return pivots, basis


@st.composite
def mod_p_matrices(draw):
    """Random matrices mod _PRIMES[0]: tall, wide or square, sparse to
    dense, with zero columns and columns that are multiples or sums of
    others (rank deficiency)."""
    from mccool.exactla import _PRIMES

    p = _PRIMES[0]
    nrows, ncols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.1, 0.4, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, size=(nrows, ncols)) * (rng.random((nrows, ncols)) < density)
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        a[:, j] = 0
    for _ in range(draw(st.integers(0, 3))):
        j, k, l = (draw(st.integers(0, ncols - 1)) for _ in range(3))
        a[:, j] = (a[:, k] * draw(st.integers(1, p - 1)) + a[:, l]) % p
    return a


class TestDeferredElimination:
    @settings(max_examples=200, deadline=None)
    @given(mod_p_matrices())
    def test_matches_rref_basis(self, a):
        from mccool.exactla import _PRIMES, _nullspace_mod

        p = _PRIMES[0]
        pivots, rows, basis = _nullspace_mod(a.copy(), p)
        ref_pivots, ref_basis = rref_nullspace(a, p)
        assert pivots == ref_pivots
        assert basis.shape == ref_basis.shape
        assert (basis == ref_basis).all()
        assert not (a @ basis.T % p).any()
        # the pivot rows alone: distinct input rows with the same echelon
        # form mod p, so the same pivots and nullspace
        assert len(set(rows.tolist())) == len(rows) == len(pivots)
        row_pivots, row_basis = rref_nullspace(a[rows], p)
        assert row_pivots == pivots
        assert (row_basis == basis).all()

    def test_large_sparse_matches_rref_basis(self):
        # the largest matrix of these tests, above the size of any block
        # the paper's kernels eliminate (at most 103,230 cells for k <= 9)
        from mccool.exactla import _PRIMES, _nullspace_mod

        rng = random.Random(12)
        nrows, ncols = 640, 520
        p = _PRIMES[0]
        a = np.zeros((nrows, ncols), dtype=np.int64)
        for _ in range(9000):
            a[rng.randrange(nrows), rng.randrange(ncols)] = rng.randint(1, p - 1)
        pivots, _, basis = _nullspace_mod(a.copy(), p)
        ref_pivots, ref_basis = rref_nullspace(a, p)
        assert pivots == ref_pivots
        assert (basis == ref_basis).all()

    @pytest.mark.parametrize("shape", [(150, 150), (60, 200), (200, 60)])
    def test_dense_full_rank(self, shape):
        # every entry below the pivots is updated once per pivot: the
        # worst case for the growth of unreduced entries
        from mccool.exactla import _PRIMES, _nullspace_mod

        p = _PRIMES[0]
        a = np.random.default_rng(11).integers(1, p, size=shape)
        pivots, rows, basis = _nullspace_mod(a.copy(), p)
        assert len(pivots) == len(rows) == min(shape)
        ref_pivots, ref_basis = rref_nullspace(a, p)
        assert pivots == ref_pivots
        assert (basis == ref_basis).all()

    def test_object_input_beyond_int64(self):
        # the same residues as Python ints beyond 2^63, of either sign
        from mccool.exactla import _PRIMES, _nullspace_mod

        p = _PRIMES[0]
        a = np.random.default_rng(5).integers(0, p, size=(6, 8))
        a[:, 5] = (a[:, 0] + 3 * a[:, 1]) % p
        shifts = np.random.default_rng(6).integers(-4, 4, size=a.shape)
        big = a.astype(object) + (shifts.astype(object) * 2 + 1) * p * (1 << 64)
        assert big.dtype == object and all(abs(v) >= 1 << 63 for v in big.flat)
        pivots, rows, basis = _nullspace_mod(big, p)
        want = _nullspace_mod(a.copy(), p)
        assert pivots == want[0]
        assert rows.tolist() == want[1].tolist()
        assert basis.dtype == np.int64 and (basis == want[2]).all()

    def test_zero_matrix(self):
        from mccool.exactla import _PRIMES, _nullspace_mod

        pivots, rows, basis = _nullspace_mod(np.zeros((3, 4), dtype=np.int64), _PRIMES[0])
        assert pivots == [] and rows.size == 0
        assert (basis == np.eye(4, dtype=np.int64)).all()

    def test_int64_bound_is_checked(self):
        # 2^17 + 1 columns: (2^17 + 1) * p^2 > 2^63 for the 23-bit primes;
        # the check runs before any elimination (the matrix is about 1 MB)
        from mccool.exactla import _PRIMES, _nullspace_mod

        a = np.zeros((1, (1 << 17) + 1), dtype=np.int64)
        with pytest.raises(RuntimeError, match=r"ncols \* p\^2 \+ p < 2\^63"):
            _nullspace_mod(a, _PRIMES[0])


class TestSNF:
    def test_identity(self):
        assert smith_normal_form(SparseMat.identity(4)).divisors == (1, 1, 1, 1)

    def test_single_even_entry(self):
        m = SparseMat.from_dense([[2, 0], [0, 0]])
        assert smith_normal_form(m).divisors == (2,)

    def _unimodular(self, rng, n):
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    m[i][k] += c * m[j][k]
        return m

    def test_planted_divisors(self):
        rng = random.Random(7)
        target = [1, 1, 2, 6]
        for _ in range(5):
            diag = [[0] * 6 for _ in range(6)]
            for i, d in enumerate(target):
                diag[i][i] = d
            u, v = self._unimodular(rng, 6), self._unimodular(rng, 6)
            prod = [
                [sum(u[i][a] * diag[a][b] * v[b][j] for a in range(6) for b in range(6)) for j in range(6)]
                for i in range(6)
            ]
            snf = smith_normal_form(SparseMat.from_dense(prod))
            assert list(snf.divisors) == target

    @settings(max_examples=120, deadline=None)
    @given(small_matrices)
    def test_chain_and_rank(self, dense):
        m = SparseMat.from_dense(dense)
        snf = smith_normal_form(m)
        assert snf.rank == frac_rank(dense)
        for a, b in zip(snf.divisors, snf.divisors[1:]):
            assert b % a == 0
        assert all(d > 0 for d in snf.divisors)
        # column arrays are read as they are, with the same divisors
        assert smith_normal_form(_ColumnArrays(m.columns(), m.rows)) == snf

    def test_wide_matrix_of_small_blocks(self):
        # 2,600 disjoint 1 x 2 blocks [2, 6]: no width cap, each block's
        # dense Hermite forms are 1 x 2
        columns = [[(j // 2, 2 if j % 2 == 0 else 6)] for j in range(5200)]
        assert smith_normal_form(_ColumnArrays(columns, 2600)).divisors == (2,) * 2600

    def test_fraction_entries_rejected(self):
        with pytest.raises(ValueError, match="integer entries"):
            smith_normal_form(SparseMat(1, 1, {(0, 0): Fraction(1, 2)}))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda nr: st.integers(1, 4).flatmap(
                lambda nc: st.lists(
                    st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
                    min_size=nr,
                    max_size=nr,
                )
            )
        )
    )
    def test_divisors_are_quotients_of_minor_gcds(self, dense):
        # independent oracle: d1 * ... * di is the gcd of all i x i minors
        # (0 beyond the rank), each minor a plain cofactor determinant
        def det(m):
            if not m:
                return 1
            return sum(
                (-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
                for j in range(len(m))
                if m[0][j]
            )

        divisors = smith_normal_form(SparseMat.from_dense(dense)).divisors
        nr, nc = len(dense), len(dense[0])
        for i in range(1, min(nr, nc) + 1):
            g = 0
            for rows_i in itertools.combinations(range(nr), i):
                for cols_i in itertools.combinations(range(nc), i):
                    g = math.gcd(g, det([[dense[r][c] for c in cols_i] for r in rows_i]))
            assert g == (math.prod(divisors[:i]) if i <= len(divisors) else 0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_blocks_equal_unsplit_elimination(self, data):
        # shuffled blocks, each scaled so that the divisors differ from
        # block to block, and a zero column: the blockwise divisors are
        # those of one elimination of the whole matrix plus the merge pass
        dense, owner = TestBlockSplit._build(data)
        for cols in owner:
            scale = data.draw(st.sampled_from([1, 2, 3, 4, 6]))
            for row in dense:
                for j in cols:
                    row[j] *= scale
        for row in dense:
            row.insert(data.draw(st.integers(0, len(row))), 0)
        m = SparseMat.from_dense(dense)
        snf = smith_normal_form(m)
        assert snf.divisors == _invariant_factors(_smith_diagonal(_ColumnArrays(m.columns(), m.rows)))
        assert snf.rank == frac_rank(dense)


class TestHNF:
    def test_canonical(self):
        rows = [(2, 4, 0), (0, 2, 1)]
        out = hnf_rows([list(r) for r in rows])
        for i, row in enumerate(out):
            lead = next(c for c, v in enumerate(row) if v)
            assert row[lead] > 0
            for k in range(i):
                assert 0 <= out[k][lead] < row[lead]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            min_size=1,
            max_size=4,
        )
    )
    def test_idempotent(self, rows):
        once = hnf_rows(rows)
        again = hnf_rows([list(r) for r in once])
        assert once == again

    def test_range_guard(self, monkeypatch):
        # the first row operation makes the entry -2^70 (71 bits)
        from mccool import exactla

        rows = [[2, 1 << 70], [3, 0]]
        assert hnf_rows(rows) == [(1, 1 << 71), (0, 3 << 70)]
        monkeypatch.setattr(exactla, "_HNF_BITS", 70)
        with pytest.raises(RuntimeError, match="hnf_rows entries exceed the supported range"):
            hnf_rows(rows)
        monkeypatch.setattr(exactla, "_HNF_BITS", 72)
        assert hnf_rows(rows) == [(1, 1 << 71), (0, 3 << 70)]


class TestIntersection:
    def test_same_span(self):
        b = SparseMat.from_dense([[1, 0], [0, 1], [0, 0]])
        assert intersect_columnspaces([b, b]).cols == 2

    def test_coordinate_planes(self):
        b1 = SparseMat(3, 2, {(0, 0): 1, (1, 1): 1})
        b2 = SparseMat(3, 2, {(1, 0): 1, (2, 1): 1})
        inter = intersect_columnspaces([b1, b2])
        assert inter.cols == 1
        assert inter.columns() == [[(1, 1)]]

    def test_three_way(self):
        b1 = SparseMat.from_dense([[1, 0], [0, 1], [0, 0], [0, 0]])
        b2 = SparseMat.from_dense([[1, 0], [0, 0], [0, 1], [0, 0]])
        b3 = SparseMat.from_dense([[1, 0], [0, 0], [0, 0], [0, 1]])
        inter = intersect_columnspaces([b1, b2, b3])
        assert inter.cols == 1
        assert inter.columns() == [[(0, 1)]]

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            intersect_columnspaces([SparseMat(2, 1), SparseMat(3, 1)])

    def test_fraction_entries(self):
        half = SparseMat(2, 1, {(0, 0): Fraction(1, 2)})
        assert intersect_columnspaces([half, SparseMat.identity(2)]) == SparseMat(2, 1, {(0, 0): 1})
        thirds = SparseMat(2, 1, {(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 2)})
        inter = intersect_columnspaces([SparseMat.identity(2), thirds])
        assert inter == SparseMat(2, 1, {(0, 0): 2, (1, 0): 3})

    def test_rows_sized_by_their_entries(self):
        # 2^62 declared rows and one entry: the images and the Hermite
        # step see only the rows the columns touch
        m = SparseMat(1 << 62, 1, {(1 << 61, 0): 1})
        assert intersect_columnspaces([m, m]) == m


class TestMatrixText:
    def test_roundtrip(self):
        m = SparseMat.from_dense([[1, 0, -2], [0, 5, 0]])
        assert read_matrix_text(write_matrix_text(m)) == m

    def test_format_shape(self):
        m = SparseMat(2, 3, {(0, 0): 7, (1, 2): -1})
        text = write_matrix_text(m)
        lines = text.strip().splitlines()
        assert lines[0] == "2 3 2"
        assert lines[1] == "1 1 7"
        assert lines[2] == "2 3 -1"

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            read_matrix_text("1 1 2\n1 1 5\n")

    def test_repeated_position_rejected(self):
        with pytest.raises(ValueError, match="entry line '1 1 4' repeats position"):
            read_matrix_text("2 2 2\n1 1 1\n1 1 4\n")

    @pytest.mark.parametrize(
        "text, line",
        [("2 2\n", "2 2"), ("2 2 1\n1 1 1.5\n", "1 1 1.5"), ("2 2 1\n1 1\n", "1 1"),
         ("2 2 1\n1 x 3\n", "1 x 3"), ("2 2 1\n1 1 1/0\n", "1 1 1/0")],
    )
    def test_malformed_line_named(self, text, line):
        with pytest.raises(ValueError, match=f"bad (header|entry) line '{line}'"):
            read_matrix_text(text)

    @pytest.mark.parametrize("line", ["3 1 5", "0 1 5", "1 3 5", "1 -1 5", "-1 0 5"])
    def test_out_of_range_entry_names_its_line(self, line):
        # positions are 1-based: row 1..2 and column 1..2 of a 2 x 2 matrix
        with pytest.raises(ValueError, match=f"entry line '{line}' is outside the 2 x 2 matrix"):
            read_matrix_text(f"2 2 1\n{line}\n")

    @pytest.mark.parametrize("line", ["1 1 0", "1 1 0/3", "2 1 -0"])
    def test_zero_entry_names_its_line(self, line):
        # the text lists only nonzero entries, so the header count is nnz
        with pytest.raises(ValueError, match=f"entry line '{line}' is zero"):
            read_matrix_text(f"2 2 1\n{line}\n")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepted_text_writes_back_with_its_header_count(self, data):
        # entry lines over a small matrix, zeros, fractions, repeats and
        # out-of-range positions included: a text the reader accepts
        # writes back to one that states the same count and reads the same
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        value = st.sampled_from(["0", "-0", "0/3", "2", "-7", "1/2", "-4/6", "4/2"])
        line = st.builds("{} {} {}".format, st.integers(1, 4), st.integers(1, 4), value)
        lines = data.draw(st.lists(line, max_size=5))
        try:
            m = read_matrix_text("\n".join([f"{rows} {cols} {len(lines)}"] + lines) + "\n")
        except ValueError:
            return
        back = write_matrix_text(m)
        assert back.splitlines()[0] == f"{rows} {cols} {len(lines)}"
        assert read_matrix_text(back) == m

    @settings(max_examples=3000, deadline=None)
    @given(st.text(alphabet="0123456789 -/.x\n", max_size=30) | st.text(max_size=30))
    def test_arbitrary_text_parses_or_raises_value_error(self, text):
        # generated input: each text is read, or refused with ValueError
        try:
            m = read_matrix_text(text)
        except ValueError:
            return
        assert read_matrix_text(write_matrix_text(m)) == m

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, data):
        rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        value = st.one_of(st.integers(-10**20, 10**20), st.fractions(max_denominator=9))
        cells = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
        entries = data.draw(st.dictionaries(cells, value, max_size=8)) if rows and cols else {}
        m = SparseMat(rows, cols, entries)
        assert read_matrix_text(write_matrix_text(m)) == m
