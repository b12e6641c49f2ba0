"""The Johnson morphism tau on basis-conjugating generator symbols.

tau sends the degree-1 class of the generator K_ij to the derivation

    d_ij : X_i -> [X_j, X_i],   X_t -> 0 (t != i)

of L[n] and extends as a Lie morphism.  For n = 3 the kernel lives in
the free Lie subring g on a = K_12, b = K_21, c = K_13; kernel_report
computes, degree by degree, the matrix of tau on the Lyndon basis of g
(rows indexed by pairs (generator slot, Lyndon word of degree k+1)) and
its certified integer kernel lattice.

The degree-6 kernel is generated by the 12-term left-normed element
omega(); every reported kernel basis vector is certified inside the
kernel solve, by one exact product with the degree's tau matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import exactla
from .derivations import Derivation, der_bracket
from .freelie import (
    Alphabet,
    LieElement,
    abc_alphabet,
    coordinates,
    from_coordinates,
    left_normed,
    lie_bracket,
    morphism_image,
    x_alphabet,
)
from .freelie import _add_into
from .words import lyndon_index, lyndon_tuples, standard_factorization, witt_dimension

__all__ = [
    "McCoolSymbols",
    "KernelReport",
    "BracketMapReport",
    "tau_generator",
    "tau_evaluate",
    "tau_apply",
    "omega",
    "kernel_report",
    "elementary_divisors",
    "bracket_map_rank",
]

class McCoolSymbols:
    """The n(n-1) symbols k_ij (i != j), ordered row-major by (i, j)."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        if n > 9:
            raise ValueError("symbol labels support n <= 9")
        self.n = n
        self.pairs = tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
        self.alphabet = Alphabet(tuple(f"k{i}{j}" for i, j in self.pairs))

    def symbol(self, i: int, j: int) -> LieElement:
        if (i, j) not in self.pairs:
            raise ValueError(f"no symbol k_ij for (i, j) = ({i}, {j}) in rank {self.n}")
        return LieElement.generator(self.alphabet, f"k{i}{j}")


@functools.lru_cache(maxsize=None)
def mccool_symbols(n: int) -> McCoolSymbols:
    """The symbols of rank n, built once per n."""
    return McCoolSymbols(n)


def tau_generator(n: int, i: int, j: int) -> Derivation:
    """The degree-1 derivation d_ij : X_i -> [X_j, X_i] of L[n]."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError("generator indices out of range")
    if i == j:
        raise IndexError("generator indices must be distinct")
    alphabet = x_alphabet(n)
    images = [LieElement.zero(alphabet, 2) for _ in range(n)]
    x_j, x_i = (LieElement.generator(alphabet, alphabet.labels[t - 1]) for t in (j, i))
    images[i - 1] = lie_bracket(x_j, x_i)
    return Derivation(alphabet, 1, tuple(images))


# the standard section for n = 3: a = K_12, b = K_21, c = K_13, as the
# generator pair (i, j) of each letter of {a, b, c}
_ABC_PAIRS = ((1, 2), (2, 1), (1, 3))


class TauMap:
    """tau on the free Lie ring over a symbol alphabet, at two granularities.

    Per word, for sparse evaluation: _word_cache[w] is the Derivation
    tau(b(w)) of a Lyndon word w over the symbols: tau_generator for a
    letter, and freelie.morphism_image's der_bracket of the Derivations of
    its standard factors, whose own word memos hold the single-word
    applications.  evaluate() and apply() read these, so they touch only
    the words of their input: over McCool alphabets of dozens of symbols
    no table of a whole degree could be built.  Readers: tau_evaluate (the
    stabilization certificate over McCool symbols, the S3 equivariance
    check, verify-omega, sd_tau) and tau_apply (the action of g on h in
    psigma3.sd_bracket).

    Per degree, for the kernel solve: tau_arrays(k) is the matrix of tau
    on every Lyndon word of degree k.  Degree 1 is the column() of each
    letter's Derivation; a degree k >= 2 is built by batched array
    products from the matrices of the lower degrees (_DegreeBuild), which
    makes no Derivation and no LieElement.  Every table the build reads
    is indexed by position alone: the lower matrices by column, its
    levels by row key and the brackets of Lyndon words by pair
    (_bracket_table, shared by the engines of rank n and built whole from
    the tables of lower degrees, so the build fills no freelie._bw memo;
    the letter-map arrays of the S3 action and bracket_map_rank read the
    same tables).
    It sums one (group, letter-content class) chunk at a time, so its
    temporaries follow the largest class.  Readers:
    kernel_report (the solve, whose blocks certify against these arrays),
    elementary_divisors (the Smith form), bracket_map_rank, and
    psigma3.sd_tau_kernel, which stacks it beside the inner columns.
    Tests check the two granularities against each other from degree 2.
    """

    def __init__(self, symbol_alphabet: Alphabet, n: int, generator_pairs: tuple):
        # generator_pairs[t] is the pair (i, j) of K_ij for symbol letter t
        self.symbol_alphabet = symbol_alphabet
        self.n = n
        self.generator_pairs = tuple(generator_pairs)
        self._word_cache = {
            (t,): tau_generator(n, *pair) for t, pair in enumerate(generator_pairs)
        }
        self._arrays: dict = {}

    def of_word(self, word) -> Derivation:
        return morphism_image(word, self._word_cache, der_bracket)

    def evaluate(self, p: LieElement) -> Derivation:
        """tau(p) on generators: its image of X_i is apply(p, X_i), the
        sum of c_w times slot i of tau(b(w))."""
        alphabet = x_alphabet(self.n)
        gens = (LieElement.generator(alphabet, lab) for lab in alphabet.labels)
        return Derivation(alphabet, p.degree, tuple(self.apply(p, x) for x in gens))

    def apply(self, p: LieElement, x: LieElement) -> LieElement:
        """tau(p) applied to x, by linearity in p: the sum of
        c_w * tau(b(w))(x), read from the word memos of the per-word
        Derivations, so no Derivation of p itself is built."""
        if p.alphabet != self.symbol_alphabet:
            raise ValueError("symbol alphabet mismatch")
        if x.alphabet != x_alphabet(self.n):
            raise ValueError("alphabet mismatch")
        acc: dict = {}
        for word, c in p.coeffs.items():
            apply_word = self.of_word(word)._apply_word
            for u, cu in x.coeffs.items():
                _add_into(acc, apply_word(u), c * cu)
        return LieElement(x.alphabet, p.degree + x.degree, acc, _trust=True)

    def tau_arrays(self, k: int) -> exactla._ColumnArrays:
        """The degree-k tau matrix as column arrays, built once per degree.

        Column j is tau of the j-th Lyndon word of degree k over the
        symbols, in the layout of Derivation.column(): row
        i * witt(n, k + 1) + t holds the coefficient of the t-th Lyndon
        word of degree k + 1 in image slot i.  The kernel solve and every
        kernel check of the degree read these arrays.
        """
        hit = self._arrays.get(k)
        if hit is None:
            if k == 1:
                letters = [self.of_word((t,)).column() for t in range(len(self.generator_pairs))]
                hit = exactla._ColumnArrays(letters, self.n * witt_dimension(self.n, 2))
            else:
                hit = _DegreeBuild(self, k).run()
            self._arrays[k] = hit
        return hit


@functools.lru_cache(maxsize=None)
def _factor_arrays(n: int, m: int) -> np.ndarray:
    """Rows (len(t1), position of t1, position of t2) over the Lyndon words
    t = t1 t2 of degree m >= 2 on n letters, in lex order, where (t1, t2)
    is the standard factorization and positions are within each degree."""
    out = np.empty((3, witt_dimension(n, m)), dtype=np.int64)
    for j, t in enumerate(lyndon_tuples(n, m)):
        t1, t2 = standard_factorization(t)
        out[:, j] = len(t1), lyndon_index(n, len(t1))[t1], lyndon_index(n, len(t2))[t2]
    return out


@functools.lru_cache(maxsize=None)
def _content_labels(n: int, k: int) -> np.ndarray:
    """The letter-content class of every Lyndon word of degree k on n
    letters, in lex order: equal labels for equal letter counts."""
    seen: dict = {}
    return np.array([seen.setdefault(tuple(sorted(w)), len(seen)) for w in lyndon_tuples(n, k)])


class _BracketTable:
    """[b(x), b(y)] for Lyndon words x, y over n letters of total degree d,
    in the Lyndon basis of degree d, as CSR arrays over the pairs.

    The pair of x of degree p and y of degree d - p, each given by its
    position within its degree, is coded first[p] + x * witt(n, d - p) + y,
    which numbers the pairs of degree d from 0.  Row code of csr = (indptr,
    words, coeffs) is the bracket of that pair, words being positions in
    degree d.

    The table is built whole from the tables of lower degrees by the
    rewriting of freelie._bw (Reutenauer 1993, §5.1), every pair at once,
    with x and y compared by their ranks in lex order: [b(x), b(x)] = 0;
    for x > y the bracket is -[b(y), b(x)]; a standard pair, (x, y) the
    standard factorization of the Lyndon word xy, is b(xy); any other
    x < y has x = (x1, x2) with x2 < y, and

        [b(x), b(y)] = [[b(x1), b(y)], b(x2)] + [b(x1), [b(x2), b(y)]],

    whose inner brackets are read from the lower tables.  That leaves
    degree-d pairs, the children, of the graph of _bw's recursion, which
    is acyclic; it is evaluated in rounds, each summing the pairs whose
    children are done and appending their rows to one CSR store.
    """

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.widths = np.array([0] + [witt_dimension(n, m) for m in range(1, d)])
        # first[p] is the code of the first pair with deg x = p
        self.first = np.concatenate(([0, 0], np.cumsum(self.widths[1:] * self.widths[:0:-1])))
        self.csr = self._evaluate(*self._graph())

    def code(self, px, x, y) -> np.ndarray:
        """The codes of the pairs of the words x of degree px and y of
        degree d - px, each given by its position within its degree."""
        return self.first[px] + x * self.widths[self.d - px] + y

    def _graph(self) -> tuple:
        """The pairs that have children, as a mask over the codes; the
        codes of the standard pairs, in the lex order of their words; and
        the children as (parent, child, coefficient) arrays: (y, x) with
        -1 for x > y and, for x < y not standard, (w, x2) for every term
        c * b(w) of [b(x1), b(y)] and (x1, w) for every term of
        [b(x2), b(y)], each with coefficient c."""
        n, d = self.n, self.d
        px = np.repeat(np.arange(1, d), self.widths[1:] * self.widths[:0:-1])
        x, y = np.divmod(np.arange(self.first[-1]) - self.first[px], self.widths[d - px])
        # the Lyndon words of degree < d, degree after degree, word x of
        # degree p at offset[p] + x; rank is their order among them all
        offset = np.cumsum(self.widths) - self.widths
        lower = [w for m in range(1, d) for w in lyndon_tuples(n, m)]
        rank = np.empty(len(lower), dtype=np.int64)
        rank[sorted(range(len(lower)), key=lower.__getitem__)] = np.arange(len(lower))
        sign = np.sign(rank[offset[d - px] + y] - rank[offset[px] + x])
        word_codes = self.code(*_factor_arrays(n, d))
        todo = sign != 0
        todo[word_codes] = False
        s = np.flatnonzero(sign < 0)
        parent, child, coef = [s], [self.code(d - px[s], y[s], x[s])], [np.full(s.size, -1)]
        nodes = np.flatnonzero(todo & (sign > 0))
        px, x, y = px[nodes], x[nodes], y[nodes]
        factors = [np.zeros((3, n), dtype=np.int64)] + [_factor_arrays(n, m) for m in range(2, d)]
        m1, i1, i2 = np.concatenate(factors, axis=1)[:, offset[px] + x]
        for inner, (deg, pos) in enumerate(((m1, i1), (px - m1, i2))):
            e = deg + d - px
            for f in _unique(e).tolist():
                sel, table = e == f, _bracket_table(n, f)
                words, coeffs, lengths = exactla._gather(table.csr, table.code(deg[sel], pos[sel], y[sel]))
                if inner == 0:
                    child.append(self.code(f, words, np.repeat(i2[sel], lengths)))
                else:
                    child.append(self.code(np.repeat(m1[sel], lengths), np.repeat(i1[sel], lengths), words))
                parent.append(np.repeat(nodes[sel], lengths))
                coef.append(coeffs)
        return (todo, word_codes, np.concatenate(parent), np.concatenate(child),
                exactla._narrowest(np.concatenate(coef)))

    def _evaluate(self, todo, word_codes, parent, child, coef) -> tuple:
        """The CSR rows of every pair, in rounds from the standard pairs:
        each round sums the pairs of todo whose children are all done."""
        npairs, width = todo.size, word_codes.size
        # one CSR store, pair code at its row slot[code]: row 0 is empty,
        # for the equal pairs, rows 1.. the standard pairs, then each
        # round's rows, their words narrowed as the finished table's
        ones = np.ones(width, dtype=np.int64)
        store = exactla._indptr(np.append(0, ones)), np.arange(width, dtype=np.int32), ones
        slot = np.zeros(npairs, dtype=np.int64)
        slot[word_codes] = np.arange(1, width + 1)
        while todo.any():
            ready = todo.copy()
            ready[parent[todo[child]]] = False
            if not ready.any():
                raise RuntimeError(
                    f"bracket table (n, d) = ({self.n}, {self.d}): no pending pair has its children done"
                )
            sel = ready[parent]
            keys, sums = _sum_products([_scaled_rows(store, slot[child[sel]], parent[sel], coef[sel])], width)
            rows = np.flatnonzero(ready)
            codes, words = np.divmod(keys, width)
            counts = np.bincount(codes, minlength=npairs)[rows]
            start, store = exactla._append(store, (exactla._indptr(counts), words.astype(store[1].dtype), sums))
            slot[rows] = start + np.arange(rows.size)
            todo[rows] = False
            parent, child, coef = parent[~sel], child[~sel], coef[~sel]
        words, coeffs, lengths = exactla._gather(store, slot)
        return exactla._indptr(lengths), words, exactla._narrowest(coeffs)


@functools.lru_cache(maxsize=None)
def _bracket_table(n: int, d: int) -> _BracketTable:
    """The degree-d bracket table over n letters, shared by the builds of rank n."""
    return _BracketTable(n, d)


@functools.lru_cache(maxsize=None)
def _letter_map_arrays(images: tuple, d: int) -> exactla._ColumnArrays:
    """The Lie-ring morphism sending letter i to images[i] = (sign, target
    letter), as column arrays over the Lyndon basis of degree d: column j
    is the image of the j-th Lyndon word.  freelie.substitute is the same
    map on elements.  For d >= 2 the image of b(w), w = (u, v) standard,
    is the sum of c_x c_y [b(x), b(y)] over the terms c_x b(x) of the
    image of u and c_y b(y) of that of v, each bracket read from
    _bracket_table(n, d) by its pair, one group (the degree of u) per
    int64 sum under _sum_products' bound and a check on c_x c_y.
    """
    n = len(images)
    if d == 1:
        signs, targets = zip(*images)
        return exactla._ColumnArrays.from_csr(np.arange(n + 1), targets, signs, n)
    table, width = _bracket_table(n, d), witt_dimension(n, d)
    ulen, uidx, vidx = _factor_arrays(n, d)
    chunks = []
    for m in _unique(ulen).tolist():
        w = np.flatnonzero(ulen == m)
        xs, xv, xlen = exactla._gather(_letter_map_arrays(images, m).csr, uidx[w])
        ys, yv, ylen = exactla._gather(_letter_map_arrays(images, d - m).csr, vidx[w])
        if exactla._abs_max(xv) * exactla._abs_max(yv) >= 1 << 63:
            raise OverflowError(f"letter map image coefficients beyond int64 in degree {d}")
        # every term of the image of u, each with every term of that of v
        per = np.repeat(ylen, xlen)
        x = np.repeat(np.arange(xs.size), per)
        y = exactla._spans(np.repeat(np.cumsum(ylen) - ylen, xlen), per)
        target, coef = np.repeat(np.repeat(w, xlen), per), xv[x].astype(np.int64) * yv[y]
        keys, sums = _sum_products([_scaled_rows(table.csr, table.code(m, xs[x], ys[y]), target, coef)], width)
        chunks.append((*np.divmod(keys, width), exactla._narrowest(sums)))
    return _assemble(chunks, width, width)


def _scaled_rows(csr, keys, target, coef) -> tuple:
    """The rows keys of CSR arrays, row keys[i] scaled by coef[i], as a
    product part (target, word, coef, value) for _sum_products."""
    words, vals, lengths = exactla._gather(csr, keys)
    return np.repeat(target, lengths), words, np.repeat(coef, lengths), vals


def _sum_products(parts, width: int):
    """Sum of the products a * b of the parts (target, word, a, b), grouped
    by key = target * width + word: the sorted keys and their sums, with
    zero sums dropped.  parts is nonempty and may be a generator; each part
    is reduced to keys and products as it comes.

    Every sum has at most N terms, N the number of products, so int64 is
    exact when N * max|a| * max|b| < 2^63, with the maxima taken part by
    part; that is checked, on the products so far, before each multiply.
    Keys and products are formed in int64 whatever the parts' dtypes.
    """
    keys, products = [], []
    count = bound = 0
    for target, word, a, b in parts:
        count += a.size
        bound = max(bound, exactla._abs_max(a) * exactla._abs_max(b))
        if count * bound >= 1 << 63:
            raise OverflowError(
                f"int64 exactness bound N * max|a| * max|b| < 2^63 fails "
                f"for N = {count} and max|a| * max|b| = {bound}"
            )
        keys.append(np.multiply(target, width, dtype=np.int64) + word)
        products.append(np.multiply(a, b, dtype=np.int64))
    keys, products = np.concatenate(keys), np.concatenate(products)
    order = np.argsort(keys)
    keys, products = keys[order], products[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(products, starts) if keys.size else products
    keep = sums != 0
    return keys[starts][keep], sums[keep]


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, as np.unique(a)
    gives them; np.unique without return_inverse imports numpy.ma on its
    first call (about 15 ms and 1 MB), which nothing else here loads."""
    a = np.sort(a)
    return a[np.diff(a, prepend=a[:1] - 1) != 0]


def _assemble(chunks, ncols: int, nrows: int) -> exactla._ColumnArrays:
    """Column arrays from a nonempty list of chunks (columns, rows,
    values), in any order, each sorted by column and then row and holding
    every entry of its columns, placed through per-column counts.  Each
    chunk's values are narrowed, so their widest dtype is what _narrowest
    gives for the whole."""
    counts = sum(np.bincount(cols, minlength=ncols) for cols, _, _ in chunks)
    indptr = exactla._indptr(counts)
    rows = np.empty(indptr[-1], dtype=np.int32)
    vals = np.empty(indptr[-1], dtype=np.result_type(*(v.dtype for _, _, v in chunks)))
    for cols, chunk_rows, chunk_vals in chunks:
        # the entries of a column follow its first one in the chunk
        pos = indptr[cols] + np.arange(cols.size) - np.searchsorted(cols, cols)
        rows[pos], vals[pos] = chunk_rows, chunk_vals
    return exactla._ColumnArrays.from_csr(indptr, rows, vals, nrows)


class _DegreeBuild:
    """One degree k >= 2 of TauMap.tau_arrays, from the lower degrees.

    For w = (u, v), slot i of tau(b(w)) is D_u(tau(v)_i) - D_v(tau(u)_i),
    where D_u = tau(b(u)).  The rows D_u b(t) (t a Lyndon word over
    x_alphabet(n)) are kept in levels: level (a, m) is CSR (indptr, words,
    values) over every key u * witt(n, m) + t with deg u = a and deg t = m,
    a row holding words of degree a + m and left empty unless the degree
    needs it.  Level (a, 1) is the degree-a matrix, since D_u X_i =
    tau(u)_i; a level m >= 2 follows from the Leibniz rule on t = (t1, t2),

        D_u b(t) = [D_u b(t1), b(t2)] + [b(t1), D_u b(t2)],

    so the needed rows are found top-down and computed bottom-up, each
    bracket read from _bracket_table(n, a + m) by its pair.  The
    columns read only the top level (a, k + 1 - a) of each a, so the lower
    ones are dropped once it is built.  The columns with deg u = a read
    the top levels of a and k - a only, so the u-degrees go in pairs
    {a, k - a}, whose levels are dropped before the next pair's are built.
    Each step gathers rows, multiplies and sums them with numpy in int64.
    The unit of summing is a chunk, the columns of one group and one
    letter-content class; _sum_products checks the int64 bound per chunk,
    which is exact since every term of a column's sums lies in its chunk.
    """

    def __init__(self, engine: TauMap, k: int):
        self.engine = engine
        self.n = engine.n
        self.k = k
        self.nrows = self.n * witt_dimension(self.n, k + 1)
        self.columns = {a: engine.tau_arrays(a) for a in range(1, k)}

    def run(self) -> exactla._ColumnArrays:
        ncols = witt_dimension(self.engine.symbol_alphabet.size, self.k)
        chunks = []
        for a in range(1, self.k // 2 + 1):
            chunks.extend(self._pair_chunks(sorted({a, self.k - a})))
        return _assemble(chunks, ncols, self.nrows)

    def _pair_chunks(self, pair):
        """The chunks (columns, rows, values) of the groups deg u = a in
        pair; the pair's top levels live until the last is yielded."""
        nrows = self.nrows
        size = self.engine.symbol_alphabet.size
        ulen, uidx, vidx = _factor_arrays(size, self.k)
        labels = _content_labels(size, self.k)
        groups, need = [], {}
        for a in pair:
            w = np.flatnonzero(ulen == a)
            w = w[np.argsort(labels[w], kind="stable")]
            # D_u on the image of v, and -D_v on the image of u
            terms = (self._terms(w, uidx[w], a, vidx[w], 1),
                     self._terms(w, vidx[w], self.k - a, uidx[w], -1))
            for deg, _, key, _ in terms:
                need.setdefault(deg, []).append(key)
            groups.append((_unique(labels[w]), terms))
        top = {a: self._top_level(a, _unique(np.concatenate(keys))) for a, keys in need.items()}
        for classes, terms in groups:
            # each term's entries run through the classes in order
            cuts = [np.append(np.searchsorted(labels[target // nrows], classes), target.size)
                    for _, target, *_ in terms]
            for c in range(classes.size):
                keys, sums = _sum_products(
                    (_scaled_rows(top[deg], *(x[at[c]:at[c + 1]] for x in (key, target, coeff)))
                     for (deg, target, key, coeff), at in zip(terms, cuts)),
                    1,
                )
                cols, rows = np.divmod(keys, nrows)
                yield cols.astype(np.int32), rows.astype(np.int32), exactla._narrowest(sums)

    def _terms(self, w, d, a, e, sign) -> tuple:
        """D_d, deg d = a, on the image slots of tau(e) for the words w:
        the top-level row keys it needs, each with its coefficient and
        target, column * nrows + slot * witt(n, k + 1), the key of the
        entry before the level row's word is added."""
        b = self.k - a
        src = self.columns[b]
        width = witt_dimension(self.n, b + 1)
        rows, vals, lengths = exactla._gather(src.csr, e)
        slot, t = np.divmod(rows.astype(np.int64), width)
        key = np.repeat(d, lengths) * width + t
        target = np.repeat(w, lengths) * self.nrows + slot * witt_dimension(self.n, self.k + 1)
        return a, target, key, vals.astype(np.int64) * sign

    def _top_level(self, a: int, top_keys: np.ndarray) -> tuple:
        """Level (a, k + 1 - a) with its rows top_keys filled, from every
        lower row it needs.

        The lower levels are kept in one CSR store, level m at the rows
        offset[m] + u * witt(n, m) + t, offset[m] being the store's row
        count when the level is appended, so that each level is built by
        one gather per Leibniz term whatever the lengths of t1 and t2.
        """
        n, top = self.n, self.k + 1 - a
        wanted = {top: [top_keys]}
        keys = {}
        for m in range(top, 1, -1):
            if m not in wanted:
                continue
            keys[m] = _unique(np.concatenate(wanted.pop(m)))
            u, t = np.divmod(keys[m], witt_dimension(n, m))
            m1, i1, i2 = _factor_arrays(n, m)[:, t]
            for lens, pos in ((m1, i1), (m - m1, i2)):
                for x in _unique(lens[lens > 1]).tolist():
                    sel = lens == x
                    wanted.setdefault(x, []).append(u[sel] * witt_dimension(n, x) + pos[sel])
        src = self.columns[a]
        widths = np.array([0] + [witt_dimension(n, m) for m in range(1, top + 1)])
        width = witt_dimension(n, a + 1)
        # level 1 is the degree-a matrix, row u * n + i holding tau(u)_i
        counts = np.bincount(src.entry_columns() * n + src.rows // width, minlength=src.ncols * n)
        store = exactla._indptr(counts), (src.rows % width).astype(np.int64), src.vals.astype(np.int64)
        offset = np.zeros(top, dtype=np.int64)
        for m in sorted(keys):
            out_width = witt_dimension(n, a + m)
            parts = self._leibniz_parts(a, m, keys[m], store, offset, widths)
            row_keys, sums = _sum_products(parts, out_width)
            rows, words = np.divmod(row_keys, out_width)
            level = exactla._indptr(np.bincount(rows, minlength=src.ncols * widths[m])), words, sums
            if m < top:
                offset[m], store = exactla._append(store, level)
        return level

    def _leibniz_parts(self, a, m, keys, store, offset, widths):
        """The two Leibniz terms of the rows keys of level (a, m), as
        product parts keyed by the rows' level keys."""
        u, t = np.divmod(keys, widths[m])
        m1, i1, i2 = _factor_arrays(self.n, m)[:, t]
        m2 = m - m1
        table = _bracket_table(self.n, a + m)
        # [D_u b(t1), b(t2)]
        words, vals, lengths = exactla._gather(store, offset[m1] + u * widths[m1] + i1)
        codes = table.code(np.repeat(a + m1, lengths), words, np.repeat(i2, lengths))
        yield _scaled_rows(table.csr, codes, np.repeat(keys, lengths), vals)
        # [b(t1), D_u b(t2)]
        words, vals, lengths = exactla._gather(store, offset[m2] + u * widths[m2] + i2)
        codes = table.code(np.repeat(m1, lengths), np.repeat(i1, lengths), words)
        yield _scaled_rows(table.csr, codes, np.repeat(keys, lengths), vals)


@functools.lru_cache(maxsize=None)
def _abc_tau_map() -> TauMap:
    return TauMap(abc_alphabet(), 3, _ABC_PAIRS)


@functools.lru_cache(maxsize=None)
def _mccool_tau_map(n: int) -> TauMap:
    sym = mccool_symbols(n)
    return TauMap(sym.alphabet, n, sym.pairs)


def tau_map_for(alphabet: Alphabet) -> TauMap:
    """The tau context for a symbol alphabet ({a,b,c} or McCool symbols)."""
    if alphabet == abc_alphabet():
        return _abc_tau_map()
    # the rank-n symbols are the n(n - 1) symbols k_ij
    n = next((n for n in range(2, 10) if n * (n - 1) == alphabet.size), None)
    if n is not None and mccool_symbols(n).alphabet == alphabet:
        return _mccool_tau_map(n)
    raise ValueError(f"no tau context for alphabet {alphabet!r}")


def tau_evaluate(p: LieElement) -> Derivation:
    """tau(P) for P over {a, b, c} (n = 3) or over McCool symbols."""
    return tau_map_for(p.alphabet).evaluate(p)


def tau_apply(p: LieElement, x: LieElement) -> LieElement:
    """tau(P)(x), equal to apply(tau_evaluate(P), x), without building tau(P)."""
    return tau_map_for(p.alphabet).apply(p, x)


# ---------------------------------------------------------------------------
# omega


_OMEGA_TERMS = (
    (+1, "cabbac"),
    (+1, "cacbab"),
    (+1, "cbacab"),
    (+1, "cbacba"),
    (+1, "cbbaac"),
    (+1, "cbcbaa"),
    (-1, "cacabb"),
    (-1, "cacbba"),
    (-1, "cbaacb"),
    (-1, "cbabac"),
    (-1, "cbbaca"),
    (-1, "cbcaba"),
)


@functools.lru_cache(maxsize=None)
def omega() -> LieElement:
    """The degree-6 kernel generator, as a 12-term left-normed sum."""
    alphabet = abc_alphabet()
    gens = {lab: LieElement.generator(alphabet, lab) for lab in "abc"}
    acc = LieElement.zero(alphabet, 6)
    for sign, word in _OMEGA_TERMS:
        acc = acc + left_normed([gens[ch] for ch in word]).scale(sign)
    return acc


# ---------------------------------------------------------------------------
# the kernel of tau on g, degree by degree


@dataclass(frozen=True)
class KernelReport:
    """Per-degree kernel data of tau restricted to g (n = 3)."""

    n: int
    degree: int
    domain_dim: int
    image_rank: int
    kernel_dim: int
    kernel_basis: tuple
    elementary_divisors: tuple | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "domain_dim": self.domain_dim,
            "image_rank": self.image_rank,
            "kernel_dim": self.kernel_dim,
            "basis": [p.to_json_dict() for p in self.kernel_basis],
            "divisors": list(self.elementary_divisors)
            if self.elementary_divisors is not None
            else None,
        }


@functools.lru_cache(maxsize=None)
def kernel_report(k: int, /) -> KernelReport:
    """Kernel of tau_k on g for n = 3, with a certified integer basis.

    k is positional only, so each degree is one memo entry.  Any k >= 1
    is solved; the cost grows fast with k (about 6 s at k = 10 on a
    2-core machine, the tau arrays included), and the CLI bounds it by
    its reference table.  The report's elementary_divisors is None: the
    Smith form is its own memo, elementary_divisors(k), which kernel
    --divisors attaches.  The basis is certified inside kernel_lattice,
    where each vector gets one exact product with tau_arrays(k).
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    arrays = _abc_tau_map().tau_arrays(k)
    basis_vecs = exactla.kernel_lattice(arrays)
    # Hermite rows: each leads with a positive pivot at the smallest
    # Lyndon word it has, so the basis is sign-normalized as it stands
    alphabet = abc_alphabet()
    basis = tuple(from_coordinates(alphabet, k, v) for v in basis_vecs)
    if any(p.is_zero() for p in basis):
        raise exactla.CertificateError("zero vector reported in kernel basis")
    dim = len(basis)
    return KernelReport(
        n=3,
        degree=k,
        domain_dim=arrays.ncols,
        image_rank=arrays.ncols - dim,
        kernel_dim=dim,
        kernel_basis=basis,
    )


@functools.lru_cache(maxsize=None)
def elementary_divisors(k: int, /) -> tuple:
    """The elementary divisors of the degree-k tau matrix, by the exact
    Smith form of tau_arrays(k) (about 0.5 s at k = 8 on a 2-core
    machine, 33-34 s at k = 9)."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    return exactla.smith_normal_form(_abc_tau_map().tau_arrays(k)).divisors


@dataclass(frozen=True)
class BracketMapReport:
    """Rank data of the bracket map span{[x, v]} from degree k to k+1."""

    degree: int
    rank: int
    source_dim: int
    target_dim: int

    @property
    def injective(self) -> bool:
        return self.rank == self.source_dim

    @property
    def surjective(self) -> bool:
        return self.rank == self.target_dim


def bracket_map_rank(k: int) -> BracketMapReport:
    """Rank of the span of [x, v], x a generator, v in the degree-k kernel,
    each [x, v] summed exactly from the rows (x, w) of _bracket_table(3, k + 1)."""
    engine = _abc_tau_map()
    kappa_k = kernel_report(k)
    kappa_k1 = kernel_report(k + 1)
    table = _bracket_table(3, k + 1)
    width = witt_dimension(3, k + 1)
    brackets = exactla._ColumnArrays.from_csr(*table.csr, width)
    cols = [coordinates(v) for v in kappa_k.kernel_basis]
    family = []
    for x in range(3):
        for col in cols:
            codes = table.code(1, x, np.array([w for w, _ in col])).tolist()
            family.append(brackets.apply([(code, c) for code, (_, c) in zip(codes, col)]))
    if not engine.tau_arrays(k + 1).kills(family):
        raise exactla.CertificateError("bracket of a kernel element left the kernel")
    return BracketMapReport(
        degree=k,
        rank=exactla.rank(exactla._ColumnArrays(family, width)),
        source_dim=3 * kappa_k.kernel_dim,
        target_dim=kappa_k1.kernel_dim,
    )
