"""Exact sparse linear algebra over Z and Q.

Everything reported by this module is exact.  The kernel, and the rank
as cols - dim ker, come from one certified modular route:

  * the matrix is held once as compressed column arrays and cut into
    the connected blocks of its column-row incidence graph; each block
    is made dense once, exactly, and gets Gaussian eliminations mod
    23-bit primes, columns right to left (int64 with deferred reduction,
    entries below ncols * p^2 + p < 2^63, checked at run time), each
    followed by CRT + rational reconstruction of kernel vectors.  The
    first prime eliminates the whole block, later primes only its pivot
    rows, and the first prime whose candidates certify ends the block.
    The output is never trusted as such: independence comes from an
    exact Hermite reduction; saturation divides that basis by a Hermite
    basis of its column lattice, with no primes, certifies that the
    quotient's columns span Z^d and keeps the rational span; and each
    saturated row, as returned, gets one exact product with the whole
    matrix the caller passed, not with the block cut from it (int64
    within a per-row bound checked at run time, Python ints beyond it),
    so no caller needs one of its own.  The kernel dimension is
    certified by the sandwich

        rank_p(S) <= rank_Q(M) <= cols - #verified independent vectors,

    with rank_p(S) the rank of the whole block mod the prime that chose
    the pivot rows.  A block fails only when the prime pool runs out.

One Hermite engine, hnf_rows, serves the kernel (the canonical basis
and the independence check), saturation and the Smith form, which
alternates it on the rows and on the columns of each block.

The kernel of an integer matrix is automatically a saturated lattice;
the basis returned here is the (row-style) Hermite normal form of that
lattice, so identical inputs give bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "SparseMat",
    "SNFResult",
    "CertificateError",
    "rank",
    "kernel_lattice",
    "smith_normal_form",
    "intersect_columnspaces",
    "hnf_rows",
    "write_matrix_text",
    "read_matrix_text",
]


def _primes_below(bound: int, count: int) -> tuple:
    """The count largest primes below bound, descending, from a sieve of
    the last 4,096 integers below it by every d <= sqrt(bound)."""
    low = bound - 4096
    prime = np.ones(4096, dtype=bool)
    for d in range(2, math.isqrt(bound) + 1):
        prime[-low % d :: d] = False
    return tuple(int(m) for m in low + np.flatnonzero(prime)[::-1][:count])


# the 96 largest 23-bit primes, from the sieve: the deferred int64
# elimination stays exact up to ncols * p^2 + p < 2^63, about 2^17 columns
_PRIMES = _primes_below(1 << 23, 96)


def _int_pair(pair, what: str) -> tuple:
    """pair as two Python ints, numpy integers converted; anything else, a
    bool included, raises TypeError naming it as what."""
    if isinstance(pair, tuple) and len(pair) == 2:
        if all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in pair):
            return int(pair[0]), int(pair[1])
    raise TypeError(f"{what} {pair!r} must be a pair of ints")


class SparseMat:
    """Sparse matrix with exact entries: ints, or Fractions for ring Q.

    The dimensions, the keys and the entries are checked at construction:
    a numpy integer is stored as a Python int (no int64 arithmetic), and
    any other type, bool included, raises TypeError naming the dimensions,
    the key or the entry's position.  Zeros are dropped.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        rows, cols = _int_pair((rows, cols), "dimensions")
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for key, v in (entries or {}).items():
            # the common key, two Python ints, costs no call
            if not (type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int):
                key = _int_pair(key, "entry key")
            i, j = key
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) out of range")
            if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                v = int(v)
            elif not isinstance(v, Fraction):
                raise TypeError(f"entry ({i},{j}) must be int or Fraction, got {type(v)!r}")
            if v:
                clean[(i, j)] = v
        self.entries = clean

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_dense(cls, data) -> "SparseMat":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, {(i, j): v for i, r in enumerate(data) for j, v in enumerate(r)})

    @classmethod
    def from_columns(cls, columns, rows: int) -> "SparseMat":
        """columns: list of iterables of (row_index, value)."""
        entries = {(i, j): v for j, col in enumerate(columns) for i, v in col}
        return cls(rows, len(columns), entries)

    def columns(self) -> list:
        out = [[] for _ in range(self.cols)]
        for (i, j), v in sorted(self.entries.items(), key=lambda t: (t[0][1], t[0][0])):
            out[j].append((i, v))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class SNFResult:
    """Nonzero elementary divisors d1 | d2 | ... of an integer matrix."""

    divisors: tuple

    @property
    def rank(self) -> int:
        return len(self.divisors)


# ---------------------------------------------------------------------------
# text serialization ("rows cols nnz" header, then 1-indexed "i j value")


def write_matrix_text(m: SparseMat) -> str:
    lines = [f"{m.rows} {m.cols} {len(m.entries)}"]
    for (i, j), v in sorted(m.entries.items()):
        lines.append(f"{i + 1} {j + 1} {v}")
    return "\n".join(lines) + "\n"


def read_matrix_text(text: str) -> SparseMat:
    """Inverse of write_matrix_text: a malformed line, a zero entry or a
    second entry at one position raises ValueError naming the line."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()] or [""]
    try:
        rows, cols, nnz = (int(x) for x in lines[0].split())
    except ValueError:
        raise ValueError(f"bad header line {lines[0]!r}") from None
    if len(lines) - 1 != nnz:
        raise ValueError("entry count does not match header")
    entries = {}
    for ln in lines[1:]:
        try:
            i, j, v = ln.split()
            key = (int(i) - 1, int(j) - 1)
            value = Fraction(v) if "/" in v else int(v)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad entry line {ln!r}") from None
        if not (0 <= key[0] < rows and 0 <= key[1] < cols):
            raise ValueError(f"entry line {ln!r} is outside the {rows} x {cols} matrix")
        if key in entries:
            raise ValueError(f"entry line {ln!r} repeats position ({i}, {j})")
        if not value:
            raise ValueError(f"entry line {ln!r} is zero: the text lists only nonzero entries")
        entries[key] = value
    return SparseMat(rows, cols, entries)


# ---------------------------------------------------------------------------
# rational entries


def _cleared(m: SparseMat, axis: int) -> SparseMat:
    """m with the denominators of each row (axis 0) or column (axis 1)
    cleared: the kernel, the rank and the rational column span stay."""
    denoms: dict = {}
    for key, v in m.entries.items():
        if isinstance(v, Fraction):
            denoms[key[axis]] = math.lcm(denoms.get(key[axis], 1), v.denominator)
    if not denoms:
        return m
    return SparseMat(
        m.rows, m.cols, {key: int(v * denoms.get(key[axis], 1)) for key, v in m.entries.items()}
    )


# ---------------------------------------------------------------------------
# integer columns as arrays: the dense matrix and exact products


def _exact_array(values) -> np.ndarray:
    """Integers as an int64 array when every one fits, else dtype=object.

    Only ints and numpy integers are read: any other value, a bool or a
    Fraction included, raises TypeError naming it, where an int64 cast
    alone would truncate it.  An integer array is read by its dtype, a
    sequence by the set of its values' types, which map() builds in C.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "i":
            return values.astype(np.int64, copy=False)
        values = values.tolist()
    for t in set(map(type, values)):
        if t is bool or not issubclass(t, (int, np.integer)):
            bad = next(x for x in values if type(x) is t)
            raise TypeError(f"exact integer arrays take ints, not {bad!r}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _abs_max(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _row_dtype(nrows: int):
    return np.int32 if nrows < 1 << 31 else np.int64


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions start, ..., start + length - 1 of every span, concatenated."""
    pos = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    pos += np.arange(pos.size)
    return pos


def _indptr(counts) -> np.ndarray:
    """The int64 indptr of CSR rows with the row lengths counts."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _gather(csr, keys) -> tuple:
    """The entries of the rows keys of CSR arrays (indptr, words, values),
    row r at the positions indptr[r]:indptr[r + 1], concatenated in key
    order: words, values and the rows' lengths."""
    indptr, words, vals = csr
    lengths = indptr[keys + 1] - indptr[keys]
    pos = _spans(indptr[keys], lengths)
    return words[pos], vals[pos], lengths


def _append(store, csr) -> tuple:
    """The row of the CSR arrays store at which the rows of csr start once
    appended, and the arrays of store with them appended."""
    start = store[0].size - 1
    tail = (csr[0][1:] + store[0][-1],) + tuple(csr[1:])
    return start, tuple(np.concatenate(both) for both in zip(store, tail))


def _narrowest(vals: np.ndarray) -> np.ndarray:
    """Integer values in their narrowest exact dtype: int16 when every
    one fits, else int64 when every one fits, else object."""
    if vals.dtype == np.int16:
        return vals
    if not vals.size:
        return vals.astype(np.int16)
    lo, hi = int(vals.min()), int(vals.max())
    if -(1 << 15) <= lo and hi < 1 << 15:
        return vals.astype(np.int16)
    if -(1 << 63) <= lo and hi < 1 << 63:
        return vals.astype(np.int64, copy=False)
    return vals


class _ColumnArrays:
    """Integer columns in compressed sparse column form.

    Column j has the entries rows[indptr[j]:indptr[j+1]] (int32) with the
    values vals[indptr[j]:indptr[j+1]]: int16 when every entry fits, else
    int64 or a dtype=object array of Python ints.  Built once per matrix,
    the arrays are cut into the blocks of the certified kernel, give each
    block's exact dense matrix and the exact products that certify
    kernel vectors.  len() is ncols, and iteration yields each column as a
    list of (row, value) pairs.
    """

    __slots__ = ("rows", "vals", "nrows", "ncols", "indptr")

    def __init__(self, columns, nrows: int):
        entries = [e for col in columns for e in col]
        rows = np.array([i for i, _ in entries], dtype=_row_dtype(nrows))
        vals = _narrowest(_exact_array([v for _, v in entries]))
        self._set(_indptr([len(col) for col in columns]), rows, vals, nrows)

    @classmethod
    def from_csr(cls, indptr, rows, vals, nrows: int) -> "_ColumnArrays":
        """Arrays from compressed columns (indptr, rows, vals), with the
        dtypes a build from the same columns gives: int64 indptr, rows
        narrowed by nrows and values by _narrowest."""
        out = cls.__new__(cls)
        out._set(
            np.asarray(indptr, dtype=np.int64),
            np.asarray(rows).astype(_row_dtype(nrows), copy=False),
            _narrowest(np.asarray(vals)),
            nrows,
        )
        return out

    def _set(self, indptr, rows, vals, nrows) -> None:
        self.indptr, self.rows, self.vals = indptr, rows, vals
        self.nrows = nrows
        self.ncols = len(indptr) - 1

    def __len__(self) -> int:
        return self.ncols

    def __iter__(self):
        rows, vals = self.rows.tolist(), self.vals.tolist()
        bounds = self.indptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield list(zip(rows[lo:hi], vals[lo:hi]))

    def block(self, cols) -> "_ColumnArrays":
        """The submatrix of the columns cols, in that order, with the rows
        they touch renumbered 0.. in ascending order."""
        rows, vals, lengths = _gather(self.csr, np.asarray(cols, dtype=np.int64))
        touched, local = np.unique(rows, return_inverse=True)
        return _ColumnArrays.from_csr(_indptr(lengths), local, vals, touched.size)

    @property
    def csr(self) -> tuple:
        return self.indptr, self.rows, self.vals

    def entry_columns(self) -> np.ndarray:
        """The column index of every entry."""
        return np.repeat(np.arange(self.ncols), np.diff(self.indptr))

    def dense(self) -> np.ndarray:
        """The exact nrows x ncols matrix, repeated entries summed: int64
        for int16 values, whose sums cannot overflow, else dtype=object."""
        dtype = np.int64 if self.vals.dtype == np.int16 else object
        a = np.zeros((self.nrows, self.ncols), dtype=dtype)
        np.add.at(a, (self.rows, self.entry_columns()), self.vals.astype(dtype))
        return a

    def product(self, col_index, coeffs) -> tuple:
        """(touched, sums): sum_j x_j * column_j, exactly, for the vector x
        with the nonzero entries coeffs at col_index.  sums is dense and
        touched None, unless the matrix has more rows than entries (as in
        _column_blocks): then sums holds the rows at the ascending indices
        touched, those the vector's columns touch.

        A row sums at most n products, n the most entries of the vector's
        columns in any one row, so it is accumulated in int64 when
        n * max|a| * max|x| < 2^63 holds (a bound computed in Python
        ints), and in Python ints (dtype=object) when it does not.
        """
        x = _exact_array(coeffs)
        rows, vals, lengths = _gather(self.csr, np.asarray(col_index, dtype=np.int64))
        touched = None
        if self.nrows > self.rows.size:
            touched, rows = np.unique(rows, return_inverse=True)
        fits = (
            vals.dtype != object
            and x.dtype != object
            and int(np.bincount(rows, minlength=1).max()) * _abs_max(vals) * _abs_max(x)
            < 1 << 63
        )
        dtype = np.int64 if fits else object
        prod = vals.astype(dtype)
        prod *= np.repeat(x.astype(dtype), lengths)
        acc = np.zeros(self.nrows if touched is None else touched.size, dtype=dtype)
        np.add.at(acc, rows, prod)
        return touched, acc

    def apply(self, col) -> list:
        """The product with the vector of (column, coeff) pairs col, as
        the sorted (row, value) pairs of its nonzero entries."""
        touched, acc = self.product([j for j, _ in col], [c for _, c in col])
        nonzero = np.flatnonzero(acc)
        rows = nonzero if touched is None else touched[nonzero]
        return list(zip(rows.tolist(), acc[nonzero].tolist()))

    def kills(self, vectors) -> bool:
        """Exact check that sum_j x_j * column_j == 0 for every vector x,
        each a pair (col_index, coeffs) of its nonzero entries."""
        return not any(self.product(*vector)[1].any() for vector in vectors)


def _forward_elim_deferred(a: np.ndarray, p: int) -> tuple:
    """Forward elimination mod p on an int64 matrix, reducing late.

    A column is reduced mod p when it is searched for a pivot, and a row
    when it becomes the pivot row; the rows below a pivot are updated
    without reduction.  Pivot rows end up in rows 0..rank-1 with their
    pivots and every entry right of them in [0, p).  An update adds less
    than p^2 to an entry, at most once per pivot, so every entry stays
    below ncols * p^2 + p in absolute value (checked by the caller).

    Returns the pivot columns and the input rows the swaps moved into the
    pivot positions: rank rows that are independent mod p and span the
    row space mod p.
    """
    nrows, ncols = a.shape
    order = np.arange(nrows)
    pivots: list = []
    r = 0
    for j in range(ncols):
        if r == nrows:
            break
        col = a[r:, j] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + nz[0]
            a[[r, i]] = a[[i, r]]
            order[[r, i]] = order[[i, r]]
        piv = int(col[nz[0]])
        a[r, j] = piv
        prow = a[r, j + 1 :]
        prow %= p
        if nz.size > 1:
            # after the swap, the rows below with a nonzero entry mod p are
            # exactly the other rows of nz (row r held a zero if it moved)
            mults = col[nz[1:]] * pow(piv, p - 2, p) % p
            below = r + nz[1:]
            a[below, j + 1 :] -= np.outer(mults, prow)
        pivots.append(j)
        r += 1
    return pivots, order[:r]


def _back_substitute(u: np.ndarray, pivots: list, p: int) -> np.ndarray:
    """Canonical nullspace basis mod p from echelon rows.

    Row i of u has its pivot in column pivots[i], and its pivot and every
    entry right of it lie in [0, p).  The basis has one row per free
    column f: x_f = 1, the other free coordinates 0, and the pivot
    coordinates solved from the last pivot up.  A row sum adds fewer than
    ncols products below p^2, which the caller checks against 2^63.
    """
    ncols = u.shape[1]
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    x = np.zeros((ncols, len(free)), dtype=np.int64)
    if not free:
        return x.T
    x[free, np.arange(len(free))] = 1
    for i in range(len(pivots) - 1, -1, -1):
        j = pivots[i]
        s = (u[i, j + 1 :] @ x[j + 1 :]) % p
        x[j] = (p - s) * pow(int(u[i, j]), p - 2, p) % p
    return x.T.copy()


def _nullspace_mod(a_int: np.ndarray, p: int):
    """Pivot columns, pivot rows and canonical nullspace basis mod p.

    a_int is an integer matrix, int64 or dtype=object; this is the one
    place that reduces it mod p, into a fresh int64 copy.  The pivot rows
    are the input rows that _forward_elim_deferred moved into the pivot
    positions.  The basis has one row per free column f: the vector with
    x_f = 1, other free coordinates 0, pivot coordinates solved mod p.
    The deferred-reduction int64 elimination and the back-substitution
    are exact while entries and row sums stay below ncols * p^2 + p
    < 2^63; that bound is checked here, once per call.
    """
    ncols = a_int.shape[1]
    if ncols * p * p + p >= 1 << 63:
        raise RuntimeError(
            f"int64 elimination bound ncols * p^2 + p < 2^63 fails "
            f"for {ncols} columns mod {p}"
        )
    a = (a_int % p).astype(np.int64, copy=False)
    pivots, rows = _forward_elim_deferred(a, p)
    return pivots, rows, _back_substitute(a, pivots, p)


# ---------------------------------------------------------------------------
# CRT and rational reconstruction


def _crt_pair(r1: int, m1: int, r2: int, m2: int):
    inv = pow(m1, -1, m2)
    x = (r1 + m1 * (((r2 - r1) * inv) % m2)) % (m1 * m2)
    return x, m1 * m2


def _rat_reconstruct(a: int, m: int):
    """num/den with num = a*den mod m, |num|, den <= sqrt(m/2); or None."""
    a %= m
    bound = math.isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if math.gcd(r1, abs(s1)) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


# ---------------------------------------------------------------------------
# Hermite reduction of a small integer row basis


def _row_submul(r, q, s, start=0):
    if q:
        for c in range(start, len(r)):
            r[c] -= q * s[c]


def _row_bits(r) -> int:
    return abs(max(r, key=abs)).bit_length()


# hnf_rows refuses rows with an entry of more bits than this
_HNF_BITS = 100_000


def hnf_rows(rows: list) -> list:
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Returns the reduced rows (full row rank, pivots positive, entries
    above each pivot reduced into [0, pivot)), sorted by pivot column.
    Zero rows are dropped.  A RuntimeError is raised once an entry of the
    elimination exceeds _HNF_BITS bits.

    Growth control: each column is cleared by reducing every row against
    the current minimum in one batch (Euclid converges across the whole
    column).  The rows left after a pivot is taken are zero in its column
    and in every earlier one, so no pivot can reduce them further.

    Range guard: bits[id(r)] bounds the entry sizes of row r.  After
    r -= q * s no entry of r has more than max(bits(r), bits(q) + bits(s))
    + 1 bits, so a row is scanned only when that bound passes _HNF_BITS.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    bits = {id(r): _row_bits(r) for r in work}
    result = []  # (pivot_col, row)
    for col in range(ncols):
        occ = [r for r in work if r[col]]
        if not occ:
            continue
        while len(occ) > 1:
            occ.sort(key=lambda r: abs(r[col]))
            base = occ[0]
            bval = base[col]
            for r in occ[1:]:
                q = r[col] // bval
                _row_submul(r, q, base, col)
                bound = max(bits[id(r)], q.bit_length() + bits[id(base)]) + 1
                if bound > _HNF_BITS:
                    bound = _row_bits(r)
                    if bound > _HNF_BITS:
                        raise RuntimeError("hnf_rows entries exceed the supported range")
                bits[id(r)] = bound
            occ = [r for r in occ if r[col]]
        piv_row = occ[0]
        if piv_row[col] < 0:
            for c in range(col, ncols):
                piv_row[c] = -piv_row[c]
        work.remove(piv_row)
        result.append((col, piv_row))
        if not work:
            break
    # reduce above-pivot entries in ascending pivot order, so later
    # reductions never disturb columns that are already reduced
    for i in range(len(result)):
        pcol, prow = result[i]
        piv = prow[pcol]
        for k in range(i):
            _row_submul(result[k][1], result[k][1][pcol] // piv, prow, pcol)
    return [tuple(r) for _, r in result]


# ---------------------------------------------------------------------------
# exact verification helpers


class CertificateError(RuntimeError):
    """An exact check that certifies a result failed."""


def _saturate_rows(v: list) -> list:
    """Certified Hermite basis of the saturation of an integer row basis.

    V, the rows, must be a Hermite basis (hnf_rows) of d independent
    rows.  When every pivot is 1 the pivot-column minor is 1 and V is
    saturated.  Otherwise C, the Hermite form of V's columns, is an upper
    triangular d x d basis of the lattice they span in Z^d, and forward
    substitution solves C^T B = V exactly.  B's columns span Z^d, so B
    has an integer right inverse and its rows span every integer point of
    Q V (Cohen 1993, section 2.4).  That spanning is certified, not
    assumed: the Hermite form of B's columns must be the identity.
    B = C^-T V, computed exactly, has rank d, so B and V span the same
    rational space: B's rows are kernel vectors exactly when V's are.
    """
    d = len(v)
    if any(next(x for x in row if x) != 1 for row in v):
        c = hnf_rows(list(zip(*v)))  # d x d: V has rank d
        b = []
        for i in range(d):
            row = list(v[i])
            for s in range(i):
                _row_submul(row, c[s][i], b[s])
            piv = c[i][i]
            if any(x % piv for x in row):
                raise CertificateError("saturation solve C^T B = V is not exact")
            b.append([x // piv for x in row])
        unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        if hnf_rows(list(zip(*b))) != unit:
            raise CertificateError("saturation basis columns do not span Z^d")
        v = hnf_rows(b)
        if len(v) != d:
            raise CertificateError("saturation lost rank")
    return v


# ---------------------------------------------------------------------------
# the certified kernel


def _pivot_signature_key(pivots) -> tuple:
    # the true rational pivot sequence has maximal rank and, among equal
    # ranks, the componentwise-smallest (earliest) columns; _kernel_block
    # eliminates the columns right to left, so the pivots are read in
    # that frame
    return (-len(pivots), tuple(pivots))


def _kernel_lattice_columns(arrays: _ColumnArrays, nrows: int) -> list:
    """Certified Hermite basis of the integer kernel lattice of the columns.

    nrows is arrays.nrows: only the exactla.kernel span of perfbench reads
    it.  The columns are split into the connected components of their
    column-row incidence graph: two columns are in one block when they
    share a row, and all zero columns form one block.  Up to a
    permutation of rows and columns the matrix is then block diagonal,
    so its kernel lattice is the direct sum of the blocks' kernel
    lattices.  Each block is solved on its own by _kernel_block, which
    certifies every row against the whole arrays.  Embedded back in
    global coordinates, a block's Hermite rows keep their pivots
    and are zero in every other block's columns, so the rows of all blocks
    sorted by pivot column satisfy the Hermite conditions for the whole
    lattice.  The Hermite normal form is unique, hence this is exactly the
    basis one solve of the unsplit matrix returns.
    """
    out = []
    for cols in _column_blocks(arrays):
        cols = cols.tolist()
        for vec in _kernel_block(arrays, cols):
            full = [0] * arrays.ncols
            for j, x in zip(cols, vec):
                full[j] = x
            pivot = next(j for j, x in zip(cols, vec) if x)
            out.append((pivot, tuple(full)))
    out.sort()
    return [vec for _, vec in out]


def _column_blocks(arrays: _ColumnArrays) -> list:
    """Column indices of each connected component, as ascending int arrays.

    Columns sharing a row are in one component; zero columns form one.
    Every column carries the label of a column of its component.  Each
    round takes the smallest label over the columns of each row, gives
    each column the smallest label over its rows, hooks the column a label
    names onto the smaller label (union by index) and jumps every label to
    its root (path compression).  Labels only fall, and a round that
    changes none leaves one label per component.
    """
    ncols, nrows = arrays.ncols, arrays.nrows
    cols = arrays.entry_columns()
    rows = arrays.rows
    if nrows > rows.size:
        # more rows than entries: number the touched rows alone
        touched, rows = np.unique(rows, return_inverse=True)
        nrows = touched.size
    label = np.arange(ncols)
    row_min = np.empty(nrows, dtype=np.int64)
    while True:
        row_min.fill(ncols)
        np.minimum.at(row_min, rows, label[cols])
        new = label.copy()
        np.minimum.at(new, cols, row_min[rows])
        np.minimum.at(new, label, new)
        while True:
            jumped = new[new]
            if (jumped == new).all():
                break
            new = jumped
        if (new == label).all():
            break
        label = new
    label[np.diff(arrays.indptr) == 0] = -1
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order])) + 1
    return np.split(order, starts) if ncols else []


def _kernel_block(arrays: _ColumnArrays, cols) -> list:
    """Certified Hermite basis of the kernel lattice of the block of
    columns cols of arrays, with entry j at column cols[j].

    The block is cut by arrays.block(cols), made dense once, its columns
    flipped, and the primes of _PRIMES are taken in order.  Each gives a
    pivot signature and a nullspace basis mod p; the primes kept are
    those of the best signature so far (a better one starts the list
    afresh).  The columns are eliminated right to left, so each basis mod
    p is the leading reduced echelon form of the kernel, whose rational
    entries are small.  The first prime eliminates the whole block; its r
    pivot rows are independent mod p, so of rank r over Q, and every
    later prime eliminates only those rows.  After each prime that joins
    the kept signature, the kept bases are lifted by CRT and rational
    reconstruction; independent candidates certify when their saturation
    (same rational span) passes one exact product with arrays, not with
    the block: a faulty cut cannot pass that whole-matrix check.
    Candidates that fail send the next prime to the whole block again,
    which re-derives the rows.  A RuntimeError naming the block is raised
    when the pool runs out first.  The block of zero columns has no rows:
    its nullspace mod the first prime is the identity, which certifies.
    """
    block = arrays.block(cols)
    dense = block.dense()[:, ::-1]
    best, kept = None, []  # kept: (p, nullspace mod p) of the best signature
    rows = None  # the pivot rows later primes eliminate; None: the whole block
    for p in _PRIMES:
        pivots, pivot_rows, null = _nullspace_mod(dense if rows is None else dense[rows], p)
        key = _pivot_signature_key(pivots)
        if best is None or key < best:
            best, kept = key, []
        if key != best:
            continue
        kept.append((p, null[::-1, ::-1]))
        if rows is None:
            rows = pivot_rows
        cands = _reconstruct_candidates([b for _, b in kept], [q for q, _ in kept])
        if cands is not None:
            basis = hnf_rows(cands)
            if len(basis) == len(cands):
                basis = _saturate_rows(basis)
                vectors = (
                    ([j for j, x in zip(cols, row) if x], [x for x in row if x]) for row in basis
                )
                if arrays.kills(vectors):
                    # sandwich: rank_p <= rank_Q, rank_p the rank of the
                    # whole block mod the prime that chose the rows, so
                    # d = ncols - rank_p verified independent integer
                    # kernel vectors force rank_Q = rank_p
                    return basis
            rows = None
    raise RuntimeError(
        f"modular kernel failed to certify a {block.nrows}x{block.ncols} block: "
        f"no prime set certified within the pool of {len(_PRIMES)} primes"
    )


def _reconstruct_candidates(bases, primes):
    """Integer candidates lifted from the nullspace bases mod the primes
    (of one pivot signature, so of one shape) by CRT and rational
    reconstruction, each distinct residue tuple once.  A row scaled by
    the lcm den of its reduced denominators is primitive, so no content
    is divided out: it is 1 at its free column, as every row of
    _nullspace_mod is, so its content divides den, and for each prime q
    of den the entry whose denominator holds q's full power stays prime
    to q."""
    stacked = np.stack(bases, axis=1).tolist()
    lifted = {(0,) * len(primes): (0, 1)}
    out = []
    for row in stacked:
        vec_fracs = []
        for key in zip(*row):
            rec = lifted.get(key)
            if rec is None:
                x, m = key[0], primes[0]
                for t in range(1, len(primes)):
                    x, m = _crt_pair(x, m, key[t], primes[t])
                rec = lifted[key] = _rat_reconstruct(x, m)
                if rec is None:
                    return None
            vec_fracs.append(rec)
        den = 1
        for _, dd in vec_fracs:
            den = den // math.gcd(den, dd) * dd
        out.append([num * (den // dd) for num, dd in vec_fracs])
    return out


def _column_arrays(m: "SparseMat | _ColumnArrays") -> _ColumnArrays:
    """Column arrays as they are; a SparseMat as column arrays, each row's Fractions cleared."""
    return _ColumnArrays(_cleared(m, 0).columns(), m.rows) if isinstance(m, SparseMat) else m


def kernel_lattice(m: "SparseMat | _ColumnArrays") -> list:
    """Basis of the saturated integer kernel lattice {v : M v = 0}.

    Returns tuples of ints: the Hermite normal form of the kernel
    lattice (deterministic; first nonzero entry of each vector is
    positive).  m is a SparseMat, its Fraction entries cleared row by row
    first (same kernel), or an integer _ColumnArrays, read as it is.
    """
    arrays = _column_arrays(m)
    return _kernel_lattice_columns(arrays, arrays.nrows)


def rank(m: "SparseMat | _ColumnArrays") -> int:
    """Exact rank over Q of a SparseMat or a _ColumnArrays, certified as cols - dim ker."""
    arrays = _column_arrays(m)
    return arrays.ncols - len(kernel_lattice(arrays))


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(m: "SparseMat | _ColumnArrays") -> SNFResult:
    """Elementary divisors d1 | d2 | ... (positive, nonzero ones only).

    m is a SparseMat or, as elementary_divisors passes a tau matrix, a
    _ColumnArrays, which is read as it is.  Up to a permutation of rows
    and columns the matrix is the direct sum of its _column_blocks, so it
    is equivalent to the diagonal of all the blocks' pivots, which
    _invariant_factors turns into the divisor chain.
    """
    if isinstance(m, SparseMat) and any(isinstance(v, Fraction) for v in m.entries.values()):
        raise ValueError("smith_normal_form requires integer entries")
    m = _column_arrays(m)
    diagonal = []
    for cols in _column_blocks(m):
        diagonal.extend(_smith_diagonal(m.block(cols)))
    return SNFResult(_invariant_factors(diagonal))


def _smith_diagonal(block: _ColumnArrays) -> list:
    """Diagonal of the integer columns under unimodular row and column
    operations, by alternating Hermite forms of the rows and of their
    transpose (Kannan and Bachem 1979) until every row has one nonzero.

    After a row HNF the first column is (a, 0, ...); the next HNF makes a
    the gcd of the first row, so a either falls or divides its row and
    column, which are then cleared and never touched again.  The dense
    rows are the block's rows as block() numbers them, 0..nrows-1; a block
    with no rows has no diagonal.
    """
    rows = block.dense().tolist()
    while True:
        rows = hnf_rows(rows)
        if all(len(r) - r.count(0) == 1 for r in rows):
            return [max(r) for r in rows]
        rows = list(zip(*rows))


def _invariant_factors(diagonal) -> tuple:
    """The divisor chain of a diagonal matrix: sort, then replace
    neighbours (a, b) by (gcd, lcm) until each divides the next."""
    divisors = sorted(diagonal)
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a, b = divisors[i], divisors[i + 1]
            if b % a:
                g = math.gcd(a, b)
                divisors[i], divisors[i + 1] = g, a * b // g
                changed = True
        divisors.sort()
    return tuple(divisors)


# ---------------------------------------------------------------------------
# intersections


def intersect_columnspaces(bases: list) -> SparseMat:
    """Basis of the intersection of the rational column spans.

    All matrices must have the same row count.  The result's columns are
    integer vectors spanning the intersection over Q, Hermite-reduced
    for determinism.
    """
    if not bases:
        raise ValueError("need at least one basis")
    nrows = bases[0].rows
    if any(b.rows != nrows for b in bases):
        raise ValueError("row counts differ")
    # a column scaled by the lcm of its denominators spans the same line
    current, *others = (_cleared(b, 1).columns() for b in bases)
    for other in others:
        # x = A y = B z exactly when (y, z) is in the kernel of [A | -B];
        # the images A y are taken on the rows the columns touch
        a = range(len(current))
        stacked = _ColumnArrays(current + [[(i, -v) for i, v in col] for col in other], nrows)
        touched = np.unique(stacked.rows).tolist()
        local = stacked.block(range(stacked.ncols))
        images = [local.product(a, vec[: len(a)])[1].tolist() for vec in kernel_lattice(local)]
        current = [[(touched[i], x) for i, x in enumerate(row) if x] for row in hnf_rows(images)]
    return SparseMat.from_columns(current, nrows)
