"""The Johnson morphism tau on basis-conjugating generator symbols.

tau sends the degree-1 class of the generator K_ij to the derivation

    d_ij : X_i -> [X_j, X_i],   X_t -> 0 (t != i)

of L[n] and extends as a Lie morphism.  For n = 3 the kernel lives in
the free Lie subring g on a = K_12, b = K_21, c = K_13; kernel_report
computes, degree by degree, the matrix of tau on the Lyndon basis of g
(rows indexed by pairs (generator slot, Lyndon word of degree k+1)) and
its certified integer kernel lattice.

The degree-6 kernel is generated by the 12-term left-normed element
omega(); every reported kernel basis vector is re-verified by exact
re-evaluation of tau.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import exactla
from .derivations import Derivation, der_bracket
from .exactla import SparseMat
from .freelie import (
    Alphabet,
    LieElement,
    abc_alphabet,
    coordinates,
    from_coordinates,
    left_normed,
    lie_bracket,
    x_alphabet,
)
from .freelie import _add_into, _bw
from .words import lyndon_index, lyndon_tuples, standard_factorization, witt_dimension

__all__ = [
    "LiePolynomial",
    "McCoolSymbols",
    "KernelReport",
    "BracketMapReport",
    "tau_generator",
    "tau_evaluate",
    "omega",
    "kernel_report",
    "bracket_map_rank",
    "KERNEL_DEGREE_CAP",
]

# elements of the free Lie ring on generator symbols are plain LieElements
LiePolynomial = LieElement

KERNEL_DEGREE_CAP = 9


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

    def symbol(self, i: int, j: int) -> LiePolynomial:
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
    images[i - 1] = LieElement(
        alphabet, 2, dict(_bw((j - 1,), (i - 1,))), _trust=True
    )
    return Derivation(alphabet, 1, tuple(images))


# the standard section for n = 3: a = K_12, b = K_21, c = K_13, as the
# generator pair (i, j) of each letter of {a, b, c}
_ABC_PAIRS = ((1, 2), (2, 1), (1, 3))


class TauMap:
    """tau on the free Lie ring over a symbol alphabet, built bottom-up.

    _word_cache[w] is the Derivation tau(b(w)) for a Lyndon word w over
    the symbols: tau_generator for a letter, and for the standard
    factorization w = (u, v) the der_bracket of tau(b(u)) and tau(b(v)),
    whose own word memos hold the single-word applications.  Images of
    degree-k words have degree k + 1, so tau_arrays(k) and evaluate() at
    degree k need freelie.degree_cap() >= k + 1 (set_degree_cap(11) for
    k = 10).
    """

    def __init__(self, symbol_alphabet: Alphabet, n: int, generator_pairs: tuple):
        # generator_pairs[t] is the pair (i, j) of K_ij for symbol letter t
        self.symbol_alphabet = symbol_alphabet
        self.n = n
        self._word_cache = {
            (t,): tau_generator(n, *pair) for t, pair in enumerate(generator_pairs)
        }
        self._arrays: dict = {}

    def of_word(self, word) -> Derivation:
        hit = self._word_cache.get(word)
        if hit is None:
            u, v = standard_factorization(word)
            hit = self._word_cache[word] = der_bracket(self.of_word(u), self.of_word(v))
        return hit

    def evaluate(self, p: LiePolynomial) -> Derivation:
        if p.alphabet != self.symbol_alphabet:
            raise ValueError("symbol alphabet mismatch")
        acc = tuple({} for _ in range(self.n))
        for word, c in p.coeffs.items():
            for slot, img in zip(acc, self.of_word(word).images):
                _add_into(slot, img.coeffs.items(), c)
        alphabet = x_alphabet(self.n)
        images = tuple(LieElement(alphabet, p.degree + 1, d, _trust=True) for d in acc)
        return Derivation(alphabet, p.degree, images)

    def tau_arrays(self, k: int) -> exactla._ColumnArrays:
        """The degree-k tau matrix as column arrays, built once per degree.

        Column j is Derivation.column() of tau of the j-th Lyndon word of
        degree k over the symbols (row i*witt(n,k+1)+word for image slot
        i).  The columns are streamed into the arrays one at a time, so no
        list of all columns is alive while they are built; the kernel
        solve and every kernel check of the degree read these arrays.
        """
        hit = self._arrays.get(k)
        if hit is None:
            domain = lyndon_tuples(self.symbol_alphabet.size, k)
            nnz = sum(len(img.coeffs) for w in domain for img in self.of_word(w).images)
            nrows = self.n * len(lyndon_index(self.n, k + 1))
            columns = (self.of_word(w).column() for w in domain)
            hit = self._arrays[k] = exactla._ColumnArrays(columns, nrows, nnz)
        return hit


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
    if all(lab.startswith("k") and len(lab) == 3 for lab in alphabet.labels):
        n = max(int(ch) for lab in alphabet.labels for ch in lab[1:])
        if mccool_symbols(n).alphabet == alphabet:
            return _mccool_tau_map(n)
    raise ValueError(f"no tau context for alphabet {alphabet!r}")


def tau_evaluate(p: LiePolynomial) -> Derivation:
    """tau(P) for P over {a, b, c} (n = 3) or over McCool symbols."""
    return tau_map_for(p.alphabet).evaluate(p)


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
def omega() -> LiePolynomial:
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


def sign_normalize(p: LiePolynomial) -> LiePolynomial:
    """Make the coefficient of the smallest Lyndon word positive."""
    if p.is_zero():
        return p
    lead = p.coeffs[min(p.coeffs)]
    return -p if lead < 0 else p


@functools.lru_cache(maxsize=None)
def kernel_report(k: int, with_divisors: bool = False) -> KernelReport:
    """Kernel of tau_k on g for n = 3, with a certified integer basis.

    with_divisors additionally computes the elementary divisors of the
    tau_k matrix (exact Smith form; about 0.95 s at k = 8 and 70 s at
    k = 9 on a 2-core machine).
    """
    if not (1 <= k <= KERNEL_DEGREE_CAP):
        raise ValueError(
            f"degree {k} outside the default cap {KERNEL_DEGREE_CAP}; "
            "call the engine directly to go higher"
        )
    engine = _abc_tau_map()
    arrays = engine.tau_arrays(k)
    domain = lyndon_tuples(3, k)
    basis_vecs = exactla._kernel_lattice_columns(arrays, arrays.nrows)
    divisors = None
    if with_divisors:
        mat = SparseMat.from_columns(list(arrays), arrays.nrows)
        divisors = exactla.smith_normal_form(mat).divisors
    alphabet = abc_alphabet()
    basis = tuple(sign_normalize(from_coordinates(alphabet, k, v)) for v in basis_vecs)
    # certify by re-evaluation: tau of each basis element must vanish
    if any(p.is_zero() for p in basis):
        raise exactla.CertificateError("zero vector reported in kernel basis")
    if not _tau_kills(engine, k, basis):
        raise exactla.CertificateError("kernel basis vector not killed by tau")
    dim = len(basis)
    return KernelReport(
        n=3,
        degree=k,
        domain_dim=len(domain),
        image_rank=len(domain) - dim,
        kernel_dim=dim,
        kernel_basis=basis,
        elementary_divisors=divisors,
    )


def _tau_kills(engine: TauMap, k: int, polys) -> bool:
    """Exact check that tau kills every degree-k polynomial in polys.

    Each polynomial's Lyndon coefficients become a vector through
    lyndon_index, which is multiplied exactly with the degree's tau
    arrays (exactla._ColumnArrays.kills).
    """
    idx = lyndon_index(3, k)
    vectors = [([idx[w] for w in p.coeffs], list(p.coeffs.values())) for p in polys]
    return not vectors or engine.tau_arrays(k).kills(vectors)


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
    """Rank of the span of [x, v], x a generator, v in the degree-k kernel."""
    if not (1 <= k <= KERNEL_DEGREE_CAP - 1):
        raise ValueError("need k+1 within the kernel degree cap")
    alphabet = abc_alphabet()
    engine = _abc_tau_map()
    kappa_k = kernel_report(k)
    kappa_k1 = kernel_report(k + 1)
    family = []
    for lab in alphabet.labels:
        x = LieElement.generator(alphabet, lab)
        for v in kappa_k.kernel_basis:
            family.append(lie_bracket(x, v))
    if not _tau_kills(engine, k + 1, family):
        raise exactla.CertificateError("bracket of a kernel element left the kernel")
    mat = SparseMat.from_columns([coordinates(el) for el in family], witt_dimension(3, k + 1))
    rank = exactla.rank(mat)
    return BracketMapReport(
        degree=k,
        rank=rank,
        source_dim=3 * kappa_k.kernel_dim,
        target_dim=kappa_k1.kernel_dim,
    )
