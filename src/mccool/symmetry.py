"""The symmetric group S3 acting on the free Lie ring on {a, b, c}.

The action comes from permuting the three strands: a permutation sigma
sends the generator symbol k_ij to k_{sigma(i) sigma(j)}, and the class
of k_ij is reduced modulo the inner classes via

    k31 = C1 - b,   k32 = C2 - a,   k23 = C3 - c,

so modulo the inner part the induced action on (a, b, c) is by signed
permutations.  action_on_degree extends it as a graded Lie-ring
automorphism; kernel_character reads off the trace of the action on the
degree-k kernel of tau, which is stable under the action.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .derivations import Derivation
from .exactla import SparseMat
from .freelie import LieElement, abc_alphabet, lie_bracket
from .johnson import LiePolynomial, kernel_report, tau_evaluate
from .words import lyndon_index, lyndon_tuples, standard_factorization

__all__ = [
    "S3Element",
    "S3_ID",
    "S3_12",
    "S3_13",
    "S3_23",
    "S3_123",
    "S3_132",
    "S3_ALL",
    "Character",
    "KernelNotStable",
    "action_on_generators",
    "action_on_degree",
    "act_on_polynomial",
    "act_on_derivation",
    "kernel_character",
    "equivariance_check",
]


class KernelNotStable(RuntimeError):
    """The image of a kernel vector left the kernel span."""


class S3Element:
    """A permutation of {1, 2, 3}, stored as (sigma(1), sigma(2), sigma(3))."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != [1, 2, 3]:
            raise ValueError("not a permutation of {1, 2, 3}")
        self.images = images

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "S3Element") -> "S3Element":
        # (self * other)(i) = self(other(i))
        return S3Element(tuple(self(other(i)) for i in (1, 2, 3)))

    def inverse(self) -> "S3Element":
        inv = [0, 0, 0]
        for i in (1, 2, 3):
            inv[self(i) - 1] = i
        return S3Element(inv)

    @property
    def cycle_type(self) -> str:
        fixed = sum(1 for i in (1, 2, 3) if self(i) == i)
        return {3: "id", 1: "transposition", 0: "3-cycle"}[fixed]

    def __eq__(self, other):
        return isinstance(other, S3Element) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"S3{self.images}"


S3_ID = S3Element((1, 2, 3))
S3_12 = S3Element((2, 1, 3))
S3_13 = S3Element((3, 2, 1))
S3_23 = S3Element((1, 3, 2))
S3_123 = S3Element((2, 3, 1))  # 1 -> 2 -> 3 -> 1
S3_132 = S3Element((3, 1, 2))
S3_ALL = (S3_ID, S3_12, S3_13, S3_23, S3_123, S3_132)


class Character(tuple):
    """(chi(id), chi(transposition), chi(3-cycle)) of an S3 representation."""

    def __new__(cls, at_id, at_transposition, at_three_cycle):
        return super().__new__(cls, (at_id, at_transposition, at_three_cycle))

    @property
    def dimension(self):
        return self[0]

    def multiplicities(self):
        """Multiplicities (trivial, sign, standard) in the S3 character table.

        Solves chi = a*(1,1,1) + b*(1,-1,1) + c*(2,0,-1) exactly; raises
        if the solution is not a nonnegative integer triple.
        """
        chi_id, chi_t, chi_c = self
        a = Fraction(chi_id + 3 * chi_t + 2 * chi_c, 6)
        b = Fraction(chi_id - 3 * chi_t + 2 * chi_c, 6)
        c = Fraction(chi_id - chi_c, 3)
        triple = (a, b, c)
        if any(x.denominator != 1 or x < 0 for x in triple):
            raise ValueError(f"character {tuple(self)} is not a nonnegative combination")
        return tuple(int(x) for x in triple)


# reduction of the six symbol classes modulo the inner part:
# (i, j) -> (sign, letter index in (a, b, c))
_SYMBOL_REDUCTION = {
    (1, 2): (1, 0),
    (2, 1): (1, 1),
    (1, 3): (1, 2),
    (3, 1): (-1, 1),
    (3, 2): (-1, 0),
    (2, 3): (-1, 2),
}
_ABC_PAIR = {0: (1, 2), 1: (2, 1), 2: (1, 3)}


def _letter_image(sigma: S3Element, letter: int):
    i, j = _ABC_PAIR[letter]
    return _SYMBOL_REDUCTION[(sigma(i), sigma(j))]


def action_on_generators(sigma: S3Element) -> SparseMat:
    """Signed 3x3 permutation matrix of sigma on (a, b, c), as columns."""
    entries = {}
    for letter in range(3):
        sign, target = _letter_image(sigma, letter)
        entries[(target, letter)] = sign
    return SparseMat(3, 3, entries)


@functools.lru_cache(maxsize=None)
def _act_word(sigma: S3Element, word) -> LieElement:
    alphabet = abc_alphabet()
    if len(word) == 1:
        sign, target = _letter_image(sigma, word[0])
        return LieElement(alphabet, 1, {(target,): sign}, _trust=True)
    u, v = standard_factorization(word)
    return lie_bracket(_act_word(sigma, u), _act_word(sigma, v))


def act_on_polynomial(sigma: S3Element, p: LiePolynomial) -> LiePolynomial:
    """sigma acting on an element of the free Lie ring on {a, b, c}."""
    if p.alphabet != abc_alphabet():
        raise ValueError("the S3 action is defined on the {a,b,c} alphabet")
    acc: dict = {}
    for word, c in p.coeffs.items():
        for ww, cc in _act_word(sigma, word).coeffs.items():
            val = acc.get(ww, 0) + c * cc
            if val:
                acc[ww] = val
            elif ww in acc:
                del acc[ww]
    return LieElement(p.alphabet, p.degree, acc, _trust=True)


def action_on_degree(sigma: S3Element, k: int) -> SparseMat:
    """Matrix of sigma on the Lyndon basis of degree k over {a, b, c}."""
    idx = lyndon_index(3, k)
    entries = {}
    for j, w in enumerate(lyndon_tuples(3, k)):
        img = _act_word(sigma, w)
        for ww, c in img.coeffs.items():
            entries[(idx[ww], j)] = c
    return SparseMat(len(idx), len(idx), entries)


def act_on_derivation(sigma: S3Element, d: Derivation) -> Derivation:
    """The induced action on derivations: (sigma.d)(X_i) = sigma(d(X_{sigma^-1 i}))."""
    n = d.alphabet.size
    if n != 3:
        raise ValueError("the S3 action acts on derivations of L[3]")
    inv = sigma.inverse()

    def permute_letters(u: LieElement) -> LieElement:
        coeffs = {}
        for word, c in u.coeffs.items():
            img = _permuted_word(sigma, word, d.alphabet)
            for ww, cc in img.coeffs.items():
                coeffs[ww] = coeffs.get(ww, 0) + c * cc
        coeffs = {w: c for w, c in coeffs.items() if c}
        return LieElement(d.alphabet, u.degree, coeffs, _trust=True)

    images = tuple(
        permute_letters(d.images[inv(i + 1) - 1]) for i in range(n)
    )
    return Derivation(d.alphabet, d.degree, images)


@functools.lru_cache(maxsize=None)
def _permuted_word(sigma: S3Element, word, alphabet) -> LieElement:
    if len(word) == 1:
        return LieElement(alphabet, 1, {(sigma(word[0] + 1) - 1,): 1}, _trust=True)
    u, v = standard_factorization(word)
    return lie_bracket(_permuted_word(sigma, u, alphabet), _permuted_word(sigma, v, alphabet))


class _StaircaseBasis:
    """Kernel basis in Hermite staircase form, for exact coordinate solves.

    Vector i has its leading Lyndon word at a row where all later
    vectors vanish, so a forward triangular solve plus a full exact
    check decides membership.
    """

    def __init__(self, basis, degree: int):
        self.degree = degree
        domain = lyndon_tuples(3, degree)
        self.idx = {w: r for r, w in enumerate(domain)}
        self.cols = []
        for p in basis:
            col = [(self.idx[w], c) for w, c in sorted(p.coeffs.items())]
            self.cols.append(col)
        self.lead = [col[0] for col in self.cols]

    def coords(self, target: LiePolynomial):
        """Exact coordinates of target, or None if it is outside the span.

        A coordinate is an int when its pivot divides exactly and a
        Fraction only when it does not.
        """
        if not self.cols:
            return [] if target.is_zero() else None
        residue: dict = {}
        for w, c in target.coeffs.items():
            residue[self.idx[w]] = c
        coords = []
        for col, (lead_row, piv) in zip(self.cols, self.lead):
            val = residue.get(lead_row, 0)
            x, rem = divmod(val, piv)
            if rem:
                x = Fraction(val, piv)
            coords.append(x)
            if x:
                for r, v in col:
                    val = residue.get(r, 0) - x * v
                    if val:
                        residue[r] = val
                    elif r in residue:
                        del residue[r]
        if residue:
            return None
        return coords


def _coords_in_basis(basis, target: LiePolynomial):
    """Exact coordinates of target in the Hermite-staircase kernel basis."""
    if not basis:
        return None if not target.is_zero() else []
    return _StaircaseBasis(basis, target.degree).coords(target)


def kernel_character(k: int) -> Character:
    """Character of the degree-k kernel of tau as an S3 representation.

    Raises KernelNotStable if the action were to carry a kernel basis
    vector outside the kernel span (it never does; the check is exact).
    """
    rep = kernel_report(k)
    basis = list(rep.kernel_basis)
    if not basis:
        return Character(0, 0, 0)
    stair = _StaircaseBasis(basis, k)
    traces = {}
    for sigma in (S3_12, S3_123):
        tr = Fraction(0)
        for t, p in enumerate(basis):
            image = act_on_polynomial(sigma, p)
            coords = stair.coords(image)
            if coords is None:
                raise KernelNotStable(
                    f"sigma={sigma} moved a degree-{k} kernel vector off the kernel"
                )
            tr += coords[t]
        if tr.denominator != 1:
            raise KernelNotStable("non-integral trace")
        traces[sigma] = int(tr)
    return Character(len(basis), traces[S3_12], traces[S3_123])


def equivariance_check(sigma: S3Element, p: LiePolynomial) -> bool:
    """Exact check that tau(sigma . P) equals sigma . tau(P).

    The left side uses the full action on the semidirect Lie ring (the
    image of P may pick up an inner component), evaluated through the
    combined Johnson map; the right side is the derivation-level action.
    """
    from . import psigma3  # local import; psigma3 depends on this module

    sd = psigma3.SDElement.from_g(p)
    left = psigma3.sd_tau(psigma3.sd_s3_action(sigma, sd))
    right = act_on_derivation(sigma, tau_evaluate(p))
    return left == right
