"""The symmetric group S3 acting on the free Lie ring on {a, b, c}.

The action comes from permuting the three strands: a permutation sigma
sends the generator symbol k_ij to k_{sigma(i) sigma(j)}, and the class
of k_ij is reduced modulo the inner classes via

    k31 = C1 - b,   k32 = C2 - a,   k23 = C3 - c,

so modulo the inner part the induced action on (a, b, c) is by signed
permutations, a graded Lie-ring automorphism at two granularities: per
word, act_on_polynomial (freelie.substitute) on single elements, and per
degree, johnson._letter_map_arrays on the whole Lyndon basis, read by
action_on_degree and by kernel_character, the trace of the action on the
degree-k kernel of tau, which is stable under the action.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .derivations import Derivation
from .exactla import SparseMat
from .freelie import LieElement, _add_into, abc_alphabet, coordinates, substitute
from .johnson import _ABC_PAIRS, _letter_map_arrays, kernel_report, tau_evaluate
from .words import lyndon_tuples

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


# the class of each symbol k_ij in h x| g, from k31 = C1 - b, k32 = C2 - a,
# k23 = C3 - c: (inner letter C_t or None, section letter, its sign)
_SYMBOL_CLASSES = {
    (1, 2): (None, 0, 1),  # a
    (2, 1): (None, 1, 1),  # b
    (1, 3): (None, 2, 1),  # c
    (3, 1): (0, 1, -1),  # C1 - b
    (3, 2): (1, 0, -1),  # C2 - a
    (2, 3): (2, 2, -1),  # C3 - c
}


@functools.lru_cache(maxsize=None)
def _abc_images(sigma: S3Element) -> tuple:
    """(sign, letter) of sigma on a, b, c modulo the inner part."""
    out = []
    for i, j in _ABC_PAIRS:
        _, target, sign = _SYMBOL_CLASSES[(sigma(i), sigma(j))]
        out.append((sign, target))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _permutation_images(sigma: S3Element) -> tuple:
    """sigma as the letter images (1, sigma(i) - 1) of three letters."""
    return tuple((1, sigma(i) - 1) for i in (1, 2, 3))


def action_on_generators(sigma: S3Element) -> SparseMat:
    """Signed 3x3 permutation matrix of sigma on (a, b, c), as columns."""
    entries = {}
    for letter, (sign, target) in enumerate(_abc_images(sigma)):
        entries[(target, letter)] = sign
    return SparseMat(3, 3, entries)


def act_on_polynomial(sigma: S3Element, p: LieElement) -> LieElement:
    """sigma acting on an element of the free Lie ring on {a, b, c}."""
    if p.alphabet != abc_alphabet():
        raise ValueError("the S3 action is defined on the {a,b,c} alphabet")
    return substitute(p, _abc_images(sigma), p.alphabet)


def action_on_degree(sigma: S3Element, k: int) -> SparseMat:
    """Matrix of sigma on the Lyndon basis of degree k over {a, b, c}."""
    arrays = _letter_map_arrays(_abc_images(sigma), k)
    return SparseMat.from_columns(list(arrays), arrays.nrows)


def act_on_derivation(sigma: S3Element, d: Derivation) -> Derivation:
    """The induced action on derivations: (sigma.d)(X_i) = sigma(d(X_{sigma^-1 i}))."""
    n = d.alphabet.size
    if n != 3:
        raise ValueError("the S3 action acts on derivations of L[3]")
    inv = sigma.inverse()
    images = tuple(
        substitute(d.images[inv(i + 1) - 1], _permutation_images(sigma), d.alphabet)
        for i in range(n)
    )
    return Derivation(d.alphabet, d.degree, images)


def _staircase_coords(cols, target):
    """Integer coordinates of target, given by its (row, coeff) pairs, in
    kernel basis vectors, or None when it lies outside their span.

    cols are the Lyndon coordinates of the basis vectors, in Hermite
    staircase form: vector i leads at a row where all later vectors
    vanish, so a forward triangular solve plus a full exact check
    decides membership.  The basis spans a saturated lattice, which holds
    every integer vector of its rational span, so a pivot that does not
    divide means target is outside the span.
    """
    residue = dict(target)
    coords = []
    for col in cols:
        lead_row, piv = col[0]
        x, rem = divmod(residue.get(lead_row, 0), piv)
        if rem:
            return None
        coords.append(x)
        if x:
            _add_into(residue, col, -x)
    return None if residue else coords


def kernel_character(k: int) -> Character:
    """Character of the degree-k kernel of tau as an S3 representation.

    Each basis vector's image is one exact product with sigma's letter-map
    arrays.  sigma carries the letter-content class C (the sorted letters
    of a vector's leading word) onto sigma C, so the image is solved
    against the vectors of sigma C alone, which can only refuse more, and
    only the classes sigma fixes add to the trace.  Raises KernelNotStable
    if an image is outside their span (it never is; the check is exact).
    """
    rep = kernel_report(k)
    words = lyndon_tuples(3, k)
    cols = [coordinates(p) for p in rep.kernel_basis]
    classes: dict = {}
    for col in cols:
        classes.setdefault(tuple(sorted(words[col[0][0]])), []).append(col)
    traces = {}
    for sigma in (S3_12, S3_123):
        images = _abc_images(sigma)
        arrays = _letter_map_arrays(images, k)
        traces[sigma] = 0
        for content, members in classes.items():
            moved = tuple(sorted(images[letter][1] for letter in content))
            basis = classes.get(moved, [])
            for t, col in enumerate(members):
                coords = _staircase_coords(basis, arrays.apply(col))
                if coords is None:
                    raise KernelNotStable(
                        f"sigma={sigma} moved a degree-{k} kernel vector off the kernel"
                    )
                if moved == content:
                    traces[sigma] += coords[t]
    return Character(len(cols), traces[S3_12], traces[S3_123])


def equivariance_check(sigma: S3Element, p: LieElement) -> bool:
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
