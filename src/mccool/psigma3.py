"""The graded Lie ring of the rank-3 basis-conjugating group.

It decomposes as a semidirect product h x| g of two free Lie rings: h on
the inner classes C1, C2, C3 and g on a, b, c, with g acting on h
through tau under the identification C_i <-> X_i, which sd_bracket
applies with johnson.tau_apply through the tau engine's per-word memos.
The combined Johnson map sd_tau is ad on the h part plus tau on the g
part; its kernel in every degree lives in the g summand.  sd_tau_kernel
solves ad on the inner words, read from johnson's bracket table of the
next degree, stacked beside johnson's tau arrays of the degree; the
solve certifies each basis vector by one exact product with that matrix.
intersection_kappa checks this independently through the S3 translates
of g: g ^ c.g ^ c^2.g is the kernel of the h-parts of the c- and
c^2-translates of g, stacked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import exactla
from .derivations import Derivation, inner_derivation
from .freelie import (
    Alphabet,
    LieElement,
    abc_alphabet,
    coordinates,
    from_coordinates,
    lie_bracket,
    morphism_image,
    substitute,
    x_alphabet,
)
from .johnson import _ABC_PAIRS, _abc_tau_map, _assemble, _bracket_table, tau_apply, tau_evaluate
from .symmetry import _SYMBOL_CLASSES, S3_123, S3_132, S3Element, _permutation_images
from .words import lyndon_tuples, witt_dimension

__all__ = [
    "SDElement",
    "c_alphabet",
    "sd_bracket",
    "sd_rank",
    "sd_tau",
    "sd_s3_action",
    "sd_tau_kernel",
    "intersection_kappa",
]


@functools.lru_cache(maxsize=None)
def c_alphabet() -> Alphabet:
    return Alphabet(("C1", "C2", "C3"))


def _c_to_x(u: LieElement) -> LieElement:
    return LieElement(x_alphabet(3), u.degree, dict(u.coeffs), _trust=True)


def _x_to_c(u: LieElement) -> LieElement:
    return LieElement(c_alphabet(), u.degree, dict(u.coeffs), _trust=True)


@dataclass(frozen=True)
class SDElement:
    """Homogeneous element of h x| g: an inner part and a section part."""

    hpart: LieElement
    gpart: LieElement

    def __post_init__(self):
        if self.hpart.alphabet != c_alphabet():
            raise ValueError("hpart must live over the inner alphabet C1, C2, C3")
        if self.gpart.alphabet != abc_alphabet():
            raise ValueError("gpart must live over the section alphabet a, b, c")
        if self.hpart.degree != self.gpart.degree:
            raise ValueError("both parts must be homogeneous of the same degree")

    @property
    def degree(self) -> int:
        return self.hpart.degree

    @classmethod
    def from_h(cls, h: LieElement) -> "SDElement":
        return cls(h, LieElement.zero(abc_alphabet(), h.degree))

    @classmethod
    def from_g(cls, g: LieElement) -> "SDElement":
        return cls(LieElement.zero(c_alphabet(), g.degree), g)

    def is_zero(self) -> bool:
        return self.hpart.is_zero() and self.gpart.is_zero()

    def __add__(self, other: "SDElement") -> "SDElement":
        return SDElement(self.hpart + other.hpart, self.gpart + other.gpart)

    def __sub__(self, other: "SDElement") -> "SDElement":
        return SDElement(self.hpart - other.hpart, self.gpart - other.gpart)

    def __neg__(self) -> "SDElement":
        return SDElement(-self.hpart, -self.gpart)

    def scale(self, s) -> "SDElement":
        return SDElement(self.hpart.scale(s), self.gpart.scale(s))

    def __repr__(self):
        return f"SD(h={self.hpart!r}, g={self.gpart!r})"


def sd_bracket(u: SDElement, v: SDElement) -> SDElement:
    """Bracket of the semidirect product: g acts on h through tau."""
    h = lie_bracket(u.hpart, v.hpart)
    if not u.gpart.is_zero() and not v.hpart.is_zero():
        h = h + _x_to_c(tau_apply(u.gpart, _c_to_x(v.hpart)))
    if not v.gpart.is_zero() and not u.hpart.is_zero():
        h = h - _x_to_c(tau_apply(v.gpart, _c_to_x(u.hpart)))
    return SDElement(h, lie_bracket(u.gpart, v.gpart))


def sd_rank(k: int) -> int:
    """Rank of the degree-k part: twice the Witt dimension for 3 letters."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    return 2 * witt_dimension(3, k)


def sd_tau(u: SDElement) -> Derivation:
    """The combined Johnson map: ad on the inner part plus tau on the section."""
    return inner_derivation(_c_to_x(u.hpart)) + tau_evaluate(u.gpart)


@functools.lru_cache(maxsize=None)
def _g_word_memo(sigma: S3Element) -> dict:
    """The morphism_image memo of sigma on g, word w -> sigma.(0, b(w)),
    seeded with the letters: sigma . k_ij = k_{sigma(i) sigma(j)} for the
    symbol k_ij of a section letter, written in h x| g through
    _SYMBOL_CLASSES; sd_bracket builds the longer words."""
    memo = {}
    for letter, (i, j) in enumerate(_ABC_PAIRS):
        c_idx, g_idx, sign = _SYMBOL_CLASSES[(sigma(i), sigma(j))]
        h = LieElement(c_alphabet(), 1, {} if c_idx is None else {(c_idx,): 1}, _trust=True)
        memo[(letter,)] = SDElement(h, LieElement(abc_alphabet(), 1, {(g_idx,): sign}, _trust=True))
    return memo


def sd_s3_action(sigma: S3Element, u: SDElement) -> SDElement:
    """The graded Lie-automorphism action of S3 on h x| g."""
    # h is stable: sigma permutes the inner letters
    acc = SDElement.from_h(substitute(u.hpart, _permutation_images(sigma), c_alphabet()))
    memo = _g_word_memo(sigma)
    for word, c in u.gpart.coeffs.items():
        acc = acc + morphism_image(word, memo, sd_bracket).scale(c)
    return acc


# ---------------------------------------------------------------------------
# kernel of the combined map, and the intersection formula


def _sd_basis(k: int):
    """Basis of the degree-k part: C-words then abc-words."""
    words = lyndon_tuples(3, k)
    return [SDElement.from_h(LieElement(c_alphabet(), k, {w: 1}, _trust=True)) for w in words] + [
        SDElement.from_g(LieElement(abc_alphabet(), k, {w: 1}, _trust=True)) for w in words
    ]


def _sd_tau_arrays(k: int) -> exactla._ColumnArrays:
    """The matrix of sd_tau on _sd_basis(k), column j as sd_tau(b_j).column():
    ad of the inner words, then tau_arrays(k), the degree's tau matrix.
    Slot i of ad(b(w)) is [b(w), X_i], the row of the pair (w, X_i) in
    _bracket_table(3, k + 1), placed from row i * witt(3, k + 1)."""
    tau = _abc_tau_map().tau_arrays(k)
    table, width = _bracket_table(3, k + 1), witt_dimension(3, k + 1)
    col, slot = np.divmod(np.arange(3 * tau.ncols), 3)
    words, vals, lengths = exactla._gather(table.csr, table.code(k, col, slot))
    inner = np.repeat(col, lengths), words + np.repeat(slot * width, lengths), vals
    tau_part = tau.entry_columns() + tau.ncols, tau.rows, tau.vals
    return _assemble([inner, tau_part], 2 * tau.ncols, tau.nrows)


@functools.lru_cache(maxsize=None)
def sd_tau_kernel(k: int):
    """Kernel of sd_tau in degree k: a list of SDElements (certified basis).

    One certified solve of _sd_tau_arrays(k), which multiplies every
    basis vector exactly with those same arrays."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    vecs = exactla.kernel_lattice(_sd_tau_arrays(k))
    w = witt_dimension(3, k)
    return [
        SDElement(
            from_coordinates(c_alphabet(), k, v[:w]),
            from_coordinates(abc_alphabet(), k, v[w:]),
        )
        for v in vecs
    ]


def _g_translate_columns(sigma: S3Element, k: int):
    """Column j is the h-part of sigma.(0, w_j), w_j the j-th Lyndon word."""
    memo = _g_word_memo(sigma)
    return [coordinates(morphism_image(w, memo, sd_bracket).hpart) for w in lyndon_tuples(3, k)]


@functools.lru_cache(maxsize=None)
def intersection_kappa(k: int, /) -> int:
    """dim over Q of g ^ c.g ^ c^2.g in degree k, c the 3-cycle.

    x in g lies in sigma.g exactly when the h-part of sigma^-1.x
    vanishes, and c^-1 = c^2, so the intersection is the kernel of the
    stacked h-parts [H_c ; H_c^2] (2w x w, column j the h-part of the
    translate of the j-th basis word of g): one certified kernel solve.
    Must equal the kernel dimension of tau in that degree.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    w = witt_dimension(3, k)
    cols = [
        hc + [(i + w, v) for i, v in hcc]
        for hc, hcc in zip(_g_translate_columns(S3_123, k), _g_translate_columns(S3_132, k))
    ]
    return len(exactla.kernel_lattice(exactla._ColumnArrays(cols, 2 * w)))
