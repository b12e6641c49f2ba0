"""Positive-degree derivations of the free Lie ring.

A degree-k derivation (k >= 1) is stored by its tuple of images of the
degree-1 generators, each a degree-(k+1) LieElement; the Leibniz rule
then determines it everywhere.  apply() and der_bracket() (and so tau)
evaluate by structural recursion over standard bracketings, with a
per-derivation memo of word images as coefficient dicts, which recursion
reuses; apply_via_tensor() is the tensor-ring cross-check (a test oracle).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactla import _ColumnArrays, kernel_lattice
from .freelie import (
    Alphabet,
    LieElement,
    TensorElement,
    _add_brackets,
    _add_into,
    coordinates,
    from_coordinates,
    from_tensor,
    lie_bracket,
    to_tensor,
)
from .words import lyndon_index, lyndon_tuples, standard_factorization

__all__ = [
    "Derivation",
    "NotTangential",
    "apply",
    "apply_via_tensor",
    "der_bracket",
    "inner_derivation",
    "tangential_witness",
]


class NotTangential(ValueError):
    """The derivation is not of the form X_i -> [X_i, W_i]."""


class Derivation:
    """Derivation of L[n] raising degree by k >= 1, given on generators."""

    __slots__ = ("alphabet", "degree", "images", "_cache")

    def __init__(self, alphabet: Alphabet, degree: int, images, *, _trust=False):
        images = tuple(images)
        if not _trust:
            if degree < 1:
                raise ValueError("derivation degree must be >= 1")
            if len(images) != alphabet.size:
                raise ValueError("need one image per generator")
            for img in images:
                if img.alphabet != alphabet:
                    raise ValueError("image alphabet mismatch")
                if img.degree != degree + 1:
                    raise ValueError(f"images must be homogeneous of degree {degree + 1}")
        self.alphabet = alphabet
        self.degree = degree
        self.images = images
        self._cache = {}

    @classmethod
    def zero(cls, alphabet: Alphabet, degree: int) -> "Derivation":
        z = LieElement.zero(alphabet, degree + 1)
        return cls(alphabet, degree, (z,) * alphabet.size)

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images)

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.alphabet != other.alphabet or self.degree != other.degree:
            raise ValueError("can only add derivations of equal degree")
        return Derivation(
            self.alphabet, self.degree, tuple(a + b for a, b in zip(self.images, other.images))
        )

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def __neg__(self) -> "Derivation":
        return Derivation(self.alphabet, self.degree, tuple(-a for a in self.images))

    def scale(self, scalar) -> "Derivation":
        return Derivation(self.alphabet, self.degree, tuple(a.scale(scalar) for a in self.images))

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.alphabet == other.alphabet
            and self.degree == other.degree
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.alphabet.labels, self.degree, self.images))

    def __repr__(self):
        bits = ", ".join(
            f"{lab} -> {img!r}" for lab, img in zip(self.alphabet.labels, self.images)
        )
        return f"Derivation(deg {self.degree}: {bits})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.alphabet.size,
            "degree": self.degree,
            "images": [img.to_json_dict() for img in self.images],
        }

    def column(self) -> list:
        """The images in Lyndon coordinates, stacked: slot i from row
        i * witt(n, k+1), as sorted (row, coeff) pairs."""
        width = len(lyndon_index(self.alphabet.size, self.degree + 1))
        col = []
        for i, img in enumerate(self.images):
            col += coordinates(img, i * width)
        return col

    # -- evaluation ----------------------------------------------------------

    def _apply_word(self, word):
        """Image of b(word) as the items of its memoized coefficient dict."""
        cache = self._cache
        hit = cache.get(word)
        if hit is not None:
            return hit.items()
        if len(word) == 1:
            acc = self.images[word[0]].coeffs
        else:
            t1, t2 = standard_factorization(word)
            acc = _add_brackets({}, self._apply_word(t1), ((t2, 1),))
            _add_brackets(acc, ((t1, 1),), self._apply_word(t2))
        cache[word] = acc
        return acc.items()


def apply(d: Derivation, u: LieElement) -> LieElement:
    """Evaluate the derivation on a homogeneous Lie element (Leibniz)."""
    if u.alphabet != d.alphabet:
        raise ValueError("alphabet mismatch")
    acc: dict = {}
    for word, c in u.coeffs.items():
        _add_into(acc, d._apply_word(word), c)
    return LieElement(u.alphabet, u.degree + d.degree, acc, _trust=True)


def apply_via_tensor(d: Derivation, u: LieElement) -> LieElement:
    """Cross-check route: extend to the tensor ring, apply position by
    position, convert back.  Agrees with apply() (tested)."""
    t = to_tensor(u)
    img_t = [to_tensor(img).coeffs for img in d.images]
    out: dict = {}
    for word, c in t.coeffs.items():
        for pos, letter in enumerate(word):
            head, tail = word[:pos], word[pos + 1 :]
            _add_into(out, ((head + mid + tail, cm) for mid, cm in img_t[letter].items()), c)
    return from_tensor(TensorElement(u.alphabet, u.degree + d.degree, out, _trust=True))


def der_bracket(d: Derivation, e: Derivation) -> Derivation:
    """Commutator [d, e] = d o e - e o d, a derivation of degree k_d + k_e."""
    if d.alphabet != e.alphabet:
        raise ValueError("alphabet mismatch")
    degree, dw, ew = d.degree + e.degree, d._apply_word, e._apply_word
    # empty slots share one element: most slots of a McCool tau image are 0
    zero = LieElement.zero(d.alphabet, degree + 1)
    images = []
    for di, ei in zip(d.images, e.images):
        acc: dict = {}
        for w, c in ei.coeffs.items():
            _add_into(acc, dw(w), c)
        for w, c in di.coeffs.items():
            _add_into(acc, ew(w), -c)
        images.append(LieElement(d.alphabet, degree + 1, acc, _trust=True) if acc else zero)
    return Derivation(d.alphabet, degree, images, _trust=True)


def inner_derivation(w: LieElement) -> Derivation:
    """ad(W): X -> [W, X]; a derivation of degree deg W."""
    images = []
    for i in range(w.alphabet.size):
        acc = _add_brackets({}, w.coeffs.items(), (((i,), 1),))
        images.append(LieElement(w.alphabet, w.degree + 1, acc, _trust=True))
    return Derivation(w.alphabet, w.degree, images)


def tangential_witness(d: Derivation) -> list:
    """Witnesses (W_1 .. W_n) with d(X_i) = [X_i, W_i].

    A kernel vector v of [A | -den b], A the columns [X_i, b(w)] and den
    the lcm denominator of b = d(X_i), with v_last != 0 gives the witness
    v[:-1] / (den v_last), unique for degree >= 2.  In degree 1 X_i's column
    is zero; the Hermite reduction above the unit pivot of e_{X_i} gives W_i
    zero coefficient on X_i.  Raises NotTangential when no witness exists.
    """
    n, k = d.alphabet.size, d.degree
    domain = lyndon_tuples(n, k)
    nrows = len(lyndon_index(n, k + 1))
    witnesses = []
    for i in range(n):
        # column w is [X_i, b(w)] in the Lyndon basis of degree k + 1
        x_i = LieElement.generator(d.alphabet, d.alphabet.labels[i])
        basis = (LieElement.basis_element(d.alphabet, w) for w in domain)
        cols = [coordinates(lie_bracket(x_i, b)) for b in basis]
        den = math.lcm(*(c.denominator for c in d.images[i].coeffs.values()))
        cols.append([(r, -int(c * den)) for r, c in coordinates(d.images[i])])
        kernel = kernel_lattice(_ColumnArrays(cols, nrows))
        v = next((v for v in kernel if v[-1]), None)
        if v is None:
            raise NotTangential(f"generator {d.alphabet.labels[i]} has no witness")
        sol = [Fraction(x, v[-1] * den) for x in v[:-1]]
        sol = [int(x) if x.denominator == 1 else x for x in sol]
        witnesses.append(from_coordinates(d.alphabet, k, sol))
    return witnesses
