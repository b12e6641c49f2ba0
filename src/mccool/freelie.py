"""Free Lie ring on an ordered alphabet, in the Lyndon basis.

Elements of degree k are stored as sparse integer (or Fraction)
combinations of Lyndon words of length k; the word indexing the standard
bracketing b(w) is the basis label.  Two normalization routes for
brackets are provided and must agree:

  * "tensor": expand both sides in the tensor ring via [x,y] -> xy - yx,
    multiply, and convert back with from_tensor.  This is the reference
    route; it relies only on the unitriangularity of Lyndon expansions
    (b(w) = w + lexicographically larger words of the same degree).  Its
    memo holds what recursion reuses: the expansions of standard factors.

  * "table": division-free rewriting of [b(u), b(v)] using the classical
    recursion on the right standard factorization u = u1 u2 of the
    smaller factor:

        [b(u), b(v)] = b(uv)                         if (u, v) is standard
        [b(u), b(v)] = [[b(u1), b(v)], b(u2)]
                       + [b(u1), [b(u2), b(v)]]       otherwise,

    memoized into a structure-constant table shared by every alphabet of
    any size (the recursion only sees the letters actually present).

The table route is the default because repeated brackets hit the memo
table, which the heavy kernel computations in other modules require; the
test suite checks both routes against each other.

Coefficients are exact: Python ints, or fractions.Fraction when a
rational element is constructed.  No floating point is used anywhere.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .words import (
    Word,
    is_lyndon,
    lyndon_index,
    standard_factorization,
    witt_dimension,
)

__all__ = [
    "Alphabet",
    "LieElement",
    "TensorElement",
    "NotALieElement",
    "coordinates",
    "from_coordinates",
    "lie_bracket",
    "left_normed",
    "to_tensor",
    "from_tensor",
    "x_alphabet",
    "abc_alphabet",
    "substitute",
    "morphism_image",
    "witt_dimension",
]


class NotALieElement(ValueError):
    """A tensor element is not the expansion of any Lie element."""


class Alphabet:
    """Ordered alphabet of distinct generator labels.

    The declared order of the labels is the total order used for Lyndon
    words; letter i is the label at position i.  A word is written as its
    labels run together when every label is one character, and joined by
    "." otherwise; then no label may contain ".", so that each written
    word parses back.
    """

    __slots__ = ("labels", "_index", "_hash", "_sep")

    def __init__(self, labels):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("alphabet labels must be pairwise distinct")
        if not labels:
            raise ValueError("alphabet must be nonempty")
        self._sep = "" if all(len(lab) == 1 for lab in labels) else "."
        if self._sep and (dotted := [lab for lab in labels if "." in lab]):
            raise ValueError(f"labels {dotted!r} contain '.', which joins the letters of a word")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._hash = hash(labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def word_string(self, word: Word) -> str:
        return self._sep.join(self.labels[i] for i in word)

    def parse_word(self, text: str) -> Word:
        if not isinstance(text, str):
            raise TypeError(f"a word is written as a string, got {type(text)!r}")
        return tuple(self._index[part] for part in (text.split(self._sep) if self._sep else text))

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.labels == other.labels

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Alphabet({list(self.labels)!r})"


@functools.lru_cache(maxsize=None)
def x_alphabet(n: int) -> Alphabet:
    """The alphabet X1 < X2 < ... < Xn of free-group generator classes."""
    return Alphabet(tuple(f"X{i}" for i in range(1, n + 1)))


@functools.lru_cache(maxsize=None)
def abc_alphabet() -> Alphabet:
    return Alphabet(("a", "b", "c"))


def _add_into(acc: dict, items, scalar) -> None:
    """acc += scalar * items, dropping the words whose coefficients cancel."""
    for w, c in items:
        val = acc.get(w, 0) + scalar * c
        if val:
            acc[w] = val
        elif w in acc:
            del acc[w]


# ---------------------------------------------------------------------------
# tensor expansions of Lyndon bracketings


def _conv(a: dict, b: dict) -> dict:
    out = {}
    for wa, ca in a.items():
        # inline, not _add_into: a call per word slows the tensor route ~5-10%
        for wb, cb in b.items():
            key = wa + wb
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def _expansion(word: Word) -> dict:
    """Tensor expansion of b(word), from the memoized expansions of its
    standard factors; only the recursion reads that memo, _expand."""
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    eu, ev = _expand(u), _expand(v)
    out = _conv(eu, ev)
    _add_into(out, _conv(ev, eu).items(), -1)
    return out


_expand = functools.lru_cache(maxsize=None)(_expansion)


# ---------------------------------------------------------------------------
# division-free rewriting of brackets of basis elements


@functools.lru_cache(maxsize=None)
def _bw(u: Word, v: Word) -> tuple:
    """[b(u), b(v)] in the Lyndon basis, as a sorted tuple of (word, coeff).

    Valid for arbitrary letter indices; the result only involves the
    letters of u and v, so the table is shared across alphabets.
    """
    if u == v:
        return ()
    if v < u:
        return tuple((w, -c) for w, c in _bw(v, u))
    if len(u) == 1 or standard_factorization(u)[1] >= v:
        return ((u + v, 1),)
    u1, u2 = standard_factorization(u)
    acc = _add_brackets({}, _bw(u1, v), ((u2, 1),))
    return tuple(sorted(_add_brackets(acc, ((u1, 1),), _bw(u2, v)).items()))


def _add_brackets(acc: dict, left, right) -> dict:
    """acc += [sum c*b(u) over left, sum c*b(v) over right], pair by pair
    through _bw, dropping the words whose coefficients cancel; returns acc.
    left and right hold (Lyndon word, coeff) pairs; right is iterated once
    per term of left."""
    for u, cu in left:
        for v, cv in right:
            # inline, not _add_into: a call per pair slows lie_bracket ~10%
            c = cu * cv
            for w, bc in _bw(u, v):
                val = acc.get(w, 0) + c * bc
                if val:
                    acc[w] = val
                elif w in acc:
                    del acc[w]
    return acc


# ---------------------------------------------------------------------------
# elements


def _check_coeff(c):
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c)!r}")


class _Element:
    """Homogeneous element over an alphabet: a sparse map from words of
    length ``degree`` to nonzero coefficients.  The shared core of
    LieElement and TensorElement; equality requires the same class."""

    __slots__ = ("alphabet", "degree", "coeffs")
    _brackets = "()"

    def __init__(self, alphabet: Alphabet, degree: int, coeffs: dict, *, _trust=False):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if not _trust:
            n = alphabet.size
            clean = {}
            for w, c in coeffs.items():
                w = tuple(w)
                c = _check_coeff(c)
                if len(w) != degree:
                    raise ValueError(f"word {w!r} does not have degree {degree}")
                if any(not (0 <= i < n) for i in w):
                    raise ValueError(f"word {w!r} has letters outside the alphabet")
                self._check_word(w)
                if c:
                    clean[w] = c
            coeffs = clean
        self.alphabet = alphabet
        self.degree = degree
        self.coeffs = coeffs

    @staticmethod
    def _check_word(w) -> None:
        """Hook for a basis condition on the words; none by default."""

    @classmethod
    def zero(cls, alphabet: Alphabet, degree: int):
        return cls(alphabet, degree, {}, _trust=True)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot add {type(other).__name__} to {type(self).__name__}"
            )
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.degree != other.degree:
            raise ValueError("degree mismatch in sum")
        out = dict(self.coeffs)
        _add_into(out, other.coeffs.items(), 1)
        return type(self)(self.alphabet, self.degree, out, _trust=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(
            self.alphabet, self.degree, {w: -c for w, c in self.coeffs.items()}, _trust=True
        )

    def scale(self, scalar):
        scalar = _check_coeff(scalar)
        if not scalar:
            return self.zero(self.alphabet, self.degree)
        return type(self)(
            self.alphabet, self.degree, {w: scalar * c for w, c in self.coeffs.items()}, _trust=True
        )

    __mul__ = __rmul__ = scale

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alphabet == other.alphabet
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.alphabet.labels, self.degree, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        left, right = self._brackets
        bits = []
        for w, c in sorted(self.coeffs.items()):
            sign = ("+" if c > 0 else "-") + ("" if abs(c) == 1 else str(abs(c)))
            bits.append(f"{sign}{left}{self.alphabet.word_string(w)}{right}")
        return "".join(bits)

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet.labels),
            "degree": self.degree,
            "terms": [
                {"word": self.alphabet.word_string(w), "coeff": str(c)}
                for w, c in sorted(self.coeffs.items())
            ],
        }


class LieElement(_Element):
    """Homogeneous element of the free Lie ring, in Lyndon normal form.

    coeffs maps Lyndon words (tuples of letter indices) of length
    ``degree`` to nonzero coefficients.
    """

    __slots__ = ()
    _brackets = "[]"

    @staticmethod
    def _check_word(w) -> None:
        if not is_lyndon(w):
            raise ValueError(f"word {w!r} is not Lyndon")

    @classmethod
    def generator(cls, alphabet: Alphabet, label: str) -> "LieElement":
        return cls(alphabet, 1, {(alphabet.index(label),): 1}, _trust=True)

    @classmethod
    def basis_element(cls, alphabet: Alphabet, word) -> "LieElement":
        w = tuple(word)
        return cls(alphabet, len(w), {w: 1})

    def coefficient(self, word) -> int:
        return self.coeffs.get(tuple(word), 0)

    @classmethod
    def from_json_dict(cls, data: dict) -> "LieElement":
        """Inverse of to_json_dict.  A payload that is not an object, a
        missing key, an alphabet that is not a list of strings, terms that
        are not a list, a term whose word is not a string that parses over
        the alphabet or whose coefficient is not an integer or a "p/q"
        string, or a repeated word raises ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"payload must be an object, got {data!r}")
        if missing := [key for key in ("alphabet", "degree", "terms") if key not in data]:
            raise ValueError(f"missing key {missing[0]!r}")
        labels = data["alphabet"]
        if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
            raise ValueError(f"alphabet must be a list of strings, got {labels!r}")
        if not isinstance(data["terms"], list):
            raise ValueError(f"terms must be a list, got {data['terms']!r}")
        alphabet = Alphabet(labels)
        coeffs = {}
        for term in data["terms"]:
            try:
                word, coeff = alphabet.parse_word(term["word"]), term["coeff"]
                if isinstance(coeff, str):
                    coeff = Fraction(coeff) if "/" in coeff else int(coeff)
                _check_coeff(coeff)
            except (AttributeError, KeyError, ValueError, TypeError, ZeroDivisionError):
                raise ValueError(f"bad term {term!r}") from None
            if word in coeffs:
                raise ValueError(f"term {term!r} repeats an earlier word")
            coeffs[word] = coeff
        degree = data["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError(f"degree must be an integer, got {degree!r}")
        return cls(alphabet, degree, coeffs)


class TensorElement(_Element):
    """Homogeneous element of the tensor ring (free associative ring)."""

    __slots__ = ()

    def coefficient(self, word) -> int:
        if isinstance(word, str):
            word = self.alphabet.parse_word(word)
        return self.coeffs.get(tuple(word), 0)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            if self.alphabet != other.alphabet:
                raise ValueError("alphabet mismatch")
            return TensorElement(
                self.alphabet, self.degree + other.degree, _conv(self.coeffs, other.coeffs), _trust=True
            )
        return self.scale(other)

    def commutator(self, other: "TensorElement") -> "TensorElement":
        return self * other - other * self


# ---------------------------------------------------------------------------
# operations


def to_tensor(u: LieElement) -> TensorElement:
    """Expand into the tensor ring via [x, y] -> xy - yx on basis brackets."""
    out: dict = {}
    for word, c in u.coeffs.items():
        _add_into(out, _expansion(word).items(), c)
    return TensorElement(u.alphabet, u.degree, out, _trust=True)


def from_tensor(t: TensorElement) -> LieElement:
    """Inverse of to_tensor on expansions of Lie elements.

    Greedy unitriangular elimination: the smallest word of the residue
    must be Lyndon and carries the coefficient of its basis bracket.
    Raises NotALieElement when the residue leaves the Lie subspace.
    """
    residue = dict(t.coeffs)
    out: dict = {}
    while residue:
        word = min(residue)
        if not is_lyndon(word):
            raise NotALieElement(f"leading word {word!r} of residue is not Lyndon")
        c = residue[word]
        out[word] = c
        _add_into(residue, _expansion(word).items(), -c)
    return LieElement(t.alphabet, t.degree, out, _trust=True)


def coordinates(p: LieElement, offset: int = 0) -> list:
    """p in the Lyndon basis of its degree: sorted (offset + position of
    the word among the degree's Lyndon words in lex order, coeff) pairs."""
    idx = lyndon_index(p.alphabet.size, p.degree)
    col = [(offset + idx[w], c) for w, c in p.coeffs.items()]
    col.sort()
    return col


def from_coordinates(alphabet: Alphabet, degree: int, vec) -> LieElement:
    """Inverse of coordinates: vec[i] is the coefficient of the i-th Lyndon
    word of the degree over the alphabet (a dense vector)."""
    words = lyndon_index(alphabet.size, degree)  # keys in lex order
    if len(vec) != len(words):
        raise ValueError(f"need {len(words)} coordinates in degree {degree}, got {len(vec)}")
    coeffs = {w: c for w, c in zip(words, vec) if c}
    return LieElement(alphabet, degree, coeffs, _trust=True)


def lie_bracket(u: LieElement, v: LieElement, via: str = "table") -> LieElement:
    """Lie bracket [u, v] in Lyndon normal form.

    via="table" uses the memoized rewriting table; via="tensor" expands
    through the tensor ring and converts back.  The two agree (tested).
    """
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")
    if via == "table":
        out = _add_brackets({}, u.coeffs.items(), v.coeffs.items())
        return LieElement(u.alphabet, u.degree + v.degree, out, _trust=True)
    if via == "tensor":
        return from_tensor(to_tensor(u).commutator(to_tensor(v)))
    raise ValueError(f"unknown bracket route {via!r}")


def left_normed(gens: list) -> LieElement:
    """Left-normed bracket [g1, g2, ..., gm] = [...[[g1, g2], g3]..., gm]."""
    if not gens:
        raise ValueError("left_normed requires at least one element")
    acc = gens[0]
    for g in gens[1:]:
        acc = lie_bracket(acc, g)
    return acc


_MISSING = object()


def morphism_image(word: Word, memo: dict, bracket):
    """The image of b(word) under a Lie morphism, from its per-map memo.

    memo maps words to images and is seeded with the letters; None stands
    for a zero image.  A word missing from memo gets the bracket of the
    images of its standard factors, bracket(image(u), image(v)), and is
    stored.  bracket is only called on two images that are not None, and
    a first factor sent to zero leaves the second one unevaluated.
    """
    image = memo.get(word, _MISSING)
    if image is _MISSING:
        u, v = standard_factorization(word)
        image = morphism_image(u, memo, bracket)
        if image is not None:
            iv = morphism_image(v, memo, bracket)
            image = None if iv is None else bracket(image, iv)
        memo[word] = image
    return image


def _nonzero_bracket(u: LieElement, v: LieElement):
    """lie_bracket(u, v), or None when it is zero."""
    image = lie_bracket(u, v)
    return image if image.coeffs else None


@functools.lru_cache(maxsize=None)
def _substitution_memo(letter_images: tuple, alphabet: Alphabet) -> dict:
    """The word -> image memo of one letter map, seeded with the letters;
    an image is a LieElement, or None when it is zero."""
    memo: dict = {}
    for i, image in enumerate(letter_images):
        if image is not None:
            sign, target = image
            image = LieElement(alphabet, 1, {(target,): sign}, _trust=True)
        memo[(i,)] = image
    return memo


def substitute(p: LieElement, letter_images: tuple, alphabet: Alphabet) -> LieElement:
    """The Lie-ring morphism that sends letter i to letter_images[i], on p.

    letter_images[i] is (sign, target letter of alphabet), or None for a
    letter sent to zero.  The images of words come from morphism_image,
    in one memo per letter map, so the map and the alphabet are hashed
    once per call, not once per word.
    """
    if len(letter_images) != p.alphabet.size:
        raise ValueError(
            f"{len(letter_images)} letter images for an alphabet of {p.alphabet.size} letters"
        )
    memo = _substitution_memo(letter_images, alphabet)
    out: dict = {}
    for word, c in p.coeffs.items():
        image = morphism_image(word, memo, _nonzero_bracket)
        if image is not None:
            _add_into(out, image.coeffs.items(), c)
    return LieElement(alphabet, p.degree, out, _trust=True)
