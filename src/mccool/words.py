"""Lyndon word combinatorics on an ordered alphabet.

Words are tuples of letter indices (ints), ordered lexicographically by
Python's tuple comparison, which matches the word order used everywhere
in this package (a proper prefix is smaller than its extensions).

A word w is Lyndon if it is nonempty and strictly smaller than every one
of its proper suffixes.  Lyndon words of length k over n letters form a
basis index set for the degree-k part of the free Lie ring on n
generators; the count is given by the Witt formula

    witt(n, k) = (1/k) * sum_{d | k} mobius(d) * n^(k/d).

The right standard factorization of a Lyndon word w with len(w) >= 2 is
w = u v where v is the longest proper Lyndon suffix of w, which is its
lexicographically smallest proper suffix (Lothaire 1983; Reutenauer
1993); then u is Lyndon as well and u < v.  Iterating it yields the
standard bracketing tree of w.
"""

from __future__ import annotations

import functools

from .exactla import CertificateError

Word = tuple  # tuple of int letter indices


def is_lyndon(word: Word) -> bool:
    """True if word is nonempty and strictly smaller than all proper suffixes."""
    if not word:
        return False
    n = len(word)
    for start in range(1, n):
        if word[start:] <= word:
            return False
    return True


def lyndon_tuples(n: int, k: int) -> list[Word]:
    """All Lyndon words of length exactly k over letters 0..n-1, in lex order."""
    return list(_lyndon_tuples_cached(n, k))


@functools.lru_cache(maxsize=None)
def _lyndon_tuples_cached(n: int, k: int) -> tuple[Word, ...]:
    if n < 1 or k < 1:
        return ()
    # Duval's generation of Lyndon words of length <= k in lex order.
    out = []
    w = [0]
    while w:
        if len(w) == k:
            out.append(tuple(w))
        period = list(w)
        while len(w) < k:
            w.append(period[len(w) % len(period)])
        while w and w[-1] == n - 1:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(out)


@functools.lru_cache(maxsize=None)
def lyndon_index(n: int, k: int) -> dict[Word, int]:
    """Position of each length-k Lyndon word over n letters in lex order."""
    return {w: i for i, w in enumerate(_lyndon_tuples_cached(n, k))}


def _mobius(m: int) -> int:
    result = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


@functools.lru_cache(maxsize=None)
def witt_dimension(n: int, k: int) -> int:
    """Rank of the degree-k part of the free Lie ring on n generators."""
    if n < 1 or k < 1:
        raise ValueError("witt_dimension requires n >= 1 and k >= 1")
    total = 0
    for d in range(1, k + 1):
        if k % d == 0:
            total += _mobius(d) * n ** (k // d)
    if total % k:
        raise CertificateError(f"necklace sum {total} is not divisible by {k}")
    return total // k


@functools.lru_cache(maxsize=None)
def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Right standard factorization w = u v, v the smallest proper suffix."""
    if len(word) < 2:
        raise ValueError("standard factorization needs length >= 2")
    if not is_lyndon(word):
        raise ValueError(f"{word!r} is not a Lyndon word")
    v = min(word[start:] for start in range(1, len(word)))
    return word[: len(word) - len(v)], v
