from itertools import product

import pytest

from mccool.words import (
    is_lyndon,
    lyndon_tuples,
    standard_factorization,
    witt_dimension,
)


def brute_lyndon(n, k):
    """Independent oracle: filter all n^k words by the strict-suffix test."""
    out = []
    for w in product(range(n), repeat=k):
        if all(w < w[i:] for i in range(1, k)):
            out.append(w)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", list(range(1, 9)))
def test_generation_matches_bruteforce(n, k):
    assert lyndon_tuples(n, k) == brute_lyndon(n, k)


def test_two_letter_degree_three():
    # brute-force filter of all 8 words leaves xxy and xyy
    assert brute_lyndon(2, 3) == [(0, 0, 1), (0, 1, 1)]
    assert lyndon_tuples(2, 3) == [(0, 0, 1), (0, 1, 1)]


def test_single_letters_are_lyndon():
    assert lyndon_tuples(3, 1) == [(0,), (1,), (2,)]


def test_counts_match_witt_dimension():
    for n in range(1, 5):
        for k in range(1, 11):
            assert len(lyndon_tuples(n, k)) == witt_dimension(n, k)


def test_witt_reference_row():
    assert [witt_dimension(3, k) for k in range(1, 10)] == [
        3, 3, 8, 18, 48, 116, 312, 810, 2184,
    ]
    assert witt_dimension(3, 6) == 116
    assert witt_dimension(1, 2) == 0
    assert witt_dimension(2, 3) == len(brute_lyndon(2, 3)) == 2


def test_witt_integrality_is_certified(monkeypatch):
    # with every Mobius value 1 the necklace sum of degree 4 is 81 + 9 + 3,
    # which 4 does not divide; the uncached function must refuse it
    from mccool import words
    from mccool.exactla import CertificateError

    monkeypatch.setattr(words, "_mobius", lambda m: 1)
    with pytest.raises(CertificateError, match="necklace sum 93 is not divisible by 4"):
        witt_dimension.__wrapped__(3, 4)


def test_standard_factorization_is_longest_lyndon_suffix():
    # oracle: scan suffixes longest-first
    for n in (2, 3):
        for k in range(2, 8):
            for w in lyndon_tuples(n, k):
                u, v = standard_factorization(w)
                assert u + v == w
                assert is_lyndon(u) and is_lyndon(v)
                longest = next(
                    w[start:] for start in range(1, len(w)) if is_lyndon(w[start:])
                )
                assert v == longest


def test_standard_factorization_rejects_non_lyndon():
    with pytest.raises(ValueError):
        standard_factorization((1, 0))
    with pytest.raises(ValueError):
        standard_factorization((0,))
