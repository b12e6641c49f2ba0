import hashlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lie_elements, random_lie_element
from mccool.freelie import (
    Alphabet,
    LieElement,
    NotALieElement,
    TensorElement,
    abc_alphabet,
    coordinates,
    from_coordinates,
    from_tensor,
    left_normed,
    lie_bracket,
    morphism_image,
    substitute,
    to_tensor,
    x_alphabet,
)
from mccool.freelie import _add_brackets, _expand, _nonzero_bracket, _substitution_memo
from mccool.words import is_lyndon, lyndon_tuples, standard_factorization


# any JSON value, for the fields of generated payloads
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def gens(alphabet):
    return [LieElement.generator(alphabet, lab) for lab in alphabet.labels]


class TestAlphabet:
    def test_alphabets_are_built_once(self):
        assert abc_alphabet() is abc_alphabet()
        assert x_alphabet(4) is x_alphabet(4)
        assert x_alphabet(3) is not x_alphabet(4)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_word_string_roundtrip(self):
        a = abc_alphabet()
        assert a.word_string((2, 2, 1, 1, 0, 0)) == "ccbbaa"
        assert a.parse_word("ccbbaa") == (2, 2, 1, 1, 0, 0)
        multi = Alphabet(("k12", "k21"))
        assert multi.parse_word(multi.word_string((1, 0))) == (1, 0)

    @pytest.mark.parametrize("labels, dotted", [
        (("a.b", "a", "b"), ["a.b"]),
        (("x.", ".y", "z"), ["x.", ".y"]),
        (("", "."), ["."]),
    ])
    def test_dotted_label_is_refused_when_words_are_dot_joined(self, labels, dotted):
        # over ("a.b", "a", "b") the generator a.b is written "a.b", which
        # would parse back as the word (1, 2)
        with pytest.raises(ValueError, match=re.escape(f"labels {dotted!r} contain '.'")):
            Alphabet(labels)

    def test_one_character_dot_label_is_accepted(self):
        # one-character labels are run together, so "." is just a letter
        alphabet = Alphabet((".", "a"))
        assert alphabet.parse_word(alphabet.word_string((0, 1, 1))) == (0, 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(".ab", max_size=3) | st.text(max_size=2), min_size=1, max_size=4))
    def test_generators_round_trip_or_the_alphabet_is_refused(self, labels):
        try:
            alphabet = Alphabet(labels)
        except ValueError:
            return
        elements = gens(alphabet)
        if alphabet.size > 1:
            elements.append(lie_bracket(elements[0], elements[1]))
        for p in elements:
            assert LieElement.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


class TestLyndonWords:
    # Lyndon words are plain tuples of letter indices
    def test_listing(self):
        a = Alphabet(("x", "y"))
        assert lyndon_tuples(a.size, 3) == [(0, 0, 1), (0, 1, 1)]

    def test_invalid_word_rejected(self, abc):
        assert not is_lyndon((1, 0))
        with pytest.raises(ValueError):
            standard_factorization((1, 0))
        with pytest.raises(ValueError):
            LieElement.basis_element(abc, (1, 0))

    def test_bracketing(self):
        w = (0, 0, 1)
        assert standard_factorization(w) == ((0,), (0, 1))


class TestBracket:
    def test_alternating(self, x3):
        x1 = LieElement.generator(x3, "X1")
        assert lie_bracket(x1, x1).is_zero()

    def test_generator_bracket_is_basis_word(self, x3):
        x1, x2, _ = gens(x3)
        b = lie_bracket(x1, x2)
        assert b.coeffs == {(0, 1): 1}

    def test_left_bracketing_sign_via_tensor(self, x3):
        # [[X1,X2],X1] = -(basis of X1X1X2); checked through the tensor ring
        x1, x2, _ = gens(x3)
        el = lie_bracket(lie_bracket(x1, x2), x1)
        assert el.coeffs == {(0, 0, 1): -1}
        assert to_tensor(el) == to_tensor(x1).commutator(to_tensor(x2)).commutator(
            to_tensor(x1)
        )

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_table_route_agrees_with_tensor_route(self, data):
        alphabet = abc_alphabet()
        du = data.draw(st.integers(1, 4))
        dv = data.draw(st.integers(1, 4))
        u = data.draw(lie_elements(alphabet, du))
        v = data.draw(lie_elements(alphabet, dv))
        assert lie_bracket(u, v, via="table") == lie_bracket(u, v, via="tensor")

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_add_brackets_cancels_into_a_filled_acc(self, data):
        # acc starts as p - [u, v] by the tensor route, so adding [u, v]
        # cancels every bracket term and leaves p, with no zero entries;
        # an empty side (u or v zero) adds nothing
        alphabet = abc_alphabet()
        du, dv = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        u = data.draw(lie_elements(alphabet, du))
        v = data.draw(lie_elements(alphabet, dv))
        p = data.draw(lie_elements(alphabet, du + dv))
        acc = dict((p - lie_bracket(u, v, via="tensor")).coeffs)
        assert _add_brackets(acc, u.coeffs.items(), v.coeffs.items()) is acc
        assert acc == p.coeffs
        assert _add_brackets(dict(p.coeffs), (), v.coeffs.items()) == p.coeffs
        assert _add_brackets(dict(p.coeffs), u.coeffs.items(), ()) == p.coeffs

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_antisymmetry_and_jacobi(self, data):
        alphabet = abc_alphabet()
        du = data.draw(st.integers(1, 4))
        dv = data.draw(st.integers(1, 4))
        dw = data.draw(st.integers(1, max(1, 8 - du - dv)))
        u = data.draw(lie_elements(alphabet, du))
        v = data.draw(lie_elements(alphabet, dv))
        w = data.draw(lie_elements(alphabet, dw))
        assert (lie_bracket(u, v) + lie_bracket(v, u)).is_zero()
        jac = (
            lie_bracket(lie_bracket(u, v), w)
            + lie_bracket(lie_bracket(v, w), u)
            + lie_bracket(lie_bracket(w, u), v)
        )
        assert jac.is_zero()


class TestLeftNormed:
    def test_single(self, abc):
        a = LieElement.generator(abc, "a")
        assert left_normed([a]) == a

    def test_repeated_head_vanishes(self, abc):
        a, b = LieElement.generator(abc, "a"), LieElement.generator(abc, "b")
        assert left_normed([a, a, b]).is_zero()

    def test_cab_normal_form(self, abc):
        # [c,a,b] = [[c,a],b]; at most two Lyndon terms, and the tensor
        # expansions agree
        a, b, c = gens(abc)
        el = left_normed([c, a, b])
        assert el.degree == 3
        assert 1 <= len(el.coeffs) <= 2
        expected = to_tensor(c).commutator(to_tensor(a)).commutator(to_tensor(b))
        assert to_tensor(el) == expected


class TestTensor:
    def test_generator(self, x3):
        x1 = LieElement.generator(x3, "X1")
        assert to_tensor(x1).coeffs == {(0,): 1}

    def test_commutator_expansion(self, x3):
        x1, x2, _ = gens(x3)
        assert to_tensor(lie_bracket(x1, x2)).coeffs == {(0, 1): 1, (1, 0): -1}

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_tensor_is_a_lie_morphism(self, data):
        alphabet = abc_alphabet()
        du = data.draw(st.integers(1, 4))
        dv = data.draw(st.integers(1, 3))
        u = data.draw(lie_elements(alphabet, du))
        v = data.draw(lie_elements(alphabet, dv))
        assert to_tensor(lie_bracket(u, v)) == to_tensor(u).commutator(to_tensor(v))

    def test_expand_memo_holds_factors_not_top_level_words(self, rng):
        # the memo serves the recursion: after a degree-10 round trip it
        # holds the standard factors of x's words, at every depth, and none
        # of x's own words
        import mccool

        x = random_lie_element(rng, abc_alphabet(), 10, terms=4)
        assert x.coeffs
        mccool.clear_caches()
        assert from_tensor(to_tensor(x)) == x
        factors, stack = set(), list(x.coeffs)
        while stack:
            word = stack.pop()
            if len(word) > 1:
                parts = standard_factorization(word)
                factors.update(parts)
                stack.extend(parts)
        held = _expand.cache_info()
        assert held.currsize == len(factors)
        for word in factors:
            _expand(word)
        assert _expand.cache_info().hits == held.hits + len(factors)
        for word in x.coeffs:
            _expand(word)
        assert _expand.cache_info().misses == held.misses + len(x.coeffs)

    def test_unitriangularity(self):
        for k in range(1, 9):
            for w in lyndon_tuples(3, k):
                e = _expand(w)
                assert e[w] == 1
                assert all(other >= w for other in e)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_from_tensor_roundtrip(self, data):
        alphabet = abc_alphabet()
        d = data.draw(st.integers(1, 8))
        u = data.draw(lie_elements(alphabet, d))
        assert from_tensor(to_tensor(u)) == u

    def test_from_tensor_rejects_non_primitive(self, x3):
        t = TensorElement(x3, 2, {(0, 1): 1})
        with pytest.raises(NotALieElement):
            from_tensor(t)

    def test_from_tensor_on_commutator(self, x3):
        x1, x2, _ = gens(x3)
        t = TensorElement(x3, 2, {(0, 1): 1, (1, 0): -1})
        assert from_tensor(t) == lie_bracket(x1, x2)


class TestCoordinates:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_roundtrip_against_lex_positions(self, data):
        alphabet = data.draw(st.sampled_from([abc_alphabet(), x_alphabet(4)]))
        degree = data.draw(st.integers(1, 5))
        p = data.draw(lie_elements(alphabet, degree))
        words = lyndon_tuples(alphabet.size, degree)
        offset = data.draw(st.integers(0, 7))
        expected = sorted((offset + words.index(w), c) for w, c in p.coeffs.items())
        assert coordinates(p, offset) == expected
        dense = [0] * len(words)
        for r, c in coordinates(p):
            dense[r] = c
        assert from_coordinates(alphabet, degree, dense) == p

    def test_vector_length_is_checked(self, abc):
        with pytest.raises(ValueError, match="need 3 coordinates in degree 2, got 2"):
            from_coordinates(abc, 2, [1, 0])


class TestSerialization:
    def test_roundtrip(self, abc):
        el = LieElement(abc, 3, {(0, 1, 2): 5, (0, 2, 2): -7})
        blob = json.dumps(el.to_json_dict())
        back = LieElement.from_json_dict(json.loads(blob))
        assert back == el

    def test_coefficients_are_strings(self, abc):
        el = LieElement(abc, 1, {(0,): 12345678901234567890})
        data = el.to_json_dict()
        assert data["terms"][0]["coeff"] == "12345678901234567890"

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, data):
        alphabet = data.draw(st.sampled_from([abc_alphabet(), x_alphabet(4)]))
        el = data.draw(lie_elements(alphabet, data.draw(st.integers(1, 5))))
        el = el.scale(Fraction(1, data.draw(st.integers(1, 6))))
        back = LieElement.from_json_dict(json.loads(json.dumps(el.to_json_dict())))
        assert back == el

    @pytest.mark.parametrize(
        "coeff, word",
        [(1.5, "ab"), (True, "ab"), ("1.5", "ab"), ("1/0", "ab"), (None, "ab"), ("2", "ad")],
        ids=["float", "bool", "decimal-string", "zero-denominator", "null", "unknown-letter"],
    )
    def test_bad_term_names_it(self, coeff, word):
        data = {"alphabet": ["a", "b", "c"], "degree": 2, "terms": [{"word": word, "coeff": coeff}]}
        with pytest.raises(ValueError, match="bad term .*'word': '" + word):
            LieElement.from_json_dict(data)

    def test_repeated_word_rejected(self):
        terms = [{"word": "ab", "coeff": "1"}, {"word": "ac", "coeff": "2"}, {"word": "ab", "coeff": "3"}]
        data = {"alphabet": ["a", "b", "c"], "degree": 2, "terms": terms}
        with pytest.raises(ValueError, match="term .*'coeff': '3'.* repeats an earlier word"):
            LieElement.from_json_dict(data)

    @pytest.mark.parametrize("word, message", [("ba", "not Lyndon"), ("abc", "does not have degree 2")])
    def test_word_must_be_a_basis_word(self, word, message):
        data = {"alphabet": ["a", "b", "c"], "degree": 2, "terms": [{"word": word, "coeff": "1"}]}
        with pytest.raises(ValueError, match=message):
            LieElement.from_json_dict(data)

    @pytest.mark.parametrize("degree", [2.0, True, "2"])
    def test_degree_must_be_an_integer(self, degree):
        data = {"alphabet": ["a", "b", "c"], "degree": degree, "terms": []}
        with pytest.raises(ValueError, match="degree must be an integer"):
            LieElement.from_json_dict(data)

    @pytest.mark.parametrize(
        "word", [None, 7, ["a", "b"], {"a": 0, "c": 1}], ids=["null", "integer", "list", "dict"]
    )
    @pytest.mark.parametrize("labels", [("a", "b", "c"), ("X1", "X2", "X3")], ids=["abc", "x3"])
    def test_word_that_is_not_a_string_names_the_term(self, labels, word):
        data = {"alphabet": list(labels), "degree": 2, "terms": [{"word": word, "coeff": "1"}]}
        with pytest.raises(ValueError, match="bad term .*'word': " + re.escape(str(word))):
            LieElement.from_json_dict(data)

    @pytest.mark.parametrize("key", ["alphabet", "degree", "terms"])
    def test_missing_key_is_named(self, key):
        data = {"alphabet": ["a", "b"], "degree": 2, "terms": [{"word": "ab", "coeff": "1"}]}
        del data[key]
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            LieElement.from_json_dict(data)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (None, "payload must be an object"),
            (7, "payload must be an object"),
            ({"alphabet": ["a", "b"], "degree": 1, "terms": None}, "terms must be a list"),
            ({"alphabet": None, "degree": 1, "terms": []}, "alphabet must be a list of strings"),
            ({"alphabet": "ab", "degree": 1, "terms": []}, "alphabet must be a list of strings"),
            ({"alphabet": [1, 2], "degree": 1, "terms": []}, "alphabet must be a list of strings"),
        ],
        ids=["null", "integer", "null-terms", "null-alphabet", "string-alphabet", "integer-labels"],
    )
    def test_payload_of_the_wrong_shape_names_the_key(self, payload, message):
        with pytest.raises(ValueError, match=message):
            LieElement.from_json_dict(payload)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arbitrary_terms_parse_or_raise_value_error(self, data):
        # generated input: each payload is read, or refused with ValueError
        alphabet = data.draw(st.sampled_from([abc_alphabet(), x_alphabet(3)]))
        sep, values = ("" if alphabet == abc_alphabet() else "."), JSON_VALUES
        letter = st.sampled_from(alphabet.labels)
        # a list, dict or int word is refused even where iterating it spells a word
        word = (
            st.lists(letter, max_size=4).map(sep.join)
            | st.lists(letter, min_size=1, max_size=2)
            | st.dictionaries(letter, st.integers(0, 2), min_size=1, max_size=2)
            | st.integers()
            | values
        )
        coeff = st.integers() | st.integers().map(str) | st.fractions().map(str) | values
        term = (
            st.fixed_dictionaries({"word": word, "coeff": coeff})
            | st.dictionaries(st.sampled_from(["word", "coeff", "other"]), values, max_size=3)
            | values
        )
        payload = {
            "alphabet": data.draw(st.just(list(alphabet.labels)) | values),
            "degree": data.draw(st.integers(-1, 4) | values),
            "terms": data.draw(st.lists(term, max_size=4) | values),
        }
        for key in data.draw(st.sets(st.sampled_from(sorted(payload)), max_size=1)):
            del payload[key]
        try:
            el = LieElement.from_json_dict(payload)
        except ValueError:
            return
        assert all(isinstance(term["word"], str) for term in payload["terms"])
        assert LieElement.from_json_dict(el.to_json_dict()) == el

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_bad_word_in_a_valid_payload_is_named(self, data):
        # every field but one term's word is valid, so the refusal names that term
        alphabet = data.draw(st.sampled_from([abc_alphabet(), x_alphabet(3)]))
        degree = data.draw(st.integers(1, 5))
        el = data.draw(lie_elements(alphabet, degree).filter(lambda e: not e.is_zero()))
        payload = el.to_json_dict()
        letter = st.sampled_from(alphabet.labels)
        if alphabet == abc_alphabet():
            # one-letter labels: a token with a letter outside the alphabet
            token, sep = st.text(min_size=1, max_size=3).filter(lambda t: not set(t) <= set("abc")), ""
        else:
            token, sep = st.text(max_size=3).filter(lambda t: "." not in t and t not in alphabet.labels), "."
        malformed = st.tuples(st.lists(letter, max_size=3), token, st.lists(letter, max_size=3)).map(
            lambda parts: sep.join([*parts[0], parts[1], *parts[2]])
        )
        word = (
            st.lists(letter, max_size=degree)
            | st.dictionaries(letter, st.integers(0, 2), max_size=2)
            | st.integers()
            | malformed
        )
        term = data.draw(st.sampled_from(payload["terms"]))
        term["word"] = data.draw(word)
        with pytest.raises(ValueError, match=re.escape(f"bad term {term!r}")):
            LieElement.from_json_dict(payload)

    def test_schema_shape(self, abc):
        data = LieElement(abc, 2, {(0, 1): 2}).to_json_dict()
        assert set(data) == {"alphabet", "degree", "terms"}
        assert data["alphabet"] == ["a", "b", "c"]
        assert data["terms"] == [{"word": "ab", "coeff": "2"}]


class TestValidation:
    def test_rejects_non_lyndon_keys(self, abc):
        with pytest.raises(ValueError):
            LieElement(abc, 2, {(1, 0): 1})

    def test_rejects_wrong_degree(self, abc):
        with pytest.raises(ValueError):
            LieElement(abc, 3, {(0, 1): 1})

    def test_degree_has_no_upper_bound(self, abc):
        # callers bound the degrees they solve; an element of any degree constructs
        assert LieElement(abc, 10, {tuple([0] * 9 + [1]): 1}).degree == 10
        assert LieElement(abc, 11, {}).is_zero()

    def test_rejects_mixed_alphabets(self, abc, x3):
        a = LieElement.generator(abc, "a")
        x = LieElement.generator(x3, "X1")
        with pytest.raises(ValueError):
            lie_bracket(a, x)

    def test_rejects_float_coeffs(self, abc):
        with pytest.raises(TypeError):
            LieElement(abc, 1, {(0,): 0.5})


class TestElementCore:
    # LieElement and TensorElement share one base class; these pin the
    # behaviour both had as separate classes
    CASES = [
        ({(0, 1): 2, (0, 2): -3}, "+2{ab}-3{ac}", ["2", "-3"]),
        ({(0, 1): 1, (1, 2): -1}, "+{ab}-{bc}", ["1", "-1"]),
        ({(0, 1): Fraction(1), (0, 2): Fraction(-1)}, "+{ab}-{ac}", ["1", "-1"]),
        ({}, "0", []),
    ]

    @pytest.mark.parametrize("cls, brackets", [(LieElement, "[]"), (TensorElement, "()")])
    @pytest.mark.parametrize("coeffs, shape, json_coeffs", CASES)
    def test_repr_json_hash(self, abc, cls, brackets, coeffs, shape, json_coeffs):
        el = cls(abc, 2, coeffs)
        assert repr(el) == shape.replace("{", brackets[0]).replace("}", brackets[1])
        assert [t["coeff"] for t in el.to_json_dict()["terms"]] == json_coeffs
        assert el.to_json_dict()["alphabet"] == ["a", "b", "c"]
        assert hash(el) == hash((abc.labels, 2, tuple(sorted(el.coeffs.items()))))

    @pytest.mark.parametrize("cls", [LieElement, TensorElement])
    def test_non_unit_fraction_repr(self, abc, cls):
        el = cls(abc, 2, {(0, 1): Fraction(1, 2)})
        assert el.to_json_dict()["terms"] == [{"word": "ab", "coeff": "1/2"}]
        assert repr(el).startswith("+1/2")

    def test_lie_never_equals_tensor(self, abc):
        for coeffs in ({(0, 1): 2}, {}):
            lie, tensor = LieElement(abc, 2, coeffs), TensorElement(abc, 2, coeffs)
            assert lie != tensor and tensor != lie
        assert LieElement.zero(abc, 1) != TensorElement.zero(abc, 1)

    def test_arithmetic_keeps_the_class(self, abc):
        t = TensorElement(abc, 1, {(0,): 1})
        a = LieElement.generator(abc, "a")
        assert type(t.scale(0)) is TensorElement and type(-t) is TensorElement
        assert type(a + a) is LieElement and type(3 * a) is LieElement
        assert repr(2 * a) == "+2[a]" and repr(t * 0) == "0"

    def test_zero_coefficient_non_lyndon_word_rejected(self, abc):
        with pytest.raises(ValueError, match=r"word \(1, 0\) is not Lyndon"):
            LieElement(abc, 2, {(1, 0): 0})
        assert TensorElement(abc, 2, {(1, 0): 0}).is_zero()

    def test_error_messages(self, abc, x3):
        a = LieElement.generator(abc, "a")
        t = TensorElement(abc, 1, {(0,): 1})
        cases = [
            (lambda: LieElement(abc, 3, {(0, 1): 1}), ValueError, "word (0, 1) does not have degree 3"),
            (lambda: LieElement(abc, 1, {(3,): 1}), ValueError, "word (3,) has letters outside the alphabet"),
            (lambda: TensorElement(abc, 1, {(5,): 1}), ValueError, "word (5,) has letters outside the alphabet"),
            (lambda: LieElement(abc, 1, {(0,): 0.5}), TypeError, "coefficients must be int or Fraction, got <class 'float'>"),
            (lambda: LieElement(abc, 1, {(0,): True}), TypeError, "coefficients must be int or Fraction, got <class 'bool'>"),
            (lambda: LieElement(abc, 0, {}), ValueError, "degree must be >= 1"),
            (lambda: a + LieElement.generator(x3, "X1"), ValueError, "alphabet mismatch"),
            (lambda: a + LieElement(abc, 2, {(0, 1): 1}), ValueError, "degree mismatch in sum"),
            (lambda: t + TensorElement(x3, 1, {(0,): 1}), ValueError, "alphabet mismatch"),
            (lambda: t + TensorElement(abc, 2, {}), ValueError, "degree mismatch in sum"),
            (lambda: t * TensorElement(x3, 1, {(0,): 1}), ValueError, "alphabet mismatch"),
            (lambda: a * a, TypeError, "coefficients must be int or Fraction, got <class 'mccool.freelie.LieElement'>"),
            (lambda: a - t, TypeError, "cannot add TensorElement to LieElement"),
            (lambda: t + a, TypeError, "cannot add LieElement to TensorElement"),
        ]
        for make, error, message in cases:
            with pytest.raises(error) as info:
                make()
            assert type(info.value) is error and str(info.value) == message


def substitute_via_tensor(p, images, alphabet):
    """Reference: substitute the letters of every tensor word of p (signs
    multiply, a killed letter kills the word), then read the result back
    in the Lyndon basis."""
    out = {}
    for word, c in to_tensor(p).coeffs.items():
        moved = []
        for letter in word:
            if images[letter] is None:
                break
            sign, target = images[letter]
            c *= sign
            moved.append(target)
        else:
            out[tuple(moved)] = out.get(tuple(moved), 0) + c
    coeffs = {w: c for w, c in out.items() if c}
    return from_tensor(TensorElement(alphabet, p.degree, coeffs))


letter_images = st.tuples(st.sampled_from([1, -1]), st.integers(0, 2))


class TestMorphismImage:
    @staticmethod
    def counting(calls):
        def bracket(u, v):
            calls.append((u, v))
            return _nonzero_bracket(u, v)

        return bracket

    def test_bracket_never_sees_a_zero_image(self):
        # letter 0 is killed: every word holding it is zero, and none of
        # its brackets is formed
        source, target = x_alphabet(3), abc_alphabet()
        images = (None, (1, 1), (-1, 2))
        memo, calls = dict(_substitution_memo(images, target)), []
        for degree in range(1, 6):
            for w in lyndon_tuples(3, degree):
                image = morphism_image(w, memo, self.counting(calls))
                want = substitute(LieElement(source, degree, {w: 1}), images, target)
                assert (image is None) == want.is_zero()
                assert image is None or image == want
        assert calls and all(u is not None and v is not None for u, v in calls)

    def test_killed_first_factor_skips_the_second(self):
        # b(0011) = [b(0), b(011)]: with letter 0 killed, the factor 011 is
        # never evaluated, and no bracket is formed
        memo, calls = dict(_substitution_memo((None, (1, 1)), abc_alphabet())), []
        assert standard_factorization((0, 0, 1, 1)) == ((0,), (0, 1, 1))
        assert morphism_image((0, 0, 1, 1), memo, self.counting(calls)) is None
        assert not calls
        assert set(memo) == {(0,), (1,), (0, 0, 1, 1)}


class TestSubstitute:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_respects_brackets(self, data):
        source, target = x_alphabet(4), abc_alphabet()
        images = tuple(data.draw(st.one_of(st.none(), letter_images)) for _ in range(4))
        du, dv = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        u = data.draw(lie_elements(source, du))
        v = data.draw(lie_elements(source, dv))
        sub = substitute(lie_bracket(u, v), images, target)
        assert sub == lie_bracket(substitute(u, images, target), substitute(v, images, target))
        assert sub == substitute_via_tensor(lie_bracket(u, v), images, target)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_killed_letter_kills_its_words(self, data):
        source, target = x_alphabet(4), abc_alphabet()
        images = list(data.draw(st.tuples(*[letter_images] * 4)))
        killed = data.draw(st.integers(0, 3))
        images[killed] = None
        degree = data.draw(st.integers(1, 5))
        for w in lyndon_tuples(4, degree):
            image = substitute(LieElement(source, degree, {w: 1}), tuple(images), target)
            if killed in w:
                assert image.is_zero()
            else:
                assert image == substitute_via_tensor(
                    LieElement(source, degree, {w: 1}), tuple(images), target
                )

    def test_letter_map_is_hashed_once_per_call(self):
        """The memo of a letter map is looked up once per substitute call,
        not once per word of the recursion: a map that counts its hashes
        sees a constant number whatever the number of words."""
        from mccool.johnson import mccool_symbols, omega
        from mccool.stabilization import iota_sym, pi_sym

        class CountingMap(tuple):
            hashes = 0

            def __hash__(self):
                CountingMap.hashes += 1
                return super().__hash__()

        sym3, sym7 = mccool_symbols(3), mccool_symbols(7)
        # the projection pi_J, J = {1, 2, 3}, as a letter map
        images = CountingMap(
            (1, sym3.alphabet.index(f"k{a}{b}")) if max(a, b) <= 3 else None
            for a, b in sym7.pairs
        )
        big = iota_sym((1, 2, 3), omega(), 7)
        small = LieElement(sym7.alphabet, 6, {next(iter(big.coeffs)): 1})
        assert big.degree == 6 and len(big.coeffs) > 10
        for p in (big, small, big):
            CountingMap.hashes = 0
            image = substitute(p, images, sym3.alphabet)
            assert CountingMap.hashes <= 2
            assert image == pi_sym((1, 2, 3), p, 7)

    def test_maps_differing_in_one_sign(self):
        """Two maps equal but for one sign have their own memos: both run in
        one process and give opposite images of a word using that letter
        once."""
        source, target = x_alphabet(2), abc_alphabet()
        p = LieElement(source, 3, {(0, 0, 1): 1})  # [X1, [X1, X2]]
        plus = substitute(p, ((1, 0), (1, 1)), target)
        minus = substitute(p, ((1, 0), (-1, 1)), target)
        assert not plus.is_zero() and minus == -plus
        assert substitute(p, ((1, 0), (1, 1)), target) == plus

    def test_map_length_must_match_the_alphabet(self):
        with pytest.raises(ValueError, match="2 letter images for an alphabet of 3 letters"):
            substitute(LieElement.generator(abc_alphabet(), "a"), ((1, 0), (1, 1)), abc_alphabet())

    def test_s3_action_matrices(self):
        from mccool.symmetry import S3_ALL, _abc_images, action_on_degree

        rows = []
        abc = abc_alphabet()
        for sigma in S3_ALL:
            for k in range(1, 7):
                entries = action_on_degree(sigma, k).entries
                want = {}
                for j, w in enumerate(lyndon_tuples(3, k)):
                    img = substitute_via_tensor(LieElement(abc, k, {w: 1}), _abc_images(sigma), abc)
                    for i, ww in enumerate(lyndon_tuples(3, k)):
                        if img.coefficient(ww):
                            want[(i, j)] = img.coefficient(ww)
                assert entries == want
                rows.append((sigma.images, k, sorted(entries.items())))
        # the matrices themselves, pinned: any change to the S3 action on
        # the Lyndon basis of degree <= 6 changes this digest
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "65e2844d01195b0767c4b54f25597232e7d6754027b0ee5878e37f1a3b6d9eef"
