import pytest

from garside import (Presentation, PresentationError, fixture,
                     parse_presentation, serialize_presentation)


def test_parse_basic():
    p = parse_presentation("gens: a b\nrels: aa=bb; ab=ba\n")
    assert p.generators == ("a", "b")
    assert p.relations == (("aa", "bb"), ("ab", "ba"))
    assert p.max_relation_length == 2


def test_parse_comments_and_blank_lines():
    text = """
    # a comment
    gens: x y   # trailing comment

    rels: xy = yx
    """
    p = parse_presentation(text)
    assert p.generators == ("x", "y")
    assert p.relations == (("ab", "ba"),)


def test_parse_chained_relation():
    p = parse_presentation("gens: a b c\nrels: aa=bb=cc\n")
    assert p.relations == (("aa", "bb"), ("bb", "cc"))


def test_parse_errors():
    with pytest.raises(PresentationError):
        parse_presentation("rels: aa=bb\n")
    with pytest.raises(PresentationError):
        parse_presentation("gens: a\nnonsense\n")
    with pytest.raises(PresentationError):
        parse_presentation("gens: a b\ngens: c\n")
    with pytest.raises(PresentationError):
        parse_presentation("gens: a b\nrels: aa\n")
    with pytest.raises(PresentationError):
        parse_presentation("gens: a b\nrels: a=\n")


def test_parse_errors_on_relation_lines():
    with pytest.raises(PresentationError, match="duplicate 'rels:' line"):
        parse_presentation("gens: a b\nrels: aa=bb\nrels: ab=ba\n")
    # a side that encodes to the empty word
    with pytest.raises(PresentationError, match="1=1 has an empty side"):
        parse_presentation("gens: a b\nrels: 1=1\n")


def test_parse_skips_empty_relation_chunks():
    p = parse_presentation("gens: a b\nrels: aa=bb;; ab=ba;\n")
    assert p.relations == (("aa", "bb"), ("ab", "ba"))


def test_presentation_validation():
    with pytest.raises(PresentationError):
        Presentation([], [])
    with pytest.raises(PresentationError):
        Presentation(["a", "a"], [])
    with pytest.raises(PresentationError):
        Presentation(["a'"], [])
    # homogeneity: sides must have equal length
    with pytest.raises(PresentationError):
        Presentation(["a", "b"], [("a", "bb")])
    with pytest.raises(PresentationError):
        Presentation(["a", "b"], [("ab", "ab")])
    with pytest.raises(PresentationError):
        Presentation([f"g{i}" for i in range(27)], [])


def test_internal_alphabet_follows_declaration_order():
    p = Presentation(["s1", "s2"], [("s1s2s1", "s2s1s2")])
    assert p.char_of("s1") == "a"
    assert p.char_of("s2") == "b"
    assert p.symbol_of("a") == "s1"
    assert p.relations == (("aba", "bab"),)


def test_encode_decode_word():
    p = fixture("B3")
    assert p.encode_word("s1s2s1") == "aba"
    assert p.encode_word("s1 s2  s1") == "aba"
    assert p.encode_word("1") == ""
    assert p.encode_word("") == ""
    assert p.decode_word("aba") == "s1s2s1"
    assert p.decode_word("") == "1"
    with pytest.raises(PresentationError):
        p.encode_word("s3")
    with pytest.raises(PresentationError):
        p.char_of("s3")


def test_signed_words():
    p = fixture("M1")
    assert p.encode_signed("a b' a") == (("a", 1), ("b", -1), ("a", 1))
    assert p.encode_signed("ab'a") == (("a", 1), ("b", -1), ("a", 1))
    assert p.encode_signed("1") == ()
    assert p.encode_signed("1'") == ()
    assert p.decode_signed((("a", 1), ("b", -1))) == "ab'"
    assert p.decode_signed(()) == "1"
    with pytest.raises(PresentationError):
        p.encode_signed("'a")


def test_word_input_errors():
    p = fixture("M1")
    with pytest.raises(PresentationError,
                       match="unknown symbol at position 3 in signed word"):
        p.encode_signed("ab'c")
    with pytest.raises(PresentationError, match="expected a word string"):
        p.encode_word(["a"])
    with pytest.raises(PresentationError,
                       match="expected a signed word string"):
        p.encode_signed(None)


def test_serialize_round_trip():
    for name in ("M1", "M2", "M3", "B3", "free_comm(3)"):
        p = fixture(name)
        q = parse_presentation(serialize_presentation(p))
        assert q.generators == p.generators
        assert q.relations == p.relations


def test_fixtures():
    assert fixture("M1").relations == (("aa", "bb"), ("ab", "ba"))
    assert len(fixture("M2").relations) == 6
    assert len(fixture("M3").relations) == 4
    assert fixture("B3").max_relation_length == 3
    assert fixture("free(2)").relations == ()
    assert fixture("free(2)").max_relation_length == 1
    assert len(fixture("free_comm(4)").relations) == 6
    assert fixture(" M1 ").name == "M1"
    with pytest.raises(PresentationError):
        fixture("M9")
    with pytest.raises(PresentationError):
        fixture("free(0)")
