"""Interleaving (fusion/defusion) of bitstrings.

The oracle below rebuilds fusions by a rotation recursion that never looks at
positions: emit the head of the first component (or a free bit when it is
already spent), then fuse the rotated remainders. The implementation under
test uses closed-form position arithmetic instead, so agreement between the
two is meaningful.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirquent.fusion import WORD_CAP, Marks, defusion, fusions, weave
from cirquent.games import CapExceeded, GameError


@functools.cache  # a free head bit would fuse the remainders twice
def oracle(parts: tuple[str, ...]) -> frozenset[str]:
    if all(not p for p in parts):
        return frozenset({""})
    heads = [parts[0][0]] if parts[0] else ["0", "1"]
    rest = parts[1:] + (parts[0][1:],)
    return frozenset(h + t for h in heads for t in oracle(rest))


def oracle_size(parts: tuple[str, ...]) -> int:
    """How many words `oracle` returns, by the same recursion."""
    if all(not p for p in parts):
        return 1
    return (1 if parts[0] else 2) * oracle_size(parts[1:] + (parts[0][1:],))


bits = st.text(alphabet="01", max_size=7)


def test_oracle_spot_checks():
    assert oracle(("000", "11")) == {"01010"}
    assert oracle(("", "1")) == {"01", "11"}
    assert oracle(("", "")) == {""}


def test_worked_pairs():
    assert fusions(("000", "11")) == ("01010",)
    assert fusions(("000", "111")) == ("010101",)
    assert fusions(("000", "1111")) == ("01010101", "01010111")


def test_worked_triple():
    assert fusions(("11", "00", "111")) == (
        "101101001",
        "101101011",
        "101101101",
        "101101111",
    )


def test_worked_defusions():
    assert defusion("01011010", 2) == ("0011", "1100")
    assert defusion("01011010", 3) == ("011", "110", "00")


def test_single_component_is_identity():
    assert fusions(("0110",)) == ("0110",)
    assert defusion("0110", 1) == ("0110",)


def test_empty():
    assert fusions(()) == ("",)
    assert fusions(("", "")) == ("",)
    assert defusion("", 3) == ("", "", "")


def test_agrees_with_oracle_on_small_pairs():
    for total in range(0, 10):
        for la in range(total + 1):
            lb = total - la
            for a in map("".join, itertools.product("01", repeat=la)):
                for b in map("".join, itertools.product("01", repeat=lb)):
                    assert set(fusions((a, b))) == oracle((a, b)), (a, b)


def _families(max_total: int):
    """Every family of one, two or three bitstrings of total length at most
    `max_total`."""
    for k in (1, 2, 3):
        for lengths in itertools.product(range(max_total + 1), repeat=k):
            if sum(lengths) <= max_total:
                yield from itertools.product(
                    *(map("".join, itertools.product("01", repeat=n)) for n in lengths))


def test_agrees_with_oracle_on_every_small_family():
    """Both ways a fusion is built, the single word of a family that leaves
    no position free and the words doubled over each free position, give the
    oracle's words in sorted order, whether the family is a tuple or a list;
    a family with more words than the cap raises instead."""
    single = several = capped = 0
    for parts in _families(8):
        size = oracle_size(parts)
        if size > WORD_CAP:
            with pytest.raises(CapExceeded):
                fusions(parts)
            capped += 1
            continue
        got = fusions(parts)
        assert got == tuple(sorted(oracle(parts))), parts
        oracle.cache_clear()  # kept for every family, it would take about 900 MB
        if size <= 16:
            assert fusions(list(parts)) == got, parts
        single += size == 1
        several += size > 1
    assert single > 1000 and several > 1000 and capped > 0


@given(st.lists(bits, min_size=1, max_size=4))
@settings(max_examples=300)
def test_agrees_with_oracle(parts):
    parts = tuple(parts)
    try:
        got = fusions(parts)
    except CapExceeded:
        return
    assert set(got) == oracle(parts)
    assert list(got) == sorted(got)


@given(st.lists(bits, min_size=1, max_size=3))
@settings(max_examples=200)
def test_defusion_recovers_prefixes(parts):
    parts = tuple(parts)
    try:
        webs = fusions(parts)
    except CapExceeded:
        return
    for w in webs:
        back = defusion(w, len(parts))
        for original, recovered in zip(parts, back):
            assert recovered.startswith(original)


@given(bits, st.integers(min_value=1, max_value=4))
def test_every_string_fuses_its_own_defusion(z, n):
    assert z in fusions(defusion(z, n))


def test_rejects_non_bits():
    # a single input, a family with no free position and one with free
    # positions
    for parts in (("2",), ("01", "2"), ("0", "", "a")):
        with pytest.raises(GameError, match="fusion input must be a bitstring"):
            fusions(parts)
    with pytest.raises(GameError, match="defusion input must be a bitstring"):
        defusion("01x", 2)
    with pytest.raises(GameError, match="need n >= 1"):
        defusion("01", 0)


def test_cap():
    with pytest.raises(CapExceeded):
        fusions(("", "0" * 40))
    # 12 free positions make 4,096 words, the cap; 13 exceed it
    assert len(fusions(("", "0" * 12))) == WORD_CAP
    with pytest.raises(CapExceeded, match=f"2\\*\\*13 fusion words exceed cap {WORD_CAP}"):
        fusions(("", "0" * 13))


def test_defusion_cap():
    assert len(defusion("0101", WORD_CAP)) == WORD_CAP
    with pytest.raises(CapExceeded, match=f"{WORD_CAP + 1} defusion parts exceed cap {WORD_CAP}"):
        defusion("0101", WORD_CAP + 1)


# ------------------------------------------------ woven words with placeholders

P0, P1, P2, P3, P4 = map(chr, range(0xF0000, 0xF0005))


def test_weave_numbers_free_positions_left_to_right():
    marks = Marks()
    assert weave(("000", "1111"), marks) == "010101" + P0 + "1"
    assert weave(("", "0", ""), marks) == P1 + "0"
    assert weave(("11", "00", "111"), marks) == "101101" + P2 + P3 + "1"
    assert marks.drawn == {P0, P1, P2, P3}
    assert weave((), marks) == "" and weave(("", ""), marks) == ""


def test_marks_skip_every_code_point_of_the_moves_they_are_taken_from():
    marks = Marks(["q" + P0 + P2, "", "\U0010ffff\ud800"])
    assert marks.draw(3) == [P1, P3, P4]
    assert marks.expand("0" + P0 + P3 + P1) == [
        "0" + P0 + "00", "0" + P0 + "10", "0" + P0 + "01", "0" + P0 + "11"]


def test_an_expansion_past_the_cap_raises():
    marks = Marks()
    word = weave(("", "0" * 13), marks)
    assert len(marks.expand(word[:-2])) == WORD_CAP
    with pytest.raises(CapExceeded, match=f"2\\*\\*13 fusion words exceed cap {WORD_CAP}"):
        marks.expand(word)


def test_placeholders_are_address_bits_and_nothing_else_is():
    marks = Marks()
    [p] = marks.draw(1)
    assert marks.is_address("") and marks.is_address("01" + p + "0" + p)
    assert not marks.is_address("0x") and not marks.is_address(P1)


@given(st.lists(st.lists(bits, min_size=1, max_size=3), min_size=1, max_size=3))
@settings(max_examples=200)
def test_a_weave_of_woven_words_expands_as_the_fan_out_per_word(families):
    """Weaving woven words expands to the words that a fusion per word
    gives, in the same order: the first family's words are the most
    significant, the outer weave's free bits the least.  Slicing a woven
    word unweaves each of its words as defusion does."""
    marks = Marks()
    word = weave([weave(parts, marks) for parts in families], marks)
    try:
        got = marks.expand(word)
        want = [z for ws in itertools.product(*map(fusions, families)) for z in fusions(ws)]
    except CapExceeded:
        return
    assert got == want
    n = len(families)
    sliced = marks.expand(",".join(word[i::n] for i in range(n)))
    assert [defusion(z, n) for z in got] == [tuple(w.split(",")) for w in sliced]
