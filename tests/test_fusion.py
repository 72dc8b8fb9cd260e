"""Interleaving (fusion/defusion) of bitstrings.

The oracle below rebuilds fusions by a rotation recursion that never looks at
positions: emit the head of the first component (or a free bit when it is
already spent), then fuse the rotated remainders. The implementation under
test uses closed-form position arithmetic instead, so agreement between the
two is meaningful.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirquent.fusion import WORD_CAP, defusion, fusions
from cirquent.games import CapExceeded


def oracle(parts: tuple[str, ...]) -> set[str]:
    if all(not p for p in parts):
        return {""}
    heads = [parts[0][0]] if parts[0] else ["0", "1"]
    rest = parts[1:] + (parts[0][1:],)
    return {h + t for h in heads for t in oracle(rest)}


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
    with pytest.raises(ValueError):
        fusions(("01", "2"))
    with pytest.raises(ValueError):
        defusion("01x", 2)
    with pytest.raises(ValueError):
        defusion("01", 0)


def test_cap():
    with pytest.raises(CapExceeded):
        fusions(("", "0" * 40))


def test_defusion_cap():
    assert len(defusion("0101", WORD_CAP)) == WORD_CAP
    with pytest.raises(CapExceeded, match=f"{WORD_CAP + 1} defusion parts exceed cap {WORD_CAP}"):
        defusion("0101", WORD_CAP + 1)
