"""Round-robin interleaving of copy addresses.

The fusion of n bitstrings is the set of shortest bitstrings z such that for
every i, reading every n'th bit of z starting at position i spells out an
extension of the i'th input.  Positions falling beyond the end of their input
are unconstrained, which is where a fusion can have more than one element.
Defusion inverts the interleaving.

`weave` builds the one fused word in which each free position holds a
numbered placeholder drawn from `Marks`; the fusion is that word's
expansion, every placeholder fixed to `0` or `1`.  A word that holds
placeholders unweaves by slicing, like a bitstring.
"""

from __future__ import annotations

from typing import Iterable

from .games import CapExceeded, GameError

WORD_CAP = 4096  # words one expansion, or parts one defusion, may have

# Placeholders are code points of the private-use planes 15 and 16.
_FIRST, _END = 0xF0000, 0x110000


class Marks:
    """The placeholders of one translation: the k'th drawn is numbered k,
    and is the k'th code point of the private-use planes 15 and 16 that no
    string of `taken` contains.  Numbers rise with code points, so a text's
    placeholders sort by number as they sort as characters."""

    drawn: frozenset[str] | set[str] = frozenset()  # a set from the first draw on
    _next = _FIRST

    def __init__(self, taken: Iterable[str] = ()):
        self._taken = taken  # read on the first draw

    def draw(self, k: int) -> list[str]:
        """k placeholders, numbered above every one drawn before."""
        if not k:
            return []
        if not self.drawn:
            self.drawn, low = set(), chr(_FIRST)
            self._taken = {c for s in self._taken if s and max(s) >= low for c in s if c >= low}
        out, cp = [], self._next
        while len(out) < k:
            if cp == _END:
                raise CapExceeded(f"more than {_END - _FIRST} placeholders in one translation")
            c = chr(cp)
            cp += 1
            if c not in self._taken:
                out.append(c)
        self._next = cp
        self.drawn.update(out)
        return out

    def expand(self, text: str) -> list[str]:
        """Every word `text` stands for, in order: the lowest-numbered
        placeholder is the most significant, and `0` comes before `1`.
        Raises CapExceeded past WORD_CAP words."""
        if not self.drawn or self.drawn.isdisjoint(text):
            return [text]
        held = sorted(self.drawn.intersection(text))
        if 2 ** len(held) > WORD_CAP:
            raise CapExceeded(f"2**{len(held)} fusion words exceed cap {WORD_CAP}")
        words = [text]
        for c in held:
            words = [w.replace(c, bit) for w in words for bit in "01"]
        return words

    def is_address(self, w: str) -> bool:
        """Whether `w` is a copy address: bits and placeholders only."""
        return not w.strip("01") or self.drawn.issuperset(set(w) - {"0", "1"})


def _check_bits(s: str, what: str) -> None:
    if s.strip("01"):
        raise GameError(f"{what} must be a bitstring, got {s!r}")


def weave(parts: list[str] | tuple[str, ...], marks: Marks) -> str:
    """The fused word of `parts`, whose free positions hold placeholders
    drawn from `marks`, numbered left to right; no inputs weave to epsilon.
    A part may hold placeholders of its own, drawn earlier."""
    n = len(parts)
    # minimal length covering the last forced position of every input
    length = max((n * (len(p) - 1) + i + 1 for i, p in enumerate(parts) if p), default=0)
    # input i spells positions i, i + n, ...; "*", never a bit or a
    # placeholder, marks a free position
    chars = ["*"] * length
    for i, p in enumerate(parts):
        chars[i:n * len(p) + i:n] = p
    word = "".join(chars)
    if "*" not in word:
        return word
    first, *tails = word.split("*")
    return first + "".join([m + tail for m, tail in zip(marks.draw(len(tails)), tails)])


def fusions(parts: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    """All fusions of the given bitstrings, sorted: the expansion of their
    `weave`; no inputs fuse to epsilon."""
    for p in parts:
        _check_bits(p, "fusion input")
    marks = Marks()
    return tuple(marks.expand(weave(parts, marks)))


def defusion(z: str, n: int) -> tuple[str, ...]:
    """Split z into its n round-robin subsequences."""
    if n < 1:
        raise GameError(f"need n >= 1, got {n}")
    _check_bits(z, "defusion input")
    if n > WORD_CAP:
        raise CapExceeded(f"{n} defusion parts exceed cap {WORD_CAP}")
    return tuple([z[i::n] for i in range(n)])
