"""Round-robin interleaving of copy addresses.

The fusion of n bitstrings is the set of shortest bitstrings z such that for
every i, reading every n'th bit of z starting at position i spells out an
extension of the i'th input.  Positions falling beyond the end of their input
are unconstrained, which is where a fusion can have more than one element.
Defusion inverts the interleaving.
"""

from __future__ import annotations

from .games import CapExceeded, GameError

WORD_CAP = 4096  # words one fusion, or parts one defusion, may have


def _check_bits(s: str, what: str) -> None:
    if s.strip("01"):
        raise GameError(f"{what} must be a bitstring, got {s!r}")


def fusions(parts: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    """All fusions of the given bitstrings, sorted; no inputs fuse to epsilon."""
    n = len(parts)
    if n == 0:
        return ("",)
    for p in parts:
        _check_bits(p, "fusion input")
    # minimal length covering the last forced position of every input
    length = max((n * (len(p) - 1) + i + 1 for i, p in enumerate(parts) if p), default=0)
    # input i spells positions i, i + n, ...; "*" marks a free position
    chars = ["*"] * length
    for i, p in enumerate(parts):
        chars[i:n * len(p) + i:n] = p
    word = "".join(chars)
    if "*" not in word:
        return (word,)
    first, *tails = word.split("*")
    if 2 ** len(tails) > WORD_CAP:
        raise CapExceeded(f"2**{len(tails)} fusion words exceed cap {WORD_CAP}")
    # each free position doubles the words, "0" before "1", so they stay sorted
    words = [first]
    for tail in tails:
        ends = ("0" + tail, "1" + tail)
        words = [w + e for w in words for e in ends]
    return tuple(words)


def defusion(z: str, n: int) -> tuple[str, ...]:
    """Split z into its n round-robin subsequences."""
    if n < 1:
        raise GameError(f"need n >= 1, got {n}")
    _check_bits(z, "defusion input")
    if n > WORD_CAP:
        raise CapExceeded(f"{n} defusion parts exceed cap {WORD_CAP}")
    return tuple([z[i::n] for i in range(n)])
