"""The list fold of the trace tables, kept as the reference for the packed
`expsum._fold`, and the reader of the packed counts both builders hand it.

`fold` takes the flat unfolded counts, 2p per entry in index order, as a
list: each entry's two halves are added slot by slot, the folded counts are
negated, and `counts_to_cyclo` applies the zeta^(p-1) relation to them, one
Python list per entry."""

from array import array

from airycheck.arith import CyclotomicValue


def counts_to_cyclo(p: int, counts) -> CyclotomicValue:
    """sum_c counts[c] * zeta^c with the zeta^{p-1} relation applied."""
    k = counts[p - 1]
    return CyclotomicValue(p, [counts[c] - k for c in range(p - 1)])


def fold(p: int, counts) -> tuple:
    """The entries of the flat unfolded counts `counts`, 2p per entry in
    index order, each the negated sum of its folded counts."""
    return tuple([counts_to_cyclo(p, [-a - b for a, b in zip(counts[i: i + p], counts[i + p: i + 2 * p])])
                  for i in range(0, len(counts), 2 * p)])


def unpack(p: int, q: int, tc: str, acc: int) -> list:
    """The flat unfolded counts packed in `acc`: 2pq slots of the unsigned
    `array` item width of typecode `tc`, as `_fold` reads them."""
    counts = array(tc)
    counts.frombytes(acc.to_bytes(2 * p * q * counts.itemsize, "little"))
    return counts.tolist()


def pack(tc: str, counts) -> int:
    """The flat counts `counts` packed in one int, one slot of the item
    width of typecode `tc` each."""
    return int.from_bytes(array(tc, counts), "little")


def windows(p: int, q: int, tc: str, acc: int) -> list:
    """The 2p unfolded counts of each of the q entries packed in `acc`."""
    counts = unpack(p, q, tc, acc)
    return [counts[i: i + 2 * p] for i in range(0, 2 * p * q, 2 * p)]


def folded(p: int, window) -> list:
    """The p counts mod p of one window: its two halves added."""
    return [a + b for a, b in zip(window[:p], window[p:])]
