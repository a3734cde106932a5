"""Braid-word front end: Seifert matrices of braid closures, and a catalog.

A braid word on n strands is a list of nonzero letters with |letter| < n;
letter +a / -a is a positive / negative crossing between strands a and
a+1.  Its closure is a knot exactly when the underlying permutation is a
single n-cycle.

The Seifert surface of the closure consists of n disks (one per strand)
joined by one twisted band per letter.  First homology is generated by
one loop per pair of CONSECUTIVE occurrences of the same generator; the
loop runs through those two bands and the disks between them.  The
Seifert matrix entry (x, y) is the linking number of loop x with the
positive pushoff of loop y, and only three interaction shapes are
nonzero.  Writing a loop as the interval (start, end) of its two word
positions, and ordering loops by start position:

* a loop through bands with signs (e1, e2) has self-linking (e1 + e2)/2;
* loops in the same generator column sharing a band interact through the
  band's half twist: a shared positive band puts -1 in the (later,
  earlier) slot, a shared negative band puts +1 in the (earlier, later)
  slot;
* loops in adjacent columns whose intervals interleave cross once on the
  shared disk: if the earlier loop lives in the higher column the
  (later, earlier) slot gets -1, otherwise the (earlier, later) slot
  gets +1.

Sign convention: the positive trefoil word [1, 1, 1] reproduces the
catalog trefoil invariants (signature +2, so mu = 2 for its 2-twist
spin); feeding the mirror word negates every signature.  Any such global
choice is legitimate -- mirror images swap under it -- and this one keeps
the braid and catalog routes consistent with each other.

Isolated occurrences of the outermost generators are Markov
destabilizations and are removed before the surface is read off; an
isolated interior generator contributes no homology generator and no
interactions, so it is harmless to the matrix.
"""

from __future__ import annotations

from .exactla import DimensionError, IntMatrix, _Value
from .spinmu import SeifertMatrix, validate_seifert


class NotAKnotError(ValueError):
    """The braid closure has more than one component."""


class CatalogError(LookupError):
    """Unknown catalog entry."""


class BraidWord(_Value):
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters: tuple[int, ...]) -> None:
        letters = tuple(int(x) for x in letters)
        if strands < 1:
            raise DimensionError(f"strand count must be >= 1, got {strands}")
        for letter in letters:
            if letter == 0 or abs(letter) >= strands:
                raise DimensionError(
                    f"letter {letter} out of range for {strands} strands")
        self._set(strands=strands, letters=letters)

    def closure_components(self) -> int:
        """Cycles of the strand permutation: components of the closure.

        Strands no letter moves are fixed points, one component each, so
        only the moved ones are traced: the cost is linear in the word
        length, whatever the strand count.
        """
        at: dict[int, int] = {}  # position -> strand ending there, if touched
        for letter in self.letters:
            a = abs(letter) - 1
            at[a], at[a + 1] = at.get(a + 1, a + 1), at.get(a, a)
        cycles = self.strands - len(at)
        seen: set[int] = set()
        for start in at:
            if start not in seen:
                cycles += 1
                p = start
                while p not in seen:
                    seen.add(p)
                    p = at[p]
        return cycles

    @property
    def is_knot_closure(self) -> bool:
        return self.closure_components() == 1


def _destabilize(word: list[int], strands: int) -> tuple[list[int], int]:
    """Strip isolated occurrences of the outermost generators.

    A single use of generator strands-1 (or, after flipping the braid,
    of generator 1) is a Markov stabilization; removing it and the spare
    strand leaves the closure unchanged.
    """
    while strands > 1:
        counts = [0] * strands
        for letter in word:
            counts[abs(letter)] += 1
        top = strands - 1
        if counts[top] == 1:
            word = [x for x in word if abs(x) != top]
            strands -= 1
        elif counts[1] == 1:
            word = [x - (1 if x > 0 else -1) for x in word if abs(x) != 1]
            strands -= 1
        else:
            break
    return word, strands


def _consecutive_pairs(word: list[int]) -> list[tuple[int, int]]:
    """(position, next position of the same generator) for each loop."""
    nxt: list[int | None] = [None] * len(word)
    last: dict[int, int] = {}
    for p, letter in enumerate(word):
        g = abs(letter)
        if g in last:
            nxt[last[g]] = p
        last[g] = p
    return [(i, n) for i, n in enumerate(nxt) if n is not None]


def seifert_matrix_from_braid(braid: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the braid closure; the closure must be a knot.

    One sweep over the word: when loop a = (i, p) closes at position p,
    the loop of the same column starting at p shares its band, and in
    each adjacent column h only the loop starting at the last occurrence
    of h before p can interleave with a (it starts inside (i, p) and
    ends after p).  So the build takes time linear in the word length.
    """
    if not braid.is_knot_closure:
        raise NotAKnotError(
            f"closure has {braid.closure_components()} components, not a knot")
    word, _ = _destabilize(list(braid.letters), braid.strands)
    loops = _consecutive_pairs(word)
    m = len(loops)
    starting_at = {i: a for a, (i, _) in enumerate(loops)}
    sign = lambda x: 1 if x > 0 else -1
    v = [[0] * m for _ in range(m)]
    last: dict[int, int] = {}  # generator -> its latest position so far
    for p, letter in enumerate(word):
        g = abs(letter)
        i = last.get(g)
        if i is not None:  # loop a = (i, p) closes here
            a = starting_at[i]
            v[a][a] = (sign(word[i]) + sign(letter)) // 2
            b = starting_at.get(p)
            if b is not None:  # the next loop of this column shares band p
                if letter > 0:
                    v[b][a] = -1
                else:
                    v[a][b] = 1
            for h in (g - 1, g + 1):
                j = last.get(h, -1)
                b = starting_at.get(j)
                if j > i and b is not None:  # interleaved intervals
                    if g > h:
                        v[b][a] = -1
                    else:
                        v[a][b] = 1
        last[g] = p
    return validate_seifert(IntMatrix(m, m, tuple(map(tuple, v))))


class CatalogEntry(_Value):
    """A named knot with its Seifert matrix and/or an even bounding form."""

    name: str
    summary: str
    seifert: SeifertMatrix | None
    even_form: IntMatrix | None

    def __init__(self, name: str, summary: str, seifert: SeifertMatrix | None = None,
                 even_form: IntMatrix | None = None) -> None:
        self._set(name=name, summary=summary, seifert=seifert, even_form=even_form)


# Even unimodular rank-8 form bounding the Poincare sphere (punctured,
# it is a Seifert hypersurface for the 5-twist-spun trefoil): chain of
# eight norm-2 vectors with the eighth node attached to the fifth.
E8 = IntMatrix.from_rows([
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
])

_CATALOG = {
    "trefoil": CatalogEntry(
        name="trefoil",
        summary="trefoil knot; 2-twist spin has mu = 2 and cover homology Z3",
        seifert=validate_seifert(IntMatrix.from_rows([[1, 1], [0, 1]])),
    ),
    "figure8": CatalogEntry(
        name="figure8",
        summary="figure-eight knot; 2-twist spin has mu = 0 and cover homology Z5",
        seifert=validate_seifert(IntMatrix.from_rows([[1, 1], [0, -1]])),
    ),
    "unknot": CatalogEntry(
        name="unknot",
        summary="trivial knot; empty Seifert matrix, trivial 2-twist spin",
        seifert=validate_seifert(IntMatrix.empty()),
    ),
    "poincare": CatalogEntry(
        name="poincare",
        summary=("5-twist-spun trefoil via the punctured Poincare sphere, "
                 "bounded by the E8 form; mu = 8"),
        even_form=E8,
    ),
}


def catalog(name: str) -> CatalogEntry:
    """Look up a named knot; unknown names list what is available."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog entry {name!r}; available: "
            + ", ".join(sorted(_CATALOG))) from None


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))
