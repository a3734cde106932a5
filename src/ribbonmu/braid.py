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

A generator that occurs once closes no loop and starts none, so it adds
no row and no entry to S.  Markov destabilization removes exactly such a
generator (the outermost one, relabelling the others when it is sigma_1),
so the word is read as given: a stabilized word has the same matrix.
"""

from __future__ import annotations

from operator import index

from .exactla import DimensionError, InputError, IntMatrix, _Value
from .spinmu import SeifertMatrix, TwoKnotInvariants


class NotAKnotError(InputError):
    """The braid closure has more than one component."""


class CatalogError(InputError, LookupError):
    """Unknown catalog entry."""


class BraidWord(_Value):
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters: tuple[int, ...]) -> None:
        strands, letters = index(strands), tuple(map(index, letters))
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


def seifert_matrix_from_braid(braid: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the braid closure; the closure must be a knot.

    A position starts a loop exactly when its generator occurs again
    later, and loops are numbered by start position.  One sweep over the
    word: when loop a = (i, p) closes at position p, the loop of the same
    column starting at p shares its band, and in each adjacent column h
    only the loop starting at the last occurrence of h before p can
    interleave with a (it starts inside (i, p) and ends after p).  So the
    build takes time linear in the word length.

    S is not re-validated: S - S^t is the intersection form of a connected
    surface with one boundary circle, so det(S - S^t) = +-1 by construction
    (Lickorish, An Introduction to Knot Theory, 1997, ch. 6).
    """
    components = braid.closure_components()
    if components != 1:
        raise NotAKnotError(f"closure has {components} components, not a knot")
    word = braid.letters
    final = {abs(letter): p for p, letter in enumerate(word)}  # generator -> last position
    starts = [p for p, letter in enumerate(word) if p != final[abs(letter)]]
    starting_at = {i: a for a, i in enumerate(starts)}  # loop start position -> row
    m = len(starts)
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
    return SeifertMatrix(IntMatrix(m, m, tuple(map(tuple, v))))


class KnotRecord(_Value):
    """A resolved knot input: one source, plus an optional even form.

    Every record carries a Seifert matrix or an even form, or both.
    When an even bounding form is present it is the route to mu and
    cover homology (it is the hypersurface data for the 2-knot itself,
    e.g. for twist spins other than the 2-twist spin); a Seifert matrix
    alone means the 2-twist-spin route.  A record given a braid word
    keeps it and builds its Seifert matrix from it, once, here.
    """

    name: str
    source: str  # catalog | braid | seifert-matrix | even-form
    seifert: SeifertMatrix | None
    even_form: IntMatrix | None
    braid: BraidWord | None

    def __init__(self, name: str, source: str, seifert: SeifertMatrix | None = None,
                 even_form: IntMatrix | None = None, braid: BraidWord | None = None) -> None:
        seifert = seifert if braid is None else seifert_matrix_from_braid(braid)
        self._set(name=name, source=source, seifert=seifert, even_form=even_form, braid=braid)

    def invariants(self) -> TwoKnotInvariants:
        if self.even_form is not None:
            return TwoKnotInvariants.from_even_form(self.even_form)
        return TwoKnotInvariants.from_seifert(self.seifert)


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
    "trefoil": KnotRecord(
        "trefoil", "catalog", SeifertMatrix(IntMatrix.from_rows([[1, 1], [0, 1]]))),
    "figure8": KnotRecord(
        "figure8", "catalog", SeifertMatrix(IntMatrix.from_rows([[1, 1], [0, -1]]))),
    "unknot": KnotRecord("unknot", "catalog", SeifertMatrix(IntMatrix.empty())),
    "poincare": KnotRecord("poincare", "catalog", even_form=E8),
}


def catalog(name: str) -> KnotRecord:
    """Look up a named knot; unknown names list what is available."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog entry {name!r}; available: "
            + ", ".join(sorted(_CATALOG))) from None
