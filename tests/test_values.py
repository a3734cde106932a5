"""Value semantics of the package's immutable record types.

Each type is built positionally and by keyword, compared, hashed,
shown, pickled and deep-copied; assigning or deleting a field fails.
The expected reprs spell out the field order, so these tests pin the
behaviour of the types whatever machinery implements them.
"""

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from ribbonmu import (
    BraidWord,
    Conclusion,
    FiniteAbelianGroup,
    InducedMap,
    IntMatrix,
    Mu,
    SeifertMatrix,
    SnfResult,
    TwoKnotInvariants,
    Verdict,
    intersection_form,
    spinmu,
)
from ribbonmu.braid import E8, KnotRecord

from support import block_diag, cokernel_oracle, rand_seifert

S = IntMatrix(2, 2, ((1, 1), (0, 1)))
S_REPR = "IntMatrix(rows=2, cols=2, entries=((1, 1), (0, 1)))"
ONE = IntMatrix(1, 1, ((1,),))
ONE_REPR = "IntMatrix(rows=1, cols=1, entries=((1,),))"
Z3 = FiniteAbelianGroup((3,))

# (type, fields in declaration order, an unequal value, expected repr)
CASES = [
    (IntMatrix, {"rows": 2, "cols": 2, "entries": ((1, 1), (0, 1))},
     IntMatrix(2, 2, ((1, 1), (0, 2))), S_REPR),
    (SnfResult, {"U": ONE, "D": IntMatrix(1, 1, ((3,),)), "V": ONE},
     SnfResult(ONE, ONE, ONE),
     f"SnfResult(U={ONE_REPR}, D=IntMatrix(rows=1, cols=1, entries=((3,),)), "
     f"V={ONE_REPR})"),
    (FiniteAbelianGroup, {"invariant_factors": (2, 4)},
     FiniteAbelianGroup((2, 8)), "FiniteAbelianGroup(invariant_factors=(2, 4))"),
    (InducedMap, {"matrix": IntMatrix(2, 1, ((2,), (0,)))},
     InducedMap(IntMatrix(2, 1, ((3,), (0,)))),
     "InducedMap(matrix=IntMatrix(rows=2, cols=1, entries=((2,), (0,))))"),
    (BraidWord, {"strands": 3, "letters": (1, -2, 1)},
     BraidWord(3, (1, 2, 1)), "BraidWord(strands=3, letters=(1, -2, 1))"),
    (SeifertMatrix, {"matrix": S}, SeifertMatrix(ONE), f"SeifertMatrix(matrix={S_REPR})"),
    (Mu, {"value": 2}, Mu(3), "Mu(value=2)"),
    (TwoKnotInvariants, {"signature": 2, "form_determinant": 3,
                         "form": IntMatrix(2, 2, ((2, 1), (1, 2))), "form_minor": 2},
     TwoKnotInvariants(-2, 3, IntMatrix(2, 2, ((-2, -1), (-1, -2))), -2),
     "TwoKnotInvariants(signature=2, form_determinant=3, "
     "form=IntMatrix(rows=2, cols=2, entries=((2, 1), (1, 2))), form_minor=2)"),
    (Verdict, {"conclusion": Conclusion.OBSTRUCTED_BY_MU,
               "mu_pair": (Mu(2), Mu(0)), "torsion_witness": None},
     Verdict(Conclusion.OBSTRUCTED_BY_MU, (Mu(0), Mu(2))),
     "Verdict(conclusion=<Conclusion.OBSTRUCTED_BY_MU: 'obstructed-by-mu'>, "
     "mu_pair=(Mu(value=2), Mu(value=0)), torsion_witness=None)"),
    # a braid record's seifert is the matrix its __init__ builds from the word
    (KnotRecord, {"name": "k", "source": "braid",
                  "seifert": SeifertMatrix(IntMatrix(2, 2, ((1, 0), (-1, 1)))),
                  "even_form": IntMatrix(2, 2, ((2, 1), (1, 2))),
                  "braid": BraidWord(2, (1, 1, 1))},
     KnotRecord("k", "braid", SeifertMatrix(S)),
     "KnotRecord(name='k', source='braid', seifert=SeifertMatrix(matrix=IntMatrix("
     "rows=2, cols=2, entries=((1, 0), (-1, 1)))), "
     "even_form=IntMatrix(rows=2, cols=2, entries=((2, 1), (1, 2))), "
     "braid=BraidWord(strands=2, letters=(1, 1, 1)))"),
]
IDS = [case[0].__name__ for case in CASES]

value_cases = pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)


@value_cases
def test_positional_and_keyword_construction(cls, fields, other, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert type(by_position) is cls and type(by_keyword) is cls
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


@value_cases
def test_equality_and_hash(cls, fields, other, text):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    assert a != other
    assert a != tuple(fields.values())
    assert (a == object()) is False


@value_cases
def test_fields_are_read_only(cls, fields, other, text):
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(**fields)


@value_cases
def test_repr(cls, fields, other, text):
    assert repr(cls(**fields)) == text


@value_cases
def test_pickle_and_deepcopy_round_trip(cls, fields, other, text):
    value = cls(**fields)
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies.append(copy.deepcopy(value))
    copies.append(copy.copy(value))
    for twin in copies:
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(fields)), None)


def test_equal_fields_of_another_type_are_unequal():
    # both types have one field, ``matrix``
    assert SeifertMatrix(S) != InducedMap(S)
    assert InducedMap(S) != SeifertMatrix(S)


def test_defaults():
    verdict = Verdict(Conclusion.NO_OBSTRUCTION_FOUND)
    assert verdict.mu_pair is None and verdict.torsion_witness is None
    record = KnotRecord(name="k", source="catalog")
    assert record.seifert is None and record.even_form is None and record.braid is None
    assert KnotRecord("k", "seifert-matrix", SeifertMatrix(S)) == KnotRecord(
        "k", "seifert-matrix", seifert=SeifertMatrix(S), even_form=None)


def test_constructors_normalize():
    assert Mu(18) == Mu(2) and Mu(-14).value == 2
    group = FiniteAbelianGroup([2, 4])
    assert group.invariant_factors == (2, 4)
    assert type(group.invariant_factors) is tuple
    word = BraidWord(3, [1, -2])
    assert word.letters == (1, -2) and type(word.letters) is tuple


def test_derived_attributes_are_not_fields():
    inv = TwoKnotInvariants(2, 3, IntMatrix(2, 2, ((2, 1), (1, 2))))
    assert inv.mu == Mu(2)
    assert SeifertMatrix(S).size == 2
    assert "mu=" not in repr(inv) and "size=" not in repr(SeifertMatrix(S))


def test_cover_torsion_is_derived_not_stored(monkeypatch):
    forms = [block_diag(E8, IntMatrix.from_rows([[2, 1], [1, 2]]),
                        IntMatrix.from_rows([[2, 1], [1, -2]]))]  # cover Z15
    rng = random.Random(71)
    forms += [intersection_form(rand_seifert(rng)) for _ in range(20)]
    for form in forms:
        inv = TwoKnotInvariants.from_even_form(form)
        assert inv.cover_torsion == FiniteAbelianGroup(cokernel_oracle(form)[1])
    assert TwoKnotInvariants.from_even_form(forms[0]).cover_torsion == \
        FiniteAbelianGroup((15,))

    def unread(*args):
        raise AssertionError("cover torsion was computed")

    monkeypatch.setattr(spinmu, "from_presentation", unread)
    inv = TwoKnotInvariants.from_even_form(forms[0])
    twin = TwoKnotInvariants(inv.signature, inv.form_determinant, inv.form, inv.form_minor)
    assert inv == twin and hash(inv) == hash(twin)
    assert "cover_torsion" not in repr(inv) and "cover_torsion" not in vars(inv)
    with pytest.raises(AttributeError):
        inv.cover_torsion = Z3


# Each constructor that takes integers stores them through operator.index:
# int and bool go in as exact ints, and any other number or a decimal
# string is refused rather than truncated or parsed.
INTEGER_SLOTS = {
    "IntMatrix.from_rows": lambda x: IntMatrix.from_rows([[x]]).entries[0][0],
    "FiniteAbelianGroup": lambda x: FiniteAbelianGroup((x,)).invariant_factors[0],
    "BraidWord.letters": lambda x: BraidWord(4, (x,)).letters[0],
    "BraidWord.strands": lambda x: BraidWord(x, ()).strands,
    "Mu": lambda x: Mu(x).value,
}


@pytest.mark.parametrize("build", INTEGER_SLOTS.values(), ids=INTEGER_SLOTS)
@pytest.mark.parametrize("value", [2.7, 3.0, "3", Fraction(3), Decimal(3)], ids=repr)
def test_integer_slots_refuse_other_numbers(build, value):
    with pytest.raises(TypeError):
        build(value)


@pytest.mark.parametrize("build", INTEGER_SLOTS.values(), ids=INTEGER_SLOTS)
def test_integer_slots_store_exact_ints(build):
    assert build(3) == 3 and type(build(3)) is int
    if build is not INTEGER_SLOTS["FiniteAbelianGroup"]:  # an invariant factor is >= 2
        assert build(True) == 1 and type(build(True)) is int
