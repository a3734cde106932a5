import random
import subprocess
import sys

import pytest

from ribbonmu import (
    Conclusion,
    E8,
    FiniteAbelianGroup,
    IntMatrix,
    Mu,
    TwoKnotInvariants,
    Verdict,
    is_double,
    obstruct_ribbon_equivalent,
    obstruct_ribbon_trivial,
    validate_seifert,
)

from support import block_diag, package_env, rand_seifert

# The verdicts take invariant records; these wrap validated Seifert matrices.
knot = TwoKnotInvariants.from_seifert
FIGURE8_MATRIX = IntMatrix.from_rows([[1, 1], [0, -1]])
TREFOIL = knot(validate_seifert(IntMatrix.from_rows([[1, 1], [0, 1]])))
FIGURE8 = knot(validate_seifert(FIGURE8_MATRIX))
UNKNOT = knot(validate_seifert(IntMatrix.empty()))


class TestAgainstTrivial:
    def test_trefoil_spin_obstructed_by_mu(self):
        verdict = obstruct_ribbon_trivial(TREFOIL)
        assert verdict.conclusion is Conclusion.OBSTRUCTED_BY_MU
        assert {m.value for m in verdict.mu_pair} == {2, 0}
        assert verdict.conclusion is not Conclusion.NO_OBSTRUCTION_FOUND

    def test_figure8_spin_obstructed_by_torsion(self):
        verdict = obstruct_ribbon_trivial(FIGURE8)
        assert verdict.conclusion is Conclusion.OBSTRUCTED_BY_TORSION
        assert verdict.torsion_witness == FiniteAbelianGroup((5,))
        assert is_double(verdict.torsion_witness) is None

    def test_unknot_unobstructed(self):
        verdict = obstruct_ribbon_trivial(UNKNOT)
        assert verdict.conclusion is Conclusion.NO_OBSTRUCTION_FOUND

    def test_explanations_are_one_liners(self):
        for knot in (TREFOIL, FIGURE8, UNKNOT):
            text = obstruct_ribbon_trivial(knot).explanation()
            assert text and "\n" not in text


class TestPairwise:
    def test_five_twist_spun_trefoil_vs_unknot(self):
        poincare = TwoKnotInvariants.from_even_form(E8)
        verdict = obstruct_ribbon_equivalent(poincare, UNKNOT)
        assert verdict.conclusion is Conclusion.OBSTRUCTED_BY_MU
        assert [m.value for m in verdict.mu_pair] == [8, 0]

    def test_reflexive_inputs_unobstructed(self):
        verdict = obstruct_ribbon_equivalent(TREFOIL, TREFOIL)
        assert verdict.conclusion is Conclusion.NO_OBSTRUCTION_FOUND

    def test_trefoil_vs_figure8(self):
        verdict = obstruct_ribbon_equivalent(TREFOIL, FIGURE8)
        assert verdict.conclusion is Conclusion.OBSTRUCTED_BY_MU
        assert {m.value for m in verdict.mu_pair} == {2, 0}
        # had the mu values agreed, Z3 + Z5 = Z15 would still obstruct
        combined = FiniteAbelianGroup((15,))
        assert is_double(combined) is None

    def test_connected_sum_of_figure8_with_itself_unobstructed(self):
        doubled = validate_seifert(block_diag(FIGURE8_MATRIX, FIGURE8_MATRIX))
        verdict = obstruct_ribbon_trivial(knot(doubled))
        assert verdict.conclusion is Conclusion.NO_OBSTRUCTION_FOUND


class TestEngineProperties:
    def test_symmetry_of_conclusions(self):
        rng = random.Random(41)
        for _ in range(60):
            a, b = knot(rand_seifert(rng)), knot(rand_seifert(rng))
            assert obstruct_ribbon_equivalent(a, b).conclusion is \
                obstruct_ribbon_equivalent(b, a).conclusion

    def test_trivial_comparison_matches_empty_matrix_comparison(self):
        rng = random.Random(42)
        for _ in range(60):
            s = knot(rand_seifert(rng))
            assert obstruct_ribbon_trivial(s).conclusion is \
                obstruct_ribbon_equivalent(s, UNKNOT).conclusion

    def test_torsion_verdict_only_after_mu_agreement(self):
        rng = random.Random(43)
        seen_torsion = 0
        for _ in range(120):
            a, b = knot(rand_seifert(rng)), knot(rand_seifert(rng))
            verdict = obstruct_ribbon_equivalent(a, b)
            if verdict.conclusion is Conclusion.OBSTRUCTED_BY_TORSION:
                seen_torsion += 1
                assert verdict.mu_pair is None
                assert a.mu.value == b.mu.value
        assert seen_torsion > 0


class TestVerdictWitnesses:
    """An obstructed verdict cannot be built without the witness it names."""

    @pytest.mark.parametrize("mu_pair", [None, (Mu(2), Mu(2)), (Mu(2), Mu(18))],
                             ids=["none", "equal", "equal-mod-16"])
    def test_mu_verdict_needs_different_mu(self, mu_pair):
        with pytest.raises(ValueError, match="two different mu values"):
            Verdict(Conclusion.OBSTRUCTED_BY_MU, mu_pair=mu_pair)

    @pytest.mark.parametrize("witness", [
        None, FiniteAbelianGroup(()), FiniteAbelianGroup((3, 3)),
        FiniteAbelianGroup((2, 2, 4, 4))], ids=["none", "trivial", "Z3+Z3", "Z2+Z2+Z4+Z4"])
    def test_torsion_verdict_needs_a_non_double(self, witness):
        with pytest.raises(ValueError, match="not a double"):
            Verdict(Conclusion.OBSTRUCTED_BY_TORSION, torsion_witness=witness)

    def test_consistent_verdicts_build(self):
        for conclusion, args in ((Conclusion.OBSTRUCTED_BY_MU, {"mu_pair": (Mu(2), Mu(0))}),
                                 (Conclusion.OBSTRUCTED_BY_TORSION,
                                  {"torsion_witness": FiniteAbelianGroup((3, 9))}),
                                 (Conclusion.NO_OBSTRUCTION_FOUND, {})):
            assert Verdict(conclusion, **args).conclusion is conclusion

    def test_rule_is_read_off_the_conclusion(self):
        verdicts = (Verdict(Conclusion.OBSTRUCTED_BY_MU, (Mu(2), Mu(0))),
                    Verdict(Conclusion.OBSTRUCTED_BY_TORSION,
                            torsion_witness=FiniteAbelianGroup((3,))),
                    Verdict(Conclusion.NO_OBSTRUCTION_FOUND))
        assert [v.rule for v in verdicts] == [
            "ribbon-move equivalent 2-links have equal mu-invariants",
            "combined Seifert-hypersurface torsion of ribbon-move equivalent 2-links "
            "is a double G + G",
            "necessary conditions all hold"]
        with pytest.raises(TypeError):
            Verdict(Conclusion.NO_OBSTRUCTION_FOUND, rule="anything")

    def test_checks_survive_python_dash_o(self):
        # -O strips assert statements; the witness checks must still run
        script = (
            "from ribbonmu import Conclusion as C, FiniteAbelianGroup, Mu, Verdict\n"
            "for conclusion, kwargs in (\n"
            "        (C.OBSTRUCTED_BY_MU, {'mu_pair': (Mu(1), Mu(1))}),\n"
            "        (C.OBSTRUCTED_BY_TORSION, {'torsion_witness': FiniteAbelianGroup((5, 5))})):\n"
            "    try:\n"
            "        Verdict(conclusion, **kwargs)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'{conclusion} built without a valid witness')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=package_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
