import random
import re
import sys
import time
from fractions import Fraction

import pytest

from mtspec import cli, tftlab
from mtspec.classify import restriction_kernel
from mtspec.errors import MtspecError
from mtspec.exactnum import ExactComplex
from mtspec.tftlab import (RULED_MANIFOLDS, ManifoldClass, SurfaceBordism, connected_sum,
                           euler_theory_value, formal_sum, frobenius_closed_value,
                           frobenius_surface_value, invertible_4d_value,
                           is_vf_nullbordant, parse_formal_sum, parse_manifold,
                           standard_manifolds, vf_invariant)

CATALOG = standard_manifolds()
FOUR_MANIFOLDS = sorted(n for n, m in RULED_MANIFOLDS.items() if m.dim == 4)


def sigma(g):
    return CATALOG.get("Sigma_%d" % g)


def rational(value):
    return ExactComplex.of(Fraction(value))


class TestCatalog:
    def test_surfaces(self):
        assert sigma(3).euler == -4
        assert sigma(0).euler == 2

    def test_complex_projective_plane(self):
        cp2 = CATALOG.get("CP2")
        assert (cp2.euler, cp2.signature, cp2.p1_number) == (3, 1, 3)
        assert cp2.p1_number == 3 * cp2.signature

    def test_k3(self):
        k3 = CATALOG.get("K3")
        assert (k3.euler, k3.signature, k3.p1_number) == (24, -16, -48)

    def test_product_family(self):
        m = CATALOG.get("S2xSigma_2")
        assert (m.euler, m.signature, m.p1_number) == (-4, 0, 0)

    def test_circle_has_semicharacteristic(self):
        assert CATALOG.get("S1").kr == 1

    def test_unknown_name(self):
        with pytest.raises(MtspecError, match="no catalog entry named 'RP7'"):
            CATALOG.get("RP7")

    # (dim, euler, signature, kr) of each name as the version-4 data file
    # recorded it, row by row or through its family's euler0 + eulerg * g
    VERSION_4 = dict(
        [("S1", (1, 0, 0, 1)), ("S2", (2, 2, 0, None)), ("S3", (3, 0, 0, None)),
         ("T3", (3, 0, 0, None)), ("S4", (4, 2, 0, None)), ("T4", (4, 0, 0, None)),
         ("CP2", (4, 3, 1, None)), ("K3", (4, 24, -16, None))]
        + [("Sigma_%d" % g, (2, 2 - 2 * g, 0, None)) for g in range(6)]
        + [("S2xSigma_%d" % g, (4, 4 - 4 * g, 0, None)) for g in range(4)])

    @pytest.mark.parametrize("name", sorted(VERSION_4))
    def test_every_name_keeps_its_version_4_invariants(self, name):
        m = CATALOG.get(name)
        assert (m.name, (m.dim, m.euler, m.signature, m.kr)) == (name, self.VERSION_4[name])

    @pytest.mark.parametrize("name", [
        "Sigma_\u0663",      # ARABIC-INDIC DIGIT THREE, a decimal digit
        "S2xSigma_\u0663",
        "Sigma_\uff13",      # FULLWIDTH DIGIT THREE
        "Sigma_\u00b3",      # SUPERSCRIPT THREE
        "Sigma_", "Sigma_-1", "Sigma_+1", "Sigma_ 1", "Sigma_g", "sigma_1",
    ])
    def test_a_family_parameter_is_spelled_in_ascii_digits(self, capsys, name):
        with pytest.raises(MtspecError, match="no catalog entry named"):
            CATALOG.get(name)
        assert cli.main(["eval", "euler", "--lam", "2", "--manifold", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: no catalog entry")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no limit on integer strings")
    def test_a_parameter_past_the_digit_limit_is_refused(self):
        # under Python's default limit of 4300 digits, as the library runs;
        # the command line lifts the limit for its call
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(MtspecError, match="digits"):
                CATALOG.get("Sigma_" + "1" * 5000)
        finally:
            sys.set_int_max_str_digits(previous)

    def test_every_four_manifold_satisfies_signature_theorem(self):
        for name in FOUR_MANIFOLDS:
            m = CATALOG.get(name)
            assert m.p1_number == 3 * m.signature
            assert (m.euler + m.signature) % 2 == 0


class TestConstructors:
    def test_forbidden_descriptors(self):
        with pytest.raises(MtspecError, match="odd-dimensional manifolds have euler 0"):
            ManifoldClass("bad", 3, euler=1)
        with pytest.raises(MtspecError, match=r"euler \+ signature must be even"):
            ManifoldClass("bad", 4, euler=3, signature=0)  # parity violated
        with pytest.raises(MtspecError, match="signature is only meaningful in dimensions 0 mod 4"):
            ManifoldClass("bad", 2, euler=2, signature=1)
        with pytest.raises(MtspecError, match="kr applies in dimensions 1 mod 4 only"):
            ManifoldClass("bad", 2, euler=2, kr=1)
        # p1 = 3 * signature is computed: it cannot be given off the theorem
        with pytest.raises(TypeError, match="p1_number"):
            ManifoldClass("bad", 4, euler=2, signature=0, p1_number=5)
        with pytest.raises(TypeError, match="p1_number"):
            ManifoldClass("bad", 4, euler=3, signature=1, p1_number=0)

    def test_the_invariants_a_manifold_row_was_checked_against(self):
        # a data file recorded manifolds until version 6; the class checks them
        with pytest.raises(MtspecError, match="dimension must be 1..4"):
            ManifoldClass("bad", 5, euler=0)
        with pytest.raises(MtspecError, match="odd-dimensional manifolds have euler 0"):
            ManifoldClass("X", 3, euler=2)
        with pytest.raises(MtspecError, match=r"euler \+ signature must be even"):
            ManifoldClass("X4", 4, euler=4, signature=1)
        with pytest.raises(MtspecError, match="kr is a mod-2 value"):
            ManifoldClass("bad", 1, euler=0, kr=2)
        x4 = ManifoldClass("X4", 4, euler=4, signature=2)
        assert (x4.euler, x4.signature, x4.p1_number) == (4, 2, 6)

    def test_sums_keep_the_signature_theorem(self):
        for a in FOUR_MANIFOLDS:
            for b in FOUR_MANIFOLDS:
                for m in (connected_sum(CATALOG.get(a), CATALOG.get(b)),
                          formal_sum([(CATALOG.get(a), 1), (CATALOG.get(b), 1)])):
                    assert m.p1_number == 3 * m.signature

    def test_connected_sum(self):
        cp2 = CATALOG.get("CP2")
        both = connected_sum(cp2, cp2)
        assert (both.euler, both.signature) == (4, 2)
        assert (both.euler + both.signature) % 2 == 0
        genus_sum = connected_sum(sigma(1), sigma(2))
        assert genus_sum.euler == sigma(3).euler
        # a chain is summed in one pass, as '#' reads left to right
        chain = connected_sum(sigma(1), sigma(2), sigma(1))
        assert (chain.name, chain.euler, chain.signature) == (
            "Sigma_1#Sigma_2#Sigma_1", sigma(4).euler, 0)
        assert connected_sum(cp2) is cp2
        with pytest.raises(MtspecError, match="connected sum needs equal dimensions"):
            connected_sum(sigma(1), sigma(2), cp2)

    def test_disjoint_union(self):
        s4 = CATALOG.get("S4")
        assert formal_sum([(s4, 1), (s4, 1)]).euler == 4
        pair = formal_sum([(CATALOG.get("S1"), 1), (CATALOG.get("S1"), 1)])
        assert pair.kr == 0

    def test_dimension_mismatch(self):
        # a term counts for the dimension even when its multiplicity is 0
        with pytest.raises(MtspecError, match="formal sums must be homogeneous in dimension"):
            formal_sum([(CATALOG.get("S2"), 1), (CATALOG.get("S4"), 0)])
        with pytest.raises(MtspecError, match="connected sum is provided for dimensions 2 and 4"):
            connected_sum(CATALOG.get("S1"), CATALOG.get("S1"))

    def test_constructed_four_manifolds_keep_parity(self):
        rng = random.Random(8)
        for _ in range(30):
            a = CATALOG.get(rng.choice(FOUR_MANIFOLDS))
            b = CATALOG.get(rng.choice(FOUR_MANIFOLDS))
            built = (connected_sum(a, b) if rng.random() < 0.5
                     else formal_sum([(a, 1), (b, 1)]))
            assert (built.euler + built.signature) % 2 == 0


def invariants(m):
    return m.dim, m.euler, m.signature, m.p1_number, m.kr


def check_examples(*strategies, examples=200):
    """The decorated check, run on that many examples of the strategies."""
    hypothesis = pytest.importorskip("hypothesis")

    def run(check):
        hypothesis.settings(max_examples=examples, deadline=None, derandomize=True,
                            database=None)(hypothesis.given(*strategies)(check))()
    return run


class TestRules:
    """The sphere, product and family rules behind the catalog, checked as
    properties of the classes the catalog serves."""

    def test_genus_adds_under_connected_sum(self):
        st = pytest.importorskip("hypothesis.strategies")

        @check_examples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
        def check(g, h):
            assert invariants(connected_sum(sigma(g), sigma(h))) == invariants(sigma(g + h))

    def test_the_sphere_is_the_unit_of_connected_sum(self):
        st = pytest.importorskip("hypothesis.strategies")
        names = st.one_of(
            st.sampled_from(["S2", "S4", "T4", "CP2", "K3"]),
            st.integers(0, 10 ** 6).map("Sigma_{}".format),
            st.integers(0, 10 ** 6).map("S2xSigma_{}".format))

        @check_examples(names)
        def check(name):
            m = CATALOG.get(name)
            sphere = CATALOG.get("S%d" % m.dim)
            assert invariants(connected_sum(m, sphere)) == invariants(m)
            assert invariants(connected_sum(sphere, m)) == invariants(m)

    def test_euler_multiplies_on_s2_times_a_surface(self):
        st = pytest.importorskip("hypothesis.strategies")

        @check_examples(st.integers(0, 10 ** 6))
        def check(g):
            product = CATALOG.get("S2xSigma_%d" % g)
            assert product.euler == CATALOG.get("S2").euler * sigma(g).euler
            assert (product.dim, product.signature) == (4, 0)


class TestVfInvariants:
    def test_surface_relations(self):
        for g in range(11):
            s = formal_sum([(sigma(g), 1), (CATALOG.get("S2"), g - 1)])
            assert vf_invariant(2, s) == (0,)
            assert is_vf_nullbordant(2, s)

    def test_circle_doubling(self):
        s1 = CATALOG.get("S1")
        assert vf_invariant(1, formal_sum([(s1, 2)])) == (0,)
        assert not is_vf_nullbordant(1, s1)

    def test_sphere_generates_dimension_two(self):
        for k in range(-3, 4):
            s = formal_sum([(CATALOG.get("S2"), k)])
            assert is_vf_nullbordant(2, s) == (k == 0)

    def test_dimension_three_always_bounds(self):
        for name in ("S3", "T3"):
            s = CATALOG.get(name)
            assert vf_invariant(3, s) == ()
            assert is_vf_nullbordant(3, s)

    def test_projective_plane_invariant(self):
        assert vf_invariant(4, CATALOG.get("CP2")) == (2, 1)

    def test_product_relations(self):
        for g in range(11):
            s = formal_sum([(CATALOG.get("S2xSigma_%d" % g), 1),
                            (CATALOG.get("S4"), -(2 - 2 * g))])
            assert vf_invariant(4, s) == (0, 0)

    def test_additivity(self):
        rng = random.Random(77)
        for _ in range(20):
            a = [(CATALOG.get(rng.choice(FOUR_MANIFOLDS)), rng.randint(-3, 3))]
            b = [(CATALOG.get(rng.choice(FOUR_MANIFOLDS)), rng.randint(-3, 3))]
            va, vb = vf_invariant(4, formal_sum(a)), vf_invariant(4, formal_sum(b))
            vsum = vf_invariant(4, formal_sum(a + b))
            assert vsum == tuple(x + y for x, y in zip(va, vb))

    def test_a_sum_is_read_term_by_term(self):
        # the oracle is the invariant summed over the terms, each read alone
        def per_term(d, pairs):
            if d == 1:
                return (sum(k * m.kr for m, k in pairs) % 2,)
            if d == 2:
                return (sum(k * (m.euler // 2) for m, k in pairs),)
            if d == 3:
                return ()
            return (sum(k * ((m.euler + m.signature) // 2) for m, k in pairs),
                    sum(k * m.signature for m, k in pairs))

        names = {1: ["S1"], 2: ["S2", "Sigma_1", "Sigma_3", "Sigma_7"],
                 3: ["S3", "T3"], 4: FOUR_MANIFOLDS + ["S2xSigma_2"]}
        rng = random.Random(25)
        for _ in range(200):
            d = rng.randint(1, 4)
            pairs = [(CATALOG.get(rng.choice(names[d])), rng.randint(-3, 3))
                     for _ in range(rng.randint(1, 4))]
            assert vf_invariant(d, formal_sum(pairs)) == per_term(d, pairs)

    def test_missing_kr(self):
        bare = ManifoldClass("loop", 1, euler=0)
        with pytest.raises(MtspecError, match="carries no semicharacteristic"):
            vf_invariant(1, bare)

    def test_mixed_dimension_rejected(self):
        with pytest.raises(MtspecError, match="formal sums must be homogeneous in dimension"):
            formal_sum([(CATALOG.get("S2"), 1), (CATALOG.get("S4"), 1)])


class TestFrobenius:
    def test_closed_values(self):
        mu = rational(Fraction(7, 3))
        assert frobenius_closed_value(mu, 1) == ExactComplex.one()
        assert frobenius_closed_value(mu, 0) == mu
        assert frobenius_closed_value(4, 2) == ExactComplex.of(Fraction(1, 4))

    def test_surface_values(self):
        mu = rational(Fraction(7, 3))
        for g in range(5):
            assert frobenius_surface_value(mu, sigma(g)) == \
                frobenius_closed_value(mu, g)
        # multiplicative under disjoint union: mu^(chi/2)
        two_spheres = formal_sum([(CATALOG.get("S2"), 1), (CATALOG.get("S2"), 1)])
        assert frobenius_surface_value(mu, two_spheres) == mu * mu
        with pytest.raises(MtspecError, match="the Frobenius theory evaluates surfaces"):
            frobenius_surface_value(mu, CATALOG.get("S4"))


class TestEulerTheory:
    def test_relative_zero(self):
        assert euler_theory_value(rational(9), SurfaceBordism(3, 3)) == ExactComplex.one()

    def test_closed_surface(self):
        lam = rational(Fraction(2, 5))
        for g in range(5):
            value = euler_theory_value(lam, SurfaceBordism(2 - 2 * g, 0))
            assert value == lam ** (2 - 2 * g)

    def test_negative_relative_euler(self):
        lam = rational(3)
        assert euler_theory_value(lam, SurfaceBordism(-1, 1)) == ExactComplex.of(Fraction(1, 9))

    def test_matches_frobenius_at_square(self):
        rng = random.Random(55)
        for _ in range(20):
            lam = ExactComplex.of(Fraction(rng.choice([n for n in range(-9, 10) if n]),
                                           rng.randint(1, 9)))
            for g in range(11):
                closed = euler_theory_value(lam, SurfaceBordism(2 - 2 * g, 0))
                assert closed == frobenius_closed_value(lam * lam, g)


class TestFourDimensionalTheory:
    def test_catalog_values(self):
        l1, l2 = rational(2), rational(3)
        assert invertible_4d_value(l1, l2, CATALOG.get("S4")) == l1 ** 2
        assert invertible_4d_value(l1, l2, CATALOG.get("CP2")) == l1 ** 3 * l2 ** 3
        assert invertible_4d_value(l1, l2, CATALOG.get("K3")) == l1 ** 24 * l2 ** -48

    def test_wrong_dimension(self):
        with pytest.raises(MtspecError, match="this theory evaluates 4-manifolds"):
            invertible_4d_value(rational(2), rational(2), CATALOG.get("S2"))

    def test_multiplicative_under_disjoint_union(self):
        rng = random.Random(19)
        l1, l2 = rational(Fraction(3, 2)), rational(Fraction(-5, 4))
        for _ in range(15):
            a, b = CATALOG.get(rng.choice(FOUR_MANIFOLDS)), CATALOG.get(rng.choice(FOUR_MANIFOLDS))
            assert invertible_4d_value(l1, l2, formal_sum([(a, 1), (b, 1)])) == \
                invertible_4d_value(l1, l2, a) * invertible_4d_value(l1, l2, b)

    def test_kernel_theories_are_invisible_on_catalog(self):
        # each kernel element (zeta^3, zeta) scales the value by
        # zeta^(3*chi + p1); with p1 = 3*sigma and chi + sigma even the
        # exponent 3*(chi + sigma) is divisible by 6 on every entry
        kernel = restriction_kernel(4, 4, 3)
        l1, l2 = rational(Fraction(7, 2)), rational(Fraction(2, 3))
        for name in FOUR_MANIFOLDS:
            m = CATALOG.get(name)
            exponent = 3 * m.euler + m.p1_number
            assert exponent == 3 * (m.euler + m.signature)
            assert exponent % 6 == 0
            base = invertible_4d_value(l1, l2, m)
            for kappa in kernel.elements:
                twisted = invertible_4d_value(kappa[0] * l1, kappa[1] * l2, m)
                ratio = kappa[0] ** m.euler * kappa[1] ** m.p1_number
                assert twisted == base * ratio
                assert ratio == ExactComplex.one()  # exponent is 0 mod 6 for every entry


class TestExpressionParsing:
    def test_formal_sums(self):
        s = parse_formal_sum("K3 + 2*S4", CATALOG)
        assert (s.name, s.dim, s.euler, s.signature) == ("K3+2*S4", 4, 28, -16)
        s = parse_formal_sum("Sigma_3 - (-2)*S2", CATALOG)
        assert (s.name, s.dim, s.euler, s.signature) == ("Sigma_3+2*S2", 2, 0, 0)
        s = parse_formal_sum("S1 - 3*S1", CATALOG)
        assert (s.name, s.dim, s.euler, s.kr) == ("S1+-3*S1", 1, 0, 0)

    def test_manifold_expressions(self):
        m = parse_manifold("CP2 # CP2", CATALOG)
        assert (m.euler, m.signature) == (4, 2)
        m = parse_manifold("S4 + S4", CATALOG)
        assert m.euler == 4
        m = parse_manifold(" S4 + S4 ", CATALOG)
        assert m.euler == 4

    def test_the_two_commands_read_one_language(self):
        assert parse_manifold is parse_formal_sum
        # 2*CP2 - S4 has euler 4 and signature 2, the invariants of no catalog name
        m = parse_formal_sum("2*CP2 - S4", CATALOG)
        assert (m.dim, m.euler, m.signature) == (4, 4, 2)
        assert invertible_4d_value(2, 3, m) == rational(2 ** 4 * 3 ** 6) == rational(11664)
        m = parse_formal_sum("K3#CP2", CATALOG)
        assert (vf_invariant(4, m), is_vf_nullbordant(4, m)) == ((5, -15), False)

    def test_a_coefficient_multiplies_the_chain_after_it(self):
        m = parse_formal_sum("2*K3#CP2", CATALOG)
        assert (m.name, m.euler, m.signature) == ("2*K3#CP2", 50, -30)
        m = parse_formal_sum("S4 - 3 * K3 # CP2 # CP2", CATALOG)
        assert (m.euler, m.signature) == (2 - 3 * (24 + 3 + 3 - 4), -3 * (-16 + 2))

    def test_bad_expressions(self):
        with pytest.raises(ValueError):
            parse_formal_sum("K3 + + S4", CATALOG)
        with pytest.raises(MtspecError, match="no catalog entry named 'Mystery'"):
            parse_manifold("Mystery", CATALOG)


# The term expression before each run of whitespace could match only one
# way; it backtracked catastrophically on long runs.  It is the oracle for
# the language parse_formal_sum accepts.
OLD_SUM_TERM_RE = re.compile(
    r"\s*([+-])?\s*(?:\(?\s*(-?\d+)\s*\)?\s*\*\s*)?([A-Za-z][A-Za-z0-9_]*)")

def sum_like(st):
    """Strings shaped like formal sums: one to three terms whose grammar
    slots are empty, filled or filled wrongly, with whitespace between."""
    ws = st.sampled_from(["", " ", "  ", "\t"])

    def slot(*options):
        return st.sampled_from(("",) + options)

    term = st.tuples(ws, slot("+", "-", "!"), ws, slot("(", "(("), ws,
                     slot("2", "-3", "-", "x"), ws, slot(")", "))"), ws,
                     slot("*", "**"), ws, slot("S2", "Sigma_1", "K3", "_", "2x"),
                     ws).map("".join)
    return st.lists(term, min_size=1, max_size=3).map("".join)


class TestEveryClassIsASum:
    """The theories see a manifold only through its dimension, euler,
    signature and kr, and a sum of catalog names reaches every value the
    ManifoldClass invariants allow: so no class needs a recorded row."""

    def test_dimension_four(self):
        st = pytest.importorskip("hypothesis.strategies")

        @check_examples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
        def check(half, signature):
            euler = 2 * half - signature  # euler + signature is even
            a, b = (euler - 3 * signature) // 2, signature
            m = parse_formal_sum("(%d)*S4 + (%d)*CP2" % (a, b), CATALOG)
            assert (m.dim, m.euler, m.signature) == (4, euler, signature)

    def test_dimension_two(self):
        st = pytest.importorskip("hypothesis.strategies")

        @check_examples(st.integers(-10 ** 6, 10 ** 6))
        def check(half):
            m = parse_formal_sum("(%d)*S2" % half, CATALOG)
            assert (m.dim, m.euler, m.signature) == (2, 2 * half, 0)

    def test_dimensions_three_and_one(self):
        m = parse_formal_sum("S3", CATALOG)
        assert (m.dim, m.euler, m.signature) == (3, 0, 0)
        for text, kr in [("S1", 1), ("2*S1", 0)]:
            m = parse_formal_sum(text, CATALOG)
            assert (m.dim, m.euler, m.kr) == (1, 0, kr)


class TestSumParserLanguage:
    def test_same_terms_as_the_old_expression(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(sum_like(hypothesis.strategies))
        def check(text):
            for pos in range(len(text) + 1):
                old = OLD_SUM_TERM_RE.match(text, pos)
                new = tftlab._SUM_TERM_RE.match(text, pos)
                assert (old and (old.groups(), old.end())) == \
                    (new and (new.groups(), new.end()))

        check()

    @pytest.mark.parametrize("text", ["S2" + " " * 100_000 + "!",
                                      "S2 +" + " " * 100_000 + "(2)!"])
    def test_long_whitespace_fails_in_linear_time(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_formal_sum(text, CATALOG)
        assert time.perf_counter() - start < 1
