import itertools
import re
from collections import Counter

import pytest
import sympy

from mtspec.abelian import FgAbGroup
from mtspec.charclasses import ring_restriction, thom_module_piece

SYMBOLS = dict(zip(("W3", "e", "p1", "c"), sympy.symbols("W3 e p1 c")))
GENS = tuple(SYMBOLS.values())
W3, E, P1, C = GENS
LEGAL = {1: (), 2: ("c",), 3: ("W3", "p1"), 4: ("W3", "e", "p1")}
# one dimension down: e dies; W3 dies and p1 lands on -c^2; c dies
STEPS = {4: {E: 0}, 3: {W3: 0, P1: -C ** 2}, 2: {C: 0}}


def as_sympy(name):
    """The monomial a Thom-module basis name stands for: p1^2u -> p1**2."""
    assert re.fullmatch(r"((W3|e|p1|c)(\^\d+)?)*u", name), name
    expr = sympy.Integer(1)
    for gen, power in re.findall(r"(W3|e|p1|c)(?:\^(\d+))?", name[:-1]):
        expr *= SYMBOLS[gen] ** int(power or 1)
    return expr


def reduced_terms(expr):
    """{exponents: coefficient} of a polynomial, W3 terms taken mod 2 (2 W3 = 0)."""
    terms = {}
    for exps, coeff in sympy.Poly(expr, *GENS).terms():
        coeff = int(coeff) % 2 if exps[0] else int(coeff)
        if coeff:
            terms[exps] = coeff
    return terms


def brute_force_degree_counts(d, k):
    # enumerate exponent tuples directly from the degree equation
    degrees = {2: {"c": 2}, 3: {"W3": 3, "p1": 4},
               4: {"W3": 3, "e": 4, "p1": 4}}[d]
    names = sorted(degrees)
    free = torsion = 0
    for combo in itertools.product(*[range(k // degrees[n] + 1) for n in names]):
        if sum(e * degrees[n] for n, e in zip(names, combo)) != k:
            continue
        if dict(zip(names, combo)).get("W3", 0):
            torsion += 1
        else:
            free += 1
    return free, torsion


class TestGradedPiece:
    """The degree-k pieces of the ring, read through the Thom module."""

    def test_degree_four_of_bso4(self):
        entry = thom_module_piece(4, 4)
        assert entry.group == FgAbGroup(2)
        assert entry.names == ("eu", "p1u")

    def test_degree_three_of_bso4(self):
        entry = thom_module_piece(4, 3)
        assert entry.group == FgAbGroup(0, (2,))
        assert entry.generators == (("W3u", 2),)

    def test_odd_degree_of_bso2_vanishes(self):
        assert thom_module_piece(2, 5).group == FgAbGroup()

    def test_degree_seven_of_bso4(self):
        entry = thom_module_piece(4, 7)
        assert entry.group == FgAbGroup(0, (2, 2))
        assert entry.names == ("W3eu", "W3p1u")

    def test_trivial_ring_for_d1(self):
        assert thom_module_piece(1, 0).group == FgAbGroup(1)
        assert thom_module_piece(1, 3).group == FgAbGroup()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_against_enumeration_oracle(self, d):
        for k in range(13):
            entry = thom_module_piece(d, k)
            free, torsion = brute_force_degree_counts(d, k)
            assert entry.group.free_rank == free
            assert entry.group.torsion == tuple([2] * torsion)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            thom_module_piece(4, 65)


class TestRestriction:
    """ring_restriction against sympy substitution of the generators."""

    @pytest.mark.parametrize("d,to_d", [(4, 3), (4, 2), (4, 1), (3, 2), (3, 1), (2, 1)])
    def test_against_substitution_oracle(self, d, to_d):
        for k in range(25):
            images = ring_restriction(d, k, to_d)
            assert [name for name, _ in images] == list(thom_module_piece(d, k).names)
            targets = set(thom_module_piece(to_d, k).names)
            assert all(t in targets for _, image in images for t, _ in image)
            for name, image in images:
                expected = as_sympy(name)
                for step in range(d, to_d, -1):
                    expected = sympy.expand(expected.subs(STEPS[step]))
                got = sum((coeff * as_sympy(target) for target, coeff in image),
                          sympy.Integer(0))
                assert reduced_terms(got) == reduced_terms(expected), (d, k, to_d, name)

    def test_p1_survives_to_three(self):
        assert dict(ring_restriction(4, 4, 3))["p1u"] == (("p1u", 1),)

    def test_p1_hits_minus_c_squared(self):
        assert ring_restriction(3, 4, 2) == (("p1u", (("c^2u", -1),)),)
        assert ring_restriction(3, 8, 2) == (("p1^2u", (("c^4u", 1),)),)

    def test_euler_class_dies(self):
        assert dict(ring_restriction(4, 4, 3))["eu"] == ()

    def test_w3_dies_in_two(self):
        assert ring_restriction(3, 3, 2) == (("W3u", ()),)
        assert dict(ring_restriction(4, 3, 3))["W3u"] == (("W3u", 1),)

    def test_composite_matches_stepwise(self):
        for d, mid, to_d in ((4, 3, 2), (4, 3, 1), (4, 2, 1), (3, 2, 1)):
            for k in range(25):
                second = dict(ring_restriction(mid, k, to_d))
                for name, image in ring_restriction(d, k, to_d):
                    composite = Counter()
                    for target, coeff in dict(ring_restriction(d, k, mid))[name]:
                        for final, coeff2 in second[target]:
                            composite[final] += coeff * coeff2
                    assert {t: c for t, c in composite.items() if c} == dict(image), \
                        (d, mid, to_d, k, name)

    def test_is_ring_homomorphism(self):
        # the image of a product of basis monomials is the product of images
        def image(d, k, to_d, name):
            combo = dict(ring_restriction(d, k, to_d))[name]
            return sum((c * as_sympy(t) for t, c in combo), sympy.Integer(0))

        for d, to_d in ((4, 3), (4, 2), (3, 2), (2, 1)):
            for a in range(9):
                for b in range(9):
                    names = {as_sympy(n): n for n in thom_module_piece(d, a + b).names}
                    for x in thom_module_piece(d, a).names:
                        for y in thom_module_piece(d, b).names:
                            product = names[sympy.expand(as_sympy(x) * as_sympy(y))]
                            assert reduced_terms(image(d, a + b, to_d, product)) == \
                                reduced_terms(image(d, a, to_d, x) * image(d, b, to_d, y))

    @pytest.mark.parametrize("d,to_d", [(4, 4), (3, 4), (2, 0), (5, 4)])
    def test_must_lower_the_dimension(self, d, to_d):
        with pytest.raises(ValueError):
            ring_restriction(d, 4, to_d)


class TestThomModule:
    def test_named_examples(self):
        assert thom_module_piece(3, 4).generators == (("p1u", None),)
        assert thom_module_piece(2, 2).generators == (("cu", None),)
        assert thom_module_piece(4, 0).generators == (("u", None),)
        assert thom_module_piece(2, 4).generators == (("c^2u", None),)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_degree_preserving_isomorphism(self, d):
        # each basis name is a distinct degree-k monomial of the ring times u,
        # of order 2 exactly when W3 divides it
        for k in range(13):
            thom = thom_module_piece(d, k)
            monomials = [as_sympy(n) for n in thom.names]
            assert len(set(monomials)) == len(monomials)
            for (name, order), mono in zip(thom.generators, monomials):
                exps = sympy.Poly(mono, *GENS).monoms()[0]
                assert sum(e * w for e, w in zip(exps, (3, 4, 4, 2))) == k
                assert mono.free_symbols <= {SYMBOLS[g] for g in LEGAL[d]}
                assert order == (2 if exps[0] else None)
