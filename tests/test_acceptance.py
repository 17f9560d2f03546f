"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every assertion here is exact; no tolerances appear anywhere.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
from fractions import Fraction

from mtspec.abelian import (FgAbGroup, IntMatrix, check_exact, cokernel,
                            smith_normal_form)
from mtspec.certified import assignments_to_group_hom, cover_map
from mtspec.charclasses import ring_restriction, thom_module_piece
from mtspec.classify import (ExtensionClass, TheoryParams, classify,
                             gilmer_masbaum_report, mcg_extension_class,
                             restrict_theory, restriction_kernel)
from mtspec.exactnum import ExactComplex
from mtspec.spectra import (SpectrumId, cohomology, default_constraints,
                            derive_cover_cohomology, verify_les)
from mtspec.tftlab import (SurfaceBordism, euler_theory_value, formal_sum,
                           frobenius_closed_value, is_vf_nullbordant,
                           standard_manifolds, vf_invariant)

from test_abelian import (brute_force_exact, product, random_finite_group,
                          random_hom, random_unimodular, sympy_matrix)

Z = FgAbGroup(1)


def report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print("criterion %d: %s - %s" % (number, status, description))
    assert not failures, "criterion %d: %s" % (number, "; ".join(map(str, failures[:5])))


# criterion 1 ---------------------------------------------------------------

EXPECTED_TABLE = {
    # (d, cover, k): (group text, generator names)
    (4, 0): ["Z|u", "0|", "0|", "Z/2|W3u", "Z^2|eu,p1u", "0|"],
    (3, 0): ["Z|u", "0|", "0|", "Z/2|W3u", "Z|p1u", "0|"],
    (2, 0): ["Z|u", "0|", "Z|cu", "0|", "Z|c^2u", "0|"],
    (4, 1): ["0|", "0|", "0|", "0|", "Z^2|psi,sigma", "0|"],
    (3, 1): ["0|", "0|", "0|", "0|", "Z|rho", "0|"],
    (2, 1): ["0|", "0|", "Z|tau", "0|", "Z|rho", "0|"],
}


def test_criterion_1_cohomology_table_reproduction():
    failures = []
    checked = 0
    for (d, cover), rows in EXPECTED_TABLE.items():
        for k, expected in enumerate(rows):
            group_text, name_text = expected.split("|")
            entry = cohomology(SpectrumId(d, cover), k)
            checked += 1
            if entry.group != FgAbGroup.from_text(group_text):
                failures.append((d, cover, k, "group", str(entry.group)))
            names = tuple(name_text.split(",")) if name_text else ()
            if entry.names != names:
                failures.append((d, cover, k, "generators", entry.names))
    assert checked == 36
    report(1, "six table rows, degrees 0..5: groups and generator names", failures)


# criterion 2 ---------------------------------------------------------------

def test_criterion_2_les_verification():
    failures = []
    for d in (2, 3, 4):
        rep = verify_les(d)
        if not rep.all_exact:
            failures.append((d, [c for c in rep.checks if not c.exact]))
    rep4 = verify_les(4)
    ses4 = [c for c in rep4.chunks
            if c.groups == (FgAbGroup(2), FgAbGroup(2), FgAbGroup(0, (6,)))]
    if not (ses4 and ses4[0].exact and "eu,p1u" in ses4[0].description
            and "psi,sigma" in ses4[0].description):
        failures.append("missing the degree-4 short exact chunk for d=4")
    rep2 = verify_les(2)
    ses2 = [c for c in rep2.chunks if c.groups == (Z, Z, FgAbGroup(0, (2,)))]
    if not (ses2 and ses2[0].exact):
        failures.append("missing the degree-2 short exact chunk for d=2")
    report(2, "long exact sequence verifies for d = 2, 3, 4", failures)


# criterion 3 ---------------------------------------------------------------

def test_criterion_3_derivation_uniqueness():
    failures = []
    for d in (2, 3, 4):
        for k in range(6):
            result = derive_cover_cohomology(d, k, default_constraints(d, k))
            expected = cohomology(SpectrumId(d, 1), k).group
            if result.ambiguous or result.group != expected:
                failures.append((d, k, result))
    free = derive_cover_cohomology(3, 4, [])
    expected_candidates = frozenset({Z, FgAbGroup(1, (2,)), FgAbGroup(1, (3,)),
                                     FgAbGroup(1, (6,))})
    if not free.ambiguous or free.candidates != expected_candidates:
        failures.append(("unconstrained candidates", free.candidates))
    report(3, "every cover entry derives uniquely; unconstrained case shows "
              "all four candidates", failures)


# criterion 4 ---------------------------------------------------------------

def test_criterion_4_classification():
    failures = []
    for d, n in [(1, 1), (3, 1), (3, 2), (3, 3)]:
        tg = classify(d, n)
        if tg.unit_rank or not tg.finite_part.is_trivial:
            failures.append(("expected trivial", d, n))
    for n in (1, 2):
        tg = classify(2, n)
        if tg.unit_rank != 1 or not tg.finite_part.is_trivial:
            failures.append(("expected one unit", 2, n))
    for n in (1, 2, 3, 4):
        tg = classify(4, n)
        if tg.unit_rank != 2 or not tg.finite_part.is_trivial:
            failures.append(("expected two units", 4, n))

    rng = random.Random(2024)
    for _ in range(100):
        l1 = Fraction(rng.choice([x for x in range(-30, 31) if x]), rng.randint(1, 30))
        l2 = Fraction(rng.choice([x for x in range(-30, 31) if x]), rng.randint(1, 30))
        out = restrict_theory(4, 4, 3, TheoryParams.of([l1, l2]))
        if out != (ExactComplex.of(l1 ** 2), ExactComplex.of(l2 ** 3 / l1)):
            failures.append(("restriction formula", l1, l2))

    kernel = restriction_kernel(4, 4, 3)
    expected = {(ExactComplex.root_of_unity(6, 3 * k),
                 ExactComplex.root_of_unity(6, k)) for k in range(6)}
    if kernel.group != FgAbGroup(0, (6,)) or set(kernel.elements) != expected:
        failures.append(("four-to-three kernel", kernel))
    signs = restriction_kernel(2, 2, 1)
    if set(signs.elements) != {(ExactComplex.one(),),
                               (ExactComplex.root_of_unity(2),)}:
        failures.append(("two-to-one kernel", signs))
    report(4, "classification groups, restriction formula on 100 rational "
              "parameter pairs, and both kernels (exact)", failures)


# criterion 5 ---------------------------------------------------------------

def test_criterion_5_gilmer_masbaum_certificate():
    failures = []
    rep = gilmer_masbaum_report()
    if rep.atiyah_class != ExtensionClass(6) or \
            mcg_extension_class(rep.atiyah_class) != 12:
        failures.append(("atiyah", rep.atiyah_class))
    if rep.walker_class != ExtensionClass(2) or \
            mcg_extension_class(rep.walker_class) != 4:
        failures.append(("walker", rep.walker_class))
    if rep.gilmer_class != ExtensionClass(1) or \
            mcg_extension_class(rep.gilmer_class) != 2:
        failures.append(("gilmer", rep.gilmer_class))
    if rep.fundamental_realizable:
        failures.append("fundamental extension wrongly declared realizable")
    if rep.group != Z or rep.generator != "rho":
        failures.append(("group", rep.group, rep.generator))
    report(5, "certificate: 6rho -> 12, 2rho -> 4, rho -> 2, fundamental "
              "impossible", failures)


# criterion 6 ---------------------------------------------------------------

def test_criterion_6_bordism_invariants():
    failures = []
    catalog = standard_manifolds()
    for g in range(11):
        s = formal_sum([(catalog.get("Sigma_%d" % g), 1), (catalog.get("S2"), g - 1)])
        if vf_invariant(2, s) != (0,):
            failures.append(("surface relation", g))
    if vf_invariant(1, formal_sum([(catalog.get("S1"), 2)])) != (0,):
        failures.append("doubled circle")
    for name in ("S3", "T3"):
        for mult in (-2, 1, 5):
            s = formal_sum([(catalog.get(name), mult)])
            if vf_invariant(3, s) != () or not is_vf_nullbordant(3, s):
                failures.append(("three-dimensional", name, mult))
    for g in range(11):
        s = formal_sum([(catalog.get("S2xSigma_%d" % g), 1),
                        (catalog.get("S4"), -(2 - 2 * g))])
        if vf_invariant(4, s) != (0, 0):
            failures.append(("product relation", g))
    if vf_invariant(4, catalog.get("CP2")) != (2, 1):
        failures.append("projective plane invariant")
    report(6, "vector-field bordism invariants vanish on the relation sums "
              "and give (2, 1) on the projective plane", failures)


# criterion 7 ---------------------------------------------------------------

def test_criterion_7_frobenius_euler_compatibility():
    failures = []
    rng = random.Random(99)
    for _ in range(20):
        lam = ExactComplex.of(Fraction(rng.choice([x for x in range(-15, 16) if x]),
                                       rng.randint(1, 15)))
        for g in range(11):
            closed = euler_theory_value(lam, SurfaceBordism(2 - 2 * g, 0))
            if closed != frobenius_closed_value(lam * lam, g):
                failures.append((lam, g))
    report(7, "closed Euler values equal Frobenius values at the squared "
              "parameter, g = 0..10, 20 random rationals, exact", failures)


# criterion 8 ---------------------------------------------------------------

def test_criterion_8_property_suites():
    failures = []
    rng = random.Random(4096)

    # Smith normal form on 1000 random matrices up to 5x5
    for _ in range(1000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                                 for _ in range(rows)])
        u, d, v = smith_normal_form(a)
        U, V = sympy_matrix(u), sympy_matrix(v)
        if U * sympy_matrix(a) * V != sympy_matrix(d):
            failures.append(("snf product", a))
            continue
        if abs(U.det()) != 1 or abs(V.det()) != 1:
            failures.append(("snf unimodularity", a))
        diag = d.diagonal()
        for x, y in zip(diag, diag[1:]):
            if (x == 0 and y != 0) or (x != 0 and y % x):
                failures.append(("snf divisibility", a))

    # exactness checker against the element chase on groups of order <= 200
    exact_seen = 0
    for _ in range(150):
        a = random_finite_group(rng)
        b = random_finite_group(rng)
        f = random_hom(rng, a, b)
        if rng.random() < 0.5:
            g = random_hom(rng, b, random_finite_group(rng))
        else:
            _, g = f.cokernel_projection()
        expected = brute_force_exact(f, g)
        exact_seen += expected
        if check_exact(f, g) != expected:
            failures.append(("exactness disagreement", f, g))
    if exact_seen < 20:
        failures.append("element-chase sample contained too few exact pairs")

    # cokernel invariance under 100 random unimodular changes
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                                 for _ in range(rows)])
        p = random_unimodular(rng, rows)
        q = random_unimodular(rng, cols)
        if cokernel(product(p, a, q)) != cokernel(a):
            failures.append(("cokernel invariance", a))

    # commuting square of recorded generator maps
    via_cover = product(cover_map(4, 4, "covdim").hom.matrix,
                        cover_map(4, 4, "cover").hom.matrix)
    ring_dim = assignments_to_group_hom(thom_module_piece(4, 4), thom_module_piece(3, 4),
                                        ring_restriction(4, 4, 3))
    via_dim = product(cover_map(3, 4, "cover").hom.matrix,
                      ring_dim.matrix)
    src = cohomology(SpectrumId(4, 0), 4)
    if via_cover != via_dim:
        failures.append("square does not commute")
    if via_cover.columns()[src.names.index("p1u")] != [6]:
        failures.append("p1u does not land on six times the generator")
    if via_cover.columns()[src.names.index("eu")] != [0]:
        failures.append("eu does not die around the square")

    report(8, "1000 Smith forms, exactness vs element chase, 100 unimodular "
              "cokernel changes, commuting square", failures)
