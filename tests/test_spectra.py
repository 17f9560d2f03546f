import pathlib

import pytest

from mtspec import certified
from mtspec.abelian import FgAbGroup, IntMatrix
from mtspec.certified import cover_map, load_data
from mtspec.charclasses import ring_restriction, thom_module_piece
from mtspec.errors import DataFormatError, InternalCheckError, MtspecError
from mtspec.spectra import (KIND_DIVISIBILITY, DerivationConstraint,
                            SpectrumId, cohomology, default_constraints,
                            derive_cover_cohomology, grid_equivalence,
                            homotopy_group, hz_self_cohomology, prove, verify_les)
from mtspec.tftlab import standard_manifolds, vf_invariant

from test_abelian import product

Z = FgAbGroup(1)
Z2 = FgAbGroup(0, (2,))
SHIPPED = pathlib.Path(certified.__file__).parent / "data" / "certified_data.txt"


class TestHomotopyTable:
    def test_values(self):
        assert homotopy_group(4, 4) == FgAbGroup(2)
        assert homotopy_group(3, 1) == FgAbGroup()
        assert homotopy_group(1, 1) == Z2
        assert homotopy_group(2, 2) == Z

    def test_out_of_table(self):
        with pytest.raises(MtspecError, match=r"group \(d=3, k=4\) is outside the table"):
            homotopy_group(3, 4)
        with pytest.raises(MtspecError, match=r"group \(d=5, k=0\) is outside the table"):
            homotopy_group(5, 0)


class TestVfSplitting:
    """The vector-field bordism invariant has one coordinate per generator
    of the degree-d homotopy group."""

    @staticmethod
    def invariant_length(d, name):
        manifold = standard_manifolds().get(name)
        return len(vf_invariant(d, manifold))

    def test_dimension_four(self):
        assert homotopy_group(4, 4) == FgAbGroup(2)
        assert self.invariant_length(4, "CP2") == homotopy_group(4, 4).num_generators

    def test_dimension_two(self):
        assert homotopy_group(2, 2) == Z
        assert self.invariant_length(2, "S2") == homotopy_group(2, 2).num_generators

    def test_dimension_three_trivial(self):
        assert homotopy_group(3, 3) == FgAbGroup()
        assert self.invariant_length(3, "S3") == homotopy_group(3, 3).num_generators

    def test_dimension_one(self):
        assert homotopy_group(1, 1) == Z2
        assert self.invariant_length(1, "S1") == homotopy_group(1, 1).num_generators


class TestHzTable:
    def test_values(self):
        assert hz_self_cohomology(5).group == FgAbGroup(0, (6,))
        assert hz_self_cohomology(3).group == Z2
        assert hz_self_cohomology(0).group == Z

    def test_out_of_table(self):
        with pytest.raises(MtspecError, match="degree 7 is outside the table"):
            hz_self_cohomology(7)


class TestCohomology:
    def test_cover_entries(self):
        entry = cohomology(SpectrumId(4, 1), 4)
        assert entry.group == FgAbGroup(2) and entry.names == ("psi", "sigma")
        entry = cohomology(SpectrumId(2, 1), 2)
        assert entry.group == Z and entry.names == ("tau",)

    def test_uncovered_entries(self):
        entry = cohomology(SpectrumId(3, 0), 3)
        assert entry.group == Z2 and entry.names == ("W3u",)

    def test_degree_five_vanishes_everywhere(self):
        for d in (2, 3, 4):
            for cover in (0, 1):
                assert cohomology(SpectrumId(d, cover), 5).group == FgAbGroup()

    def test_live_and_stored_uncovered_rows_agree(self):
        data = load_data()
        for d in (1, 2, 3, 4):
            for k in range(6):
                stored = data.entry(d, 0, k)
                live = thom_module_piece(d, k)
                assert stored.group == live.group, (d, k)
                assert stored.generators == live.generators, (d, k)

    def test_a_degree_past_the_table_is_refused(self):
        with pytest.raises(MtspecError, match=r"cohomology is tabulated for degrees 0\.\.5"):
            cohomology(SpectrumId(2, 1), 6)

    def test_unsupported_cover(self):
        with pytest.raises(MtspecError, match="no table entry for p>=2 Sigma"):
            cohomology(SpectrumId(4, 2), 4)
        with pytest.raises(MtspecError, match="no table entry for p>=1 Sigma"):
            cohomology(SpectrumId(1, 1), 1)


class TestCoverMap:
    def test_recorded_examples(self):
        arrow = cover_map(4, 4)
        assert arrow.image_of("eu") == {"psi": 2, "sigma": -1}
        assert arrow.image_of("p1u") == {"sigma": 3}
        assert cover_map(3, 4).image_of("p1u") == {"rho": 6}
        assert cover_map(2, 2).image_of("cu") == {"tau": 2}

    def test_computed_arrows(self):
        # the names rule gives covdim 3 -> 2, and the 3 -> 2 square then
        # gives cover_2(c^2u) = covdim(cover_3(dim^-1(c^2u))) = -6 rho
        arrow = cover_map(3, 4, "covdim")
        assert (arrow.provenance, arrow.image_of("rho")) == ("names", {"rho": 1})
        arrow = cover_map(2, 4)
        assert (arrow.provenance, arrow.image_of("c^2u")) == ("square", {"rho": -6})

    def test_cover_arrows_between_covers(self):
        arrow = cover_map(4, 4, "covdim")
        assert arrow.image_of("psi") == {"rho": 1}
        assert arrow.image_of("sigma") == {"rho": 2}

    def test_not_recorded(self):
        with pytest.raises(MtspecError, match="no recorded cover arrow for d=4, k=2"):
            cover_map(4, 2)
        with pytest.raises(MtspecError, match="no recorded covdim arrow for d=2, k=3"):
            cover_map(2, 3, "covdim")
        with pytest.raises(ValueError, match="unknown arrow kind 'dim'"):
            cover_map(4, 4, "dim")  # the ring gives it: charclasses.ring_restriction

    def test_well_defined_group_homs(self):
        data = load_data()
        for (kind, d, k), record in data.arrows.items():
            arrow = cover_map(d, k, kind)
            assert arrow is record and (arrow.kind, arrow.d, arrow.k) == (kind, d, k)
            # the map was built at load, which refuses one that is not
            # well-defined on the torsion, between the entries it names
            source, target = ((d, 0, k), (d, 1, k)) if kind == "cover" else \
                ((d, 1, k), (d - 1, 1, k))
            assert arrow.hom.source == data.entry(*source).group
            assert arrow.hom.target == data.entry(*target).group


class TestVerifyLes:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_chunks_exact(self, d):
        report = verify_les(d)
        assert report.all_exact, [c for c in report.checks if not c.exact]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_the_unit_map_is_synthesized(self, d):
        assert ("degree 0: identification of HZ^0(HZ) with H^0(Sigma^%d MTSO(%d)) "
                "synthesized as the canonical isomorphism" % (d, d)) in verify_les(d).notes

    @staticmethod
    def _fail_identification(monkeypatch, exc):
        # the degree-3 identification of HZ^3(HZ) is synthesized from a
        # generator pairing; make only that pairing fail
        original = certified.assignments_to_group_hom

        def patched(source, target, assignments):
            if assignments[0][0] == "hz3":
                raise exc
            return original(source, target, assignments)
        monkeypatch.setattr(certified, "assignments_to_group_hom", patched)

    @staticmethod
    def _fresh_data():
        # a snapshot whose workspace holds no identification yet
        return certified.parse_data(SHIPPED.read_text())

    def test_failed_identification_is_reported(self, monkeypatch):
        self._fail_identification(monkeypatch, DataFormatError("no pairing"))
        report = verify_les(4, self._fresh_data())
        assert not report.all_exact
        assert "no generator pairing identifies the groups" in \
            [c.note for c in report.checks]
        failing = next(c for c in report.checks if c.note)
        assert not failing.exact
        assert failing.label == "H^3(Sigma^4 MTSO(4))"

    def test_unrelated_errors_propagate(self, monkeypatch):
        self._fail_identification(monkeypatch, RuntimeError("broken"))
        with pytest.raises(RuntimeError):
            verify_les(4, self._fresh_data())
        with pytest.raises(RuntimeError):  # prove catches refusals only
            prove(self._fresh_data())

    def test_degree_four_chunk_of_d4(self):
        report = verify_les(4)
        chunk = next(c for c in report.chunks
                     if c.groups == (FgAbGroup(2), FgAbGroup(2), FgAbGroup(0, (6,))))
        assert chunk.exact
        assert "eu,p1u" in chunk.description and "psi,sigma" in chunk.description

    def test_degree_two_chunk_of_d2(self):
        report = verify_les(2)
        chunk = next(c for c in report.chunks if c.groups == (Z, Z, Z2))
        assert chunk.exact
        assert "cu" in chunk.description and "tau" in chunk.description

    def test_recorded_maps_are_built_once(self, monkeypatch):
        # parse_data builds each arrow's map, recorded or computed, to
        # validate it and keeps it; the sequence reuses those maps and
        # builds only the identifications it synthesizes, each once per
        # snapshot: degree 0 (the same entries for every d), and degree 3
        # (the same entries for d = 3 and d = 4)
        original = certified.assignments_to_group_hom
        built = []

        def counting(source, target, assignments):
            built.append(assignments)
            return original(source, target, assignments)
        monkeypatch.setattr(certified, "assignments_to_group_hom", counting)
        data = certified.parse_data(SHIPPED.read_text())
        assert len(built) == len(data.arrows) == 6
        built.clear()
        for d in (2, 3, 4):
            assert verify_les(d, data).all_exact
        recorded = {arrow.assignments for arrow in data.arrows.values()}
        assert [a for a in built if a in recorded] == []
        assert [a[0][0] for a in built] == ["hz0", "hz3"]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_every_call_gives_the_same_report(self, d):
        # a check per group, labelled in sequence order; the labels depend
        # on d alone, and reports on one snapshot or on two are equal
        # field for field
        text = SHIPPED.read_text()
        data = certified.parse_data(text)
        report = verify_les(d, data)
        spectra = ("Sigma^%d MTSO(%d)" % (d, d), "p>=1 Sigma^%d MTSO(%d)" % (d, d))
        labels = []
        for k in range(7):
            labels.append("HZ^%d(HZ)" % k)
            labels += ["H^%d(%s)" % (k, spectrum) for spectrum in spectra if k <= 5]
        assert [check.label for check in report.checks] == labels
        for again in (verify_les(d, data), verify_les(d, certified.parse_data(text))):
            assert again._asdict() == report._asdict()

    def test_cover_degree_five_vanishing_is_consistent(self):
        for d in (2, 3, 4):
            assert cohomology(SpectrumId(d, 1), 5).group == FgAbGroup()
            assert cohomology(SpectrumId(d, 0), 5).group == FgAbGroup()
            assert hz_self_cohomology(6).group == FgAbGroup()


class TestGridEquivalence:
    def test_marked_equivalences(self):
        assert grid_equivalence(4, 1, 3)
        assert grid_equivalence(4, 1, 2)
        assert grid_equivalence(3, 1, 2)

    def test_non_equivalences(self):
        assert not grid_equivalence(2, 0, 1)  # degree-0 homotopy survives
        assert not grid_equivalence(4, 0, 1)
        assert not grid_equivalence(1, 0, 1)

    def test_out_of_table(self):
        with pytest.raises(MtspecError, match=r"group \(d=1, k=2\) is outside the table"):
            grid_equivalence(1, 2, 3)


class TestDerivation:
    def test_all_cover_entries_derive_uniquely(self):
        for d in (2, 3, 4):
            for k in range(6):
                result = derive_cover_cohomology(d, k, default_constraints(d, k))
                assert not result.ambiguous, (d, k)
                assert result.group == cohomology(SpectrumId(d, 1), k).group

    def test_divisibility_pins_degree_four_of_d3(self):
        result = derive_cover_cohomology(3, 4, default_constraints(3, 4))
        assert (result.group, result.ambiguous) == (Z, False)

    def test_hurewicz_pins_degree_two_of_d2(self):
        result = derive_cover_cohomology(2, 2, default_constraints(2, 2))
        assert (result.group, result.ambiguous) == (Z, False)

    def test_unconstrained_degree_four_of_d3_is_ambiguous(self):
        result = derive_cover_cohomology(3, 4, [])
        assert result.ambiguous
        assert result.candidates == frozenset({
            Z, FgAbGroup(1, (2,)), FgAbGroup(1, (3,)), FgAbGroup(1, (6,))})

    def test_underdetermined_without_constraints(self):
        result = derive_cover_cohomology(4, 2, [])
        assert result.ambiguous and result.candidates is None

    def test_outside_the_proof_is_refused(self):
        with pytest.raises(MtspecError, match="the fiber sequence is recorded for d = 2, 3, 4$"):
            verify_les(1)
        with pytest.raises(MtspecError, match=r"cover entries exist for d=2\.\.4, k=0\.\.5$"):
            derive_cover_cohomology(2, 6, [])

    def test_iso_at_another_degree_contradicts(self):
        with pytest.raises(MtspecError,
                           match="the first-homotopy identification applies only in degree 2"):
            derive_cover_cohomology(2, 3, [DerivationConstraint.hurewicz_iso(3, Z, "misapplied")])

    def test_divisibility_needs_a_generator_of_the_subgroup(self):
        # in degree 0 the unit map is an isomorphism, so A is zero
        with pytest.raises(MtspecError, match="the subgroup has none in this degree"):
            derive_cover_cohomology(2, 0, [
                DerivationConstraint.divisibility_from_square(2, "u", "misapplied")])
        with pytest.raises(MtspecError, match="no generator named 'W3u' in this degree"):
            derive_cover_cohomology(3, 4, [
                DerivationConstraint.divisibility_from_square(6, "W3u", "misapplied")])

    def test_vanishing_out_of_range_contradicts(self):
        with pytest.raises(MtspecError, match="homotopy table stops below degree 4"):
            derive_cover_cohomology(
                3, 4, [DerivationConstraint.hurewicz_vanishing("misapplied")])

    def test_wrong_iso_group_contradicts(self):
        with pytest.raises(MtspecError, match=r"homotopy Z\^2 conflicts with the table value Z"):
            derive_cover_cohomology(2, 2, [
                DerivationConstraint.hurewicz_iso(2, FgAbGroup(2), "wrong"),
                DerivationConstraint.universal_coefficients("dual"),
            ])

    def test_divisibility_comes_from_the_cover_arrows(self):
        found = {}
        for d in (2, 3, 4):
            for k in range(6):
                for c in default_constraints(d, k):
                    if c.kind == KIND_DIVISIBILITY:
                        found[(d, k)] = (c.divisor, c.generator, c.basis)
        assert found == {
            (2, 4): (6, "c^2u", "recorded cover arrow (prov=square): the image "
                                "of c^2u is 6 times a class"),
            (3, 4): (6, "p1u", "recorded cover arrow (prov=diagram): the image "
                               "of p1u is 6 times a class"),
        }

    def test_tampered_cover_divisor_contradicts(self):
        # the divisibility of c^2u is read from its cover arrow, which the
        # 3 -> 2 square solves from p1u's, so an image of 5*rho for p1u
        # gives c^2u -5*rho, and that admits no extension of Z/6 by Z
        text = SHIPPED.read_text()
        modified = text.replace("map=p1u:6*rho", "map=p1u:5*rho")
        assert modified != text
        data = certified.parse_data(modified)
        assert [(c.divisor, c.generator) for c in default_constraints(2, 4, data)] \
            == [(5, "c^2u")]
        with pytest.raises(MtspecError,
                           match="no extension satisfies the constraints"):
            derive_cover_cohomology(2, 4, default_constraints(2, 4, data), data)

    def test_pinned_group_outside_the_extensions_contradicts(self):
        # a homotopy table with pi_4 = Z pins H^4 of the d=4 cover to Z, but
        # every extension of Z/6 by Z^2 has rank 2: no class may end the
        # search early, and the contradiction is reported
        text = SHIPPED.read_text()
        modified = text.replace("homotopy d=4 k=4 group=Z^2", "homotopy d=4 k=4 group=Z")
        assert modified != text
        data = certified.parse_data(modified)
        with pytest.raises(MtspecError,
                           match="constraint-pinned group is not an admissible middle group"):
            derive_cover_cohomology(4, 4, default_constraints(4, 4, data), data)


def ring_dim(d: int, k: int):
    """The ring restriction from d to d - 1 in degree k, as a GroupHom."""
    return certified.assignments_to_group_hom(
        thom_module_piece(d, k), thom_module_piece(d - 1, k), ring_restriction(d, k, d - 1))


class TestCommutingSquare:
    def test_generator_chases_agree(self):
        top = cover_map(4, 4, "cover").hom      # eu,p1u -> psi,sigma
        right = cover_map(4, 4, "covdim").hom   # psi,sigma -> rho
        left = ring_dim(4, 4)                                  # eu,p1u -> p1u
        bottom = cover_map(3, 4, "cover").hom   # p1u -> rho
        via_cover = product(right.matrix, top.matrix)
        via_dimension = product(bottom.matrix, left.matrix)
        assert via_cover == via_dimension
        # p1u: 3*sigma -> 6*rho equals p1u -> p1u -> 6*rho
        src = cohomology(SpectrumId(4, 0), 4)
        p1u_index = src.names.index("p1u")
        assert via_cover.columns()[p1u_index] == [6]
        # eu: (2*psi - sigma) -> 2*rho - 2*rho = 0 equals eu -> 0 -> 0
        eu_index = src.names.index("eu")
        assert via_cover.columns()[eu_index] == [0]

    def test_the_solved_square_commutes(self):
        # p1u -> 6*rho -> 6*rho equals p1u -> -c^2u -> 6*rho
        right = cover_map(3, 4, "covdim").hom   # rho -> rho
        top = cover_map(3, 4, "cover").hom      # p1u -> rho
        bottom = cover_map(2, 4, "cover").hom   # c^2u -> rho
        assert product(right.matrix, top.matrix) == product(bottom.matrix,
                                                            ring_dim(3, 4).matrix) \
            == IntMatrix.from_rows([[6]])


class TestSpectrumId:
    def test_display(self):
        assert SpectrumId(4, 1).display() == "p≥1Σ⁴MTSO(4)"
        assert SpectrumId(4, 1).display(ascii_mode=True) == "p>=1 Sigma^4 MTSO(4)"
        assert SpectrumId(2).display() == "Σ²MTSO(2)"

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumId(5)
        with pytest.raises(ValueError):
            SpectrumId(2, 4)


# the cover entry that ROADMAP's item 2 tampers with: the table then
# disagrees with the exact sequence in degree 4 of d = 2
TAMPER = ("cohomology d=2 cover=1 k=4 gens=rho",
          "cohomology d=2 cover=1 k=4 gens=rho:3")


class TestProve:
    def test_the_shipped_file_passes_every_check(self):
        report = prove(load_data())
        assert report.failure is None
        assert [check.step for check in report.checks] == \
            ["verify_les"] * 3 + ["derivation"] * 18 + ["certificate"]
        assert [check.subject for check in report.checks] == ["d=2", "d=3", "d=4"] + [
            "d=%d k=%d" % (d, k) for d in (2, 3, 4) for k in range(6)] + ["gilmer-masbaum"]
        assert {check[2:] for check in report.checks} == {("passed", "")}

    @pytest.mark.parametrize("edit,failure,needle", [
        (TAMPER, ("verify_les", "d=2", "refused"), "; H^4(p>=1 Sigma^2 MTSO(2));"),
        (("homotopy d=3 k=1 group=0", "homotopy d=3 k=1 group=Z/2"),
         ("derivation", "d=3 k=2", "ambiguous"), "add a connectivity constraint"),
        (("homotopy d=4 k=3 group=0", "homotopy d=4 k=3 group=Z/2"),
         ("derivation", "d=4 k=4", "ambiguous"), "middle groups left: Z^2, Z^2+Z/2"),
        (("homotopy d=2 k=2 group=Z", "homotopy d=2 k=2 group=0"),
         ("derivation", "d=2 k=2", "refused"), "not an admissible middle group"),
        (("psi:1*rho", "psi:3*rho"), ("certificate", "gilmer-masbaum", "refused"),
         "psi no longer maps to the generator"),
    ], ids=["sequence", "unpinned", "ambiguous", "derivation", "certificate"])
    def test_a_refused_file_is_a_verdict_not_an_exception(self, edit, failure, needle):
        text = SHIPPED.read_text()
        assert text.count(edit[0]) == 1
        report = prove(certified.parse_data(text.replace(*edit)))
        assert report.failure == report.checks[-1] and report.failure[:3] == failure
        assert needle in report.failure.reason
        assert {check.verdict for check in report.checks[:-1]} <= {"passed"}


@pytest.mark.parametrize("tampered_first", [False, True], ids=["shipped-first", "tampered-first"])
def test_the_proof_workspace_stays_inside_its_snapshot(tampered_first):
    # what the proof keeps lives on its CertifiedData: proving one snapshot
    # changes nothing that the proof of another one sees, in either order
    text = SHIPPED.read_text()
    tampered_text = text.replace(*TAMPER)
    assert tampered_text != text
    shipped, tampered = load_data(), certified.parse_data(tampered_text)

    def prove_shipped():
        assert prove(shipped).failure is None

    def prove_tampered():
        assert prove(tampered).failure.subject == "d=2"
        with pytest.raises(InternalCheckError,
                           match=r"derived Z for \(d=2, cover=1, k=4\) but the table holds Z/3"):
            derive_cover_cohomology(2, 4, default_constraints(2, 4, tampered), tampered)

    steps = [prove_tampered, prove_shipped] if tampered_first else [prove_shipped, prove_tampered]
    for step in steps + [prove_shipped]:
        step()
    assert certified.parse_data(text).derived == {}  # a new snapshot starts empty


def test_one_proof_pass_factors_each_matrix_once(monkeypatch):
    # exact call counts, no timing, on the shipped data.  Each map of the
    # sequences is factored once, on first use, whichever checks and
    # connecting maps read it: 10 maps for d = 2..4.  Each extension class
    # of a B with torsion takes one, and the 10 split classes (B = 0 here)
    # none.  The (2, 4) and (3, 4) derivations share the six classes of
    # Ext^1(Z/6, Z), enumerated once per snapshot, and the (4, 4) one stops
    # at the pinned group after 2 of its classes.  The certificate factors
    # nothing.  A second proof of the same snapshot factors only the
    # classes of the two enumerations that stopped at their pinned group,
    # 2 each, the (2, 2) one and the (4, 4) one: each connecting
    # projection is kept on the map it is read off, with its own form, and
    # each enumeration that ran to the end is kept.
    from mtspec import abelian
    calls = {}
    for name in ("_smith", "cokernel"):
        def counting(*args, _name=name, _original=getattr(abelian, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(abelian, name, counting)

    data = certified.parse_data(SHIPPED.read_text())
    assert calls == {}
    assert prove(data).failure is None
    assert calls == {"_smith": 20}
    assert prove(data).failure is None
    assert calls == {"_smith": 24}
    # a free B splits every extension: no Smith form at all
    split = list(abelian.enumerate_extensions(FgAbGroup(2), FgAbGroup(1)))
    assert [ext.group for ext in split] == [FgAbGroup(3)]
    assert calls == {"_smith": 24}


def test_the_workspace_keeps_each_finished_enumeration(monkeypatch):
    from mtspec import spectra
    enumerated = []

    def counting(a, b, _original=spectra.enumerate_extensions):
        enumerated.append((a, b))
        return _original(a, b)
    monkeypatch.setattr(spectra, "enumerate_extensions", counting)
    data = certified.parse_data(SHIPPED.read_text())
    assert prove(data).failure is None
    z2, z6, z_2 = FgAbGroup(0, (2,)), FgAbGroup(0, (6,)), FgAbGroup(2)
    assert enumerated.count((Z, z6)) == 1  # shared by (2, 4) and (3, 4)
    assert len(data.derived[("extensions", Z, z6)]) == 6
    # the (2, 2) and (4, 4) derivations stop at the pinned group, after the
    # 2 classes of Ext(Z/2, Z) and 2 of the 36 of Ext(Z/6, Z^2): neither
    # enumeration is kept, and the next proof runs each again
    assert ("extensions", Z, z2) not in data.derived
    assert ("extensions", z_2, z6) not in data.derived
    assert prove(data).failure is None
    assert [enumerated.count(pair) for pair in ((Z, z6), (Z, z2), (z_2, z6))] == [1, 2, 2]
    # a derivation that reads on runs the enumeration to the end and keeps
    # it, and the next proof reads it from the workspace
    assert derive_cover_cohomology(4, 4, [], data).ambiguous
    assert len(data.derived[("extensions", z_2, z6)]) == 36
    assert prove(data).failure is None
    assert [enumerated.count(pair) for pair in ((Z, z6), (Z, z2), (z_2, z6))] == [1, 3, 3]
    assert certified.parse_data(SHIPPED.read_text()).derived == {}


def test_a_refused_enumeration_is_refused_again():
    text = SHIPPED.read_text().replace(
        "hz k=5 group=Z/6", "hz k=5 group=Z/65")
    data = certified.parse_data(text)
    for _ in range(2):
        with pytest.raises(MtspecError, match="torsion order 65 exceeds the enumeration bound"):
            derive_cover_cohomology(3, 4, default_constraints(3, 4, data), data)


def test_proof_records_are_immutable():
    data = load_data()
    report = verify_les(2, data)
    proof = prove(data)
    records = [report, report.checks[0], report.chunks[0],
               DerivationConstraint.hurewicz_vanishing("basis"),
               derive_cover_cohomology(2, 4, default_constraints(2, 4, data), data),
               proof, proof.checks[0]]
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
