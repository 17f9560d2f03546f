import pytest

from mtspec import certified
from mtspec.abelian import FgAbGroup
from mtspec.certified import load_data
from mtspec.charclasses import ring_restriction, thom_module_piece
from mtspec.errors import (ContradictoryConstraints, DataFormatError,
                           NotRecorded, OutOfTable, Unsupported)
from mtspec.spectra import (KIND_DIVISIBILITY, DerivationConstraint,
                            SpectrumId, cohomology, cover_map, default_constraints,
                            derive_cover_cohomology, grid_equivalence,
                            homotopy_group, hz_self_cohomology, verify_les)
from mtspec.tftlab import FormalSum, standard_manifolds, vf_invariant

from test_abelian import product

Z = FgAbGroup(1)
Z2 = FgAbGroup(0, (2,))


class TestHomotopyTable:
    def test_values(self):
        assert homotopy_group(4, 4) == FgAbGroup(2)
        assert homotopy_group(3, 1) == FgAbGroup()
        assert homotopy_group(1, 1) == Z2
        assert homotopy_group(2, 2) == Z

    def test_out_of_table(self):
        with pytest.raises(OutOfTable):
            homotopy_group(3, 4)
        with pytest.raises(OutOfTable):
            homotopy_group(5, 0)


class TestVfSplitting:
    """The vector-field bordism invariant has one coordinate per generator
    of the degree-d homotopy group."""

    @staticmethod
    def invariant_length(d, name):
        manifold = standard_manifolds().get(name)
        return len(vf_invariant(d, FormalSum.of([(manifold, 1)])))

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
        assert hz_self_cohomology(5) == FgAbGroup(0, (6,))
        assert hz_self_cohomology(3) == Z2
        assert hz_self_cohomology(0) == Z

    def test_out_of_table(self):
        with pytest.raises(OutOfTable):
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

    def test_unsupported_cover(self):
        with pytest.raises(Unsupported):
            cohomology(SpectrumId(4, 2), 4)
        with pytest.raises(Unsupported):
            cohomology(SpectrumId(1, 1), 1)


class TestCoverMap:
    def test_recorded_examples(self):
        arrow = cover_map(4, 4)
        assert arrow.image_of("eu") == {"psi": 2, "sigma": -1}
        assert arrow.image_of("p1u") == {"sigma": 3}
        assert cover_map(3, 4).image_of("p1u") == {"rho": 6}
        assert cover_map(2, 2).image_of("cu") == {"tau": 2}

    def test_dimension_arrows(self):
        arrow = cover_map(4, 4, "dim")
        assert arrow.image_of("eu") == {}
        assert arrow.image_of("p1u") == {"p1u": 1}
        assert cover_map(3, 4, "dim").image_of("p1u") == {"c^2u": -1}

    def test_cover_arrows_between_covers(self):
        arrow = cover_map(4, 4, "covdim")
        assert arrow.image_of("psi") == {"rho": 1}
        assert arrow.image_of("sigma") == {"rho": 2}

    def test_not_recorded(self):
        with pytest.raises(NotRecorded):
            cover_map(4, 2)
        with pytest.raises(NotRecorded):
            cover_map(2, 3, "dim")

    def test_well_defined_group_homs(self):
        data = load_data()
        for record in data.arrows:
            if record.kind == "unit":
                continue
            arrow = cover_map(record.d, record.k, record.kind)
            arrow.to_group_hom(data)  # raises if the torsion is not respected

    def test_dim_arrows_match_ring_restriction(self):
        # the shipped dimension arrows are the ring restriction exactly,
        # not only modulo the torsion orders the load-time check allows
        for d, k in ((4, 0), (4, 3), (4, 4), (3, 0), (3, 3), (3, 4)):
            arrow = cover_map(d, k, "dim")
            assert arrow.assignments == ring_restriction(d, k, d - 1), (d, k)


class TestVerifyLes:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_chunks_exact(self, d):
        report = verify_les(d)
        assert report.all_exact, [c for c in report.checks if not c.exact]

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

    def test_failed_identification_is_reported(self, monkeypatch):
        self._fail_identification(monkeypatch, DataFormatError("no pairing"))
        report = verify_les(4)
        assert not report.all_exact
        assert "no generator pairing identifies the groups" in \
            [c.note for c in report.checks]
        failing = next(c for c in report.checks if c.note)
        assert not failing.exact
        assert failing.label == "H^3(Sigma^4 MTSO(4))"

    def test_unrelated_errors_propagate(self, monkeypatch):
        self._fail_identification(monkeypatch, RuntimeError("broken"))
        with pytest.raises(RuntimeError):
            verify_les(4)

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
        # parse_data builds each recorded arrow's map to validate it and
        # keeps it; the sequence reuses those maps and builds only the two
        # degree-3 identifications it synthesizes (d = 3 and d = 4)
        original = certified.assignments_to_group_hom
        built = []

        def counting(source, target, assignments):
            built.append(assignments)
            return original(source, target, assignments)
        monkeypatch.setattr(certified, "assignments_to_group_hom", counting)
        data = certified.parse_data(certified.default_data_path().read_text())
        assert len(built) == len(data.arrows) == 20
        built.clear()
        for d in (2, 3, 4):
            assert verify_les(d, data).all_exact
        recorded = {arrow.assignments for arrow in data.arrows}
        assert [a for a in built if a in recorded] == []
        assert [a[0][0] for a in built] == ["hz3", "hz3"]

    def test_cover_degree_five_vanishing_is_consistent(self):
        for d in (2, 3, 4):
            assert cohomology(SpectrumId(d, 1), 5).group == FgAbGroup()
            assert cohomology(SpectrumId(d, 0), 5).group == FgAbGroup()
            assert hz_self_cohomology(6) == FgAbGroup()


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
        with pytest.raises(OutOfTable):
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

    def test_vanishing_out_of_range_contradicts(self):
        with pytest.raises(ContradictoryConstraints):
            derive_cover_cohomology(
                3, 4, [DerivationConstraint.hurewicz_vanishing("misapplied")])

    def test_wrong_iso_group_contradicts(self):
        with pytest.raises(ContradictoryConstraints):
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
        # the divisibility of c^2u is read from its recorded cover arrow, so
        # an image of -5*rho admits no extension of Z/6 by Z
        text = certified.default_data_path().read_text()
        modified = text.replace("map=c^2u:-6*rho", "map=c^2u:-5*rho")
        assert modified != text
        data = certified.parse_data(modified)
        assert [(c.divisor, c.generator) for c in default_constraints(2, 4, data)] \
            == [(5, "c^2u")]
        with pytest.raises(ContradictoryConstraints,
                           match="no extension satisfies the constraints"):
            derive_cover_cohomology(2, 4, default_constraints(2, 4, data), data)

    def test_pinned_group_outside_the_extensions_contradicts(self):
        # a homotopy table with pi_4 = Z pins H^4 of the d=4 cover to Z, but
        # every extension of Z/6 by Z^2 has rank 2: no class may end the
        # search early, and the contradiction is reported
        text = certified.default_data_path().read_text()
        modified = text.replace("homotopy d=4 k=4 group=Z^2", "homotopy d=4 k=4 group=Z")
        assert modified != text
        data = certified.parse_data(modified)
        with pytest.raises(ContradictoryConstraints,
                           match="constraint-pinned group is not an admissible middle group"):
            derive_cover_cohomology(4, 4, default_constraints(4, 4, data), data)


class TestCommutingSquare:
    def test_generator_chases_agree(self):
        data = load_data()
        top = cover_map(4, 4, "cover").to_group_hom(data)      # eu,p1u -> psi,sigma
        right = cover_map(4, 4, "covdim").to_group_hom(data)   # psi,sigma -> rho
        left = cover_map(4, 4, "dim").to_group_hom(data)       # eu,p1u -> p1u
        bottom = cover_map(3, 4, "cover").to_group_hom(data)   # p1u -> rho
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


def test_one_proof_pass_factors_each_matrix_once(monkeypatch):
    # exact call counts, no timing, on the shipped data.  Each nontrivial
    # exactness check takes one Smith form, plus a lattice solver when
    # neither map is zero (4 of 22), and each of the 4 connecting maps one
    # more; each extension class takes one.  Before, a class took a
    # cokernel plus a second Smith form per divisibility test, and every
    # check two Smith forms: 53 _smith and 26 cokernel calls in all.
    from mtspec import abelian, classify
    calls = {}
    for name in ("_smith", "cokernel"):
        def counting(*args, _name=name, _original=getattr(abelian, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(abelian, name, counting)

    data = certified.parse_data(certified.default_data_path().read_text())
    assert calls == {}
    for d in (2, 3, 4):
        assert verify_les(d, data).all_exact
    assert calls == {"_smith": 30}
    for d in (2, 3, 4):
        for k in range(6):
            derive_cover_cohomology(d, k, default_constraints(d, k, data), data)
    assert calls == {"_smith": 56}
    classify.gilmer_masbaum_report(data)
    assert calls == {"_smith": 56}
