"""End-to-end driver tests: hypotheses, iterations, oracle, minimality."""

import pytest

from reesgcd import pipeline
from reesgcd.ring import PolyRing
from reesgcd.matrices import (
    delete_column, delete_row, det, iteration_matrix,
)
from reesgcd.ideals import Ideal
from reesgcd.pipeline import (
    CheckResult,
    GOLDEN_MATRIX,
    InstanceSpec,
    IterationError,
    VerificationReport,
    builtin_example,
    check_hypotheses,
    gcd_iterations,
    minimality_and_invariants,
    optional_structural_checks,
    random_instance,
    sample_random_instances,
    verify_main_theorem,
    verify_well_definedness,
)

import bareiss_reference as bareiss
from redundancy_reference import redundant_generators

FIBER_SRC = "T1*T3*T5 - T2*T3^2 - T2^2*T5 - T4*T5^2"


@pytest.fixture(scope="module")
def golden():
    return builtin_example()


@pytest.fixture(scope="module")
def golden_trace(golden):
    return gcd_iterations(golden)


@pytest.fixture(scope="module")
def fiber(golden):
    return golden.ring.parse(FIBER_SRC).monic()


def degenerate_example():
    """Golden matrix with row and column 3 zeroed: still alternating,
    but the entries no longer span all linear forms."""
    rows = [list(r) for r in GOLDEN_MATRIX]
    for k in range(5):
        rows[2][k] = "0"
        rows[k][2] = "0"
    return InstanceSpec(32003, 4, rows, "x5^3")


class TestReports:
    def test_status_validation(self):
        with pytest.raises(ValueError):
            CheckResult("x", "claim", "maybe")

    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            CheckResult("x", "claim", "fail")

    def test_skip_is_not_failure(self):
        rep = VerificationReport()
        rep.add("a", "first", "pass")
        rep.add("b", "second", "skip", "unreachable")
        assert rep.ok
        assert [c.status for c in rep.checks] == ["pass", "skip"]

    def test_find_and_lines(self):
        rep = VerificationReport()
        rep.add("a", "claim a", "fail", "boom", {"k": 1})
        assert not rep.ok
        assert rep.find("a").data == {"k": 1}
        assert rep.lines() == ["[FAIL] a: claim a -- boom"]
        with pytest.raises(KeyError):
            rep.find("missing")

    def test_to_dict_shape(self):
        rep = VerificationReport()
        rep.add("a", "claim", "pass")
        doc = rep.to_dict()
        assert doc["ok"] is True
        assert doc["checks"][0] == {"id": "a", "claim": "claim",
                                    "status": "pass"}


class TestInstanceSpec:
    def test_golden_parses(self, golden):
        assert golden.d == 4
        assert golden.degree == 3
        assert golden.presentation.rows == 5
        assert golden.equation == golden.ring.parse("x5^3")

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec(32003, 4, [["0"] * 4] * 4, "x5")

    def test_zero_equation_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec(32003, 4, GOLDEN_MATRIX, "0")

    def test_constant_equation_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec(32003, 4, GOLDEN_MATRIX, "7")

    def test_inhomogeneous_equation_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec(32003, 4, GOLDEN_MATRIX, "x5^3 + x4")

    def test_t_variables_rejected_in_equation(self):
        with pytest.raises(ValueError):
            InstanceSpec(32003, 4, GOLDEN_MATRIX, "x5^2*T1")

    def test_helper_variable_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec(32003, 4, GOLDEN_MATRIX, "x5^2*t")

    def test_t_variables_rejected_in_matrix(self):
        rows = [list(r) for r in GOLDEN_MATRIX]
        rows[0][1] = "T1"
        with pytest.raises(ValueError):
            InstanceSpec(32003, 4, rows, "x5^3")

    def test_size_limit(self):
        # d=4: C(3m+4, 4) terms in the last gcd, 91,390 at m=12 and
        # 123,410 at m=13
        assert InstanceSpec(32003, 4, GOLDEN_MATRIX, "x5^12").degree == 12
        with pytest.raises(ValueError, match=r"at d=4, m=13 the last gcd "
                           r"may have C\(m\(d-1\)\+d, d\) = 123410 terms, "
                           r"past the limit of 100000"):
            InstanceSpec(32003, 4, GOLDEN_MATRIX, "x5^13")

    def test_size_checked_before_the_matrix(self):
        rows = [list(r) for r in GOLDEN_MATRIX]
        rows[0][1] = "T1"
        with pytest.raises(ValueError, match="instance too large"):
            InstanceSpec(32003, 4, rows, "x5^13")

    def test_random_size_checked_before_any_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a matrix entry was drawn")
        monkeypatch.setattr(pipeline, "_random_linear", refuse)
        with pytest.raises(ValueError, match=r"at d=6, m=4 .* = 230230 "):
            random_instance(6, 4)
        with pytest.raises(ValueError, match=r"at d=80, m=1 .* = at "
                           r"least 2\^79 terms"):
            random_instance(80, 1)

    def test_dict_round_trip(self, golden):
        again = InstanceSpec.from_dict(golden.to_dict())
        assert again.to_dict() == golden.to_dict()
        assert again.presentation == golden.presentation
        assert again.equation == golden.equation

    def test_from_dict_default_prime(self, golden):
        data = golden.to_dict()
        del data["prime"]
        assert InstanceSpec.from_dict(data).prime == 32003

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError):
            InstanceSpec.from_dict({"d": 4, "f": "x5"})

    def test_with_prime(self, golden):
        other = golden.with_prime(65537)
        assert other.prime == 65537
        assert other.matrix_src == golden.matrix_src
        assert other.ring is not golden.ring

    def test_x_ideal(self, golden):
        assert len(golden.x_ideal().gens) == 5


class TestHypotheses:
    def test_golden_passes(self, golden):
        rep = check_hypotheses(golden)
        assert rep.ok
        assert [c.status for c in rep.checks] == ["pass"] * 6

    def test_golden_heights(self, golden):
        rep = check_hypotheses(golden)
        assert rep.find("pfaffian-height").data == {"height": 3}
        assert rep.find("minor-heights").data == {
            "size-4": 3, "size-3": 3, "size-2": 4}

    def test_a_full_span_takes_no_height_run(self, golden, monkeypatch):
        # golden's 2-minors span all 15 quadrics, so size 2 records d
        runs = []
        original = pipeline.height_in_hypersurface

        def recording(ideal, f, ambient):
            runs.append(len(ideal.gens))
            return original(ideal, f, ambient)

        monkeypatch.setattr(pipeline, "height_in_hypersurface", recording)
        rep = check_hypotheses(golden)
        assert rep.find("minor-heights").data["size-2"] == 4
        # the pfaffians, then sizes 4 and 3
        assert len(runs) == 3

    def test_golden_ranks(self, golden):
        rep = check_hypotheses(golden)
        assert rep.find("variable-span").data == {"span": 5}
        assert rep.find("independent-pfaffians").data == {"rank": 5}

    def test_odd_dimension_fails(self):
        rows = [["0", "x1", "x2", "x3"],
                ["-x1", "0", "x3", "x4"],
                ["-x2", "-x3", "0", "x1"],
                ["-x3", "-x4", "-x1", "0"]]
        rep = check_hypotheses(InstanceSpec(32003, 3, rows, "x4^2"))
        assert not rep.ok
        first = rep.find("even-dimension")
        assert first.status == "fail"
        assert "d must be even" in first.witness
        # dependent checks are gated, not run
        assert rep.find("pfaffian-height").status == "skip"

    def test_non_alternating_gates_later_checks(self):
        rows = [list(r) for r in GOLDEN_MATRIX]
        rows[0][1] = "x2"
        rep = check_hypotheses(InstanceSpec(32003, 4, rows, "x5^3"))
        assert rep.find("alternating-linear").status == "fail"
        assert rep.find("minor-heights").status == "skip"

    def test_nonlinear_entry_fails(self):
        rows = [list(r) for r in GOLDEN_MATRIX]
        rows[0][1] = "x1^2"
        rows[1][0] = "-x1^2"
        rep = check_hypotheses(InstanceSpec(32003, 4, rows, "x5^3"))
        assert rep.find("alternating-linear").status == "fail"

    def test_degenerate_span_fails(self):
        rep = check_hypotheses(degenerate_example())
        span = rep.find("variable-span")
        assert span.status == "fail"
        assert span.data["span"] < 5


class TestIterations:
    def test_step_count_and_bidegrees(self, golden_trace):
        assert len(golden_trace.steps) == 3
        assert [tuple(s.bidegree) for s in golden_trace.steps] == [
            (2, 3), (1, 6), (0, 9)]

    def test_golden_gcds(self, golden_trace, fiber):
        ring = golden_trace.ring
        x5 = ring.x(5)
        assert golden_trace.gcds[0] == (x5 ** 2 * fiber).monic()
        assert golden_trace.gcds[1] == (x5 * fiber ** 2).monic()
        assert golden_trace.gcds[2] == (fiber ** 3).monic()

    def test_gcds_are_monic(self, golden_trace):
        for g in golden_trace.gcds:
            assert g.items()[0][1] == 1

    def test_appended_columns(self, golden_trace, fiber):
        ring = golden_trace.ring
        x5 = ring.x(5)
        expected = [x5 ** 2, (x5 * fiber).monic(), (fiber ** 2).monic()]
        for step, want in zip(golden_trace.steps, expected):
            column = [step.matrix.at(k, 5) for k in range(5)]
            assert [e.is_zero for e in column[:4]] == [True] * 4
            assert column[4].monic() == want

    def test_bilinear_forms_reassemble_dual(self, golden_trace):
        ring = golden_trace.ring
        dual = golden_trace.dual
        for j, form in enumerate(golden_trace.bilinear):
            acc = ring.zero
            for k in range(5):
                acc = acc + ring.x(k + 1) * dual.at(k, j)
            assert acc == form

    def test_partial_ideals_grow(self, golden_trace):
        assert len(golden_trace.partial_ideal(0).gens) == 6
        assert len(golden_trace.defining_ideal.gens) == 9
        assert golden_trace.partial_ideal(2) is golden_trace.partial_ideal(2)

    def test_generators_layout(self, golden_trace, golden):
        gens = golden_trace.generators()
        assert len(gens) == 9
        assert gens[5] == golden.equation
        assert gens[6:] == golden_trace.gcds

    def test_to_dict(self, golden_trace):
        doc = golden_trace.to_dict()
        assert len(doc["gcds"]) == 3
        assert doc["bidegrees"] == [[2, 3], [1, 6], [0, 9]]
        assert len(doc["generators"]) == 9

    @pytest.mark.parametrize("rule", ["min", "max"])
    def test_zero_propagation(self, rule):
        # the first gcd vanishes; every later step appends the column of
        # the zero gcd, a zero column, so its gcd vanishes too
        inst = degenerate_example()
        trace = gcd_iterations(inst, rule)
        ring = trace.ring
        assert all(g.is_zero for g in trace.gcds)
        assert all(s.bidegree is None for s in trace.steps)
        zero_step = iteration_matrix(trace.dual, ring.zero, rule)
        assert [s.matrix == zero_step for s in trace.steps] == [
            False, True, True]
        assert trace.defining_ideal.equals(trace.base_ideal)
        witness = verify_main_theorem(inst, trace).find(
            "nonvanishing-gcds").witness
        assert witness == "vanished at steps [1, 2, 3]"

    @pytest.mark.parametrize("m,seed", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_max_rule_steps_obey_factorization_laws(self, m, seed):
        # every column deletion of every step matrix, by Bareiss
        inst = random_instance(4, m, seed=seed)
        ring = inst.ring
        trace = gcd_iterations(inst, "max")
        for i, step in enumerate(trace.steps, 1):
            assert tuple(step.bidegree) == (m - i, 3 * i)
            raw = bareiss.det(delete_column(step.matrix, 1)).exact_div(
                ring.T(1))
            assert raw is not None and raw.monic() == step.gcd
            for j in range(2, 6):
                expected = ring.T(j) * raw
                if j % 2 == 0:
                    expected = -expected
                assert bareiss.det(delete_column(step.matrix, j)) == expected
            assert bareiss.det(delete_column(step.matrix, 6)).is_zero

    def test_broken_alternation_trips_factorization_guard(self):
        rows = [list(r) for r in GOLDEN_MATRIX]
        rows[0][1] = "x1 + x3"
        inst = InstanceSpec(32003, 4, rows, "x5^3")
        with pytest.raises(IterationError):
            gcd_iterations(inst)


class TestMainTheorem:
    def test_golden_all_pass(self, golden, golden_trace):
        rep = verify_main_theorem(golden, golden_trace)
        assert rep.ok
        assert [c.check_id for c in rep.checks] == [
            "saturation-identity", "colon-power-identity",
            "colon-power-strictness", "nonvanishing-gcds"]

    def test_strictness_vacuous_at_degree_one(self):
        inst = InstanceSpec(32003, 4, GOLDEN_MATRIX, "x5")
        trace = gcd_iterations(inst)
        rep = verify_main_theorem(inst, trace)
        assert rep.ok
        strict = rep.find("colon-power-strictness")
        assert strict.status == "pass"
        assert "vacuous" in strict.witness

    def test_degenerate_instance_reported(self):
        inst = degenerate_example()
        trace = gcd_iterations(inst)
        rep = verify_main_theorem(inst, trace)
        assert rep.find("nonvanishing-gcds").status == "fail"


class TestWellDefinedness:
    def test_golden_rules_coincide(self, golden, golden_trace):
        rep = verify_well_definedness(golden, golden_trace)
        assert rep.ok
        # every golden column only involves x5, so both rules agree
        for c in rep.checks:
            assert c.data["identical_gcd"]

    def test_random_instance_rules_agree(self):
        inst = random_instance(4, 2, seed=3)
        assert verify_well_definedness(inst, gcd_iterations(inst)).ok


class TestMinimality:
    def test_golden_counts(self, golden_trace):
        rep = minimality_and_invariants(golden_trace)
        assert rep.ok
        assert rep.find("generator-minimality").data == {
            "generators": 9, "expected": 9}
        assert rep.find("relation-type").data == {
            "relation_type": 9, "expected": 9}

    def test_golden_fiber_equation(self, golden_trace, fiber):
        rep = minimality_and_invariants(golden_trace)
        found = rep.find("fiber-equation")
        assert found.status == "pass"
        assert found.data["fiber_equation"] == str((fiber ** 3).monic())
        assert found.data["degree"] == 9

    def test_graded_shortcut_matches_naive_route(self, golden_trace):
        gens = list(golden_trace.generators())
        assert redundant_generators(golden_trace.ring, gens) == []

    def test_naive_route_flags_planted_redundancy(self, golden_trace):
        ring = golden_trace.ring
        gens = list(golden_trace.generators())
        planted = gens + [gens[0] + gens[1]]
        flagged = redundant_generators(ring, planted)
        assert len(planted) - 1 in flagged

    def test_random_counts(self):
        inst = random_instance(4, 2, seed=1)
        rep = minimality_and_invariants(gcd_iterations(inst))
        assert rep.ok
        assert rep.find("generator-minimality").data["generators"] == 8
        assert rep.find("relation-type").data["relation_type"] == 6


@pytest.fixture(scope="module")
def degree_one():
    return InstanceSpec(32003, 4, GOLDEN_MATRIX, "x5")


class TestDegreeOneRecovery:
    def test_hypotheses_pass(self, degree_one):
        assert check_hypotheses(degree_one).ok

    def test_single_step_gives_fiber_cubic(self, degree_one, fiber):
        trace = gcd_iterations(degree_one)
        assert len(trace.steps) == 1
        assert trace.gcds[0] == fiber

    def test_gcd_of_reduced_dual_minors(self, degree_one, fiber):
        # brute force: the gcd divides all maximal minors of the reduced
        # dual with coprime quotients, hence is their gcd up to a unit
        trace = gcd_iterations(degree_one)
        reduced = delete_row(trace.dual, 5)
        for j in range(1, 6):
            minor = det(delete_column(reduced, j))
            quotient = minor.exact_div(trace.gcds[0])
            assert quotient is not None
            assert quotient.monic() == degree_one.ring.T(j)


class TestStructuralChecks:
    def test_golden_passes_in_given_coordinates(self, golden, fiber):
        rep = optional_structural_checks(gcd_iterations(golden))
        assert rep.ok
        cramer = rep.find("reduced-cramer-containment")
        assert cramer.data["attempt"] == 0
        assert cramer.data["reduced_gcd"] == str(fiber)
        assert rep.find("dual-minor-height").data["height"] >= 2

    def test_random_instance_passes(self):
        inst = random_instance(4, 1, seed=2)
        assert optional_structural_checks(gcd_iterations(inst)).ok


class TestRandomInstances:
    def test_deterministic(self):
        a = random_instance(4, 2, seed=7)
        b = random_instance(4, 2, seed=7)
        assert a.to_dict() == b.to_dict()

    def test_seeds_differ(self):
        a = random_instance(4, 1, seed=0)
        b = random_instance(4, 1, seed=1)
        assert a.to_dict() != b.to_dict()

    def test_prime_independent_sources(self):
        a = random_instance(4, 2, p=32003, seed=4)
        b = random_instance(4, 2, p=65537, seed=4)
        assert a.matrix_src == b.matrix_src
        assert a.equation_src == b.equation_src

    def test_validation(self):
        with pytest.raises(ValueError):
            random_instance(3, 1)
        with pytest.raises(ValueError):
            random_instance(2, 1)
        with pytest.raises(ValueError):
            random_instance(4, 0)

    def test_sampler_reports_attempts(self):
        drawn = sample_random_instances(4, 1, 2, seed=0)
        assert len(drawn) == 2
        assert all(attempts >= 1 for _, attempts, _ in drawn)
        assert all(report.ok for _, _, report in drawn)
        assert drawn[0][0].to_dict() == random_instance(4, 1,
                                                        seed=0).to_dict()

    def test_accepted_instance_passes_hypotheses(self):
        inst = random_instance(4, 3, seed=0)
        assert check_hypotheses(inst).ok

    def test_full_verification_of_cheap_instance(self):
        inst = random_instance(4, 1, seed=6)
        trace = gcd_iterations(inst)
        assert verify_main_theorem(inst, trace).ok
        assert verify_well_definedness(inst, trace).ok
        assert minimality_and_invariants(trace).ok


class TestInternals:
    def test_rank_mod(self):
        ring = PolyRing.get(5, 1)

        def rank(*srcs):
            return len(ring.span_basis([ring.parse(s) for s in srcs]))

        assert rank("x1", "x2") == 2
        assert rank("x1 + 2*x2", "2*x1 + 4*x2") == 1
        assert rank("5*x1", "5*x2") == 0
        assert rank() == 0

    def test_span_basis_collapses_dependence(self):
        ring = PolyRing.get(32003, 1)
        a = ring.parse("x1 + x2")
        b = ring.parse("x1 - x2")
        basis = ring.span_basis([a, b, a + b, ring.zero])
        assert len(basis) == 2
        assert Ideal(ring, basis).equals(Ideal(ring, [a, b]))

    def test_span_basis_empty(self):
        ring = PolyRing.get(32003, 1)
        assert ring.span_basis([ring.zero]) == []
