"""Beliefs, risk measures, and game assembly."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogames import (
    AgentId,
    Belief,
    IndeterminateValue,
    Objective,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    Sense,
    apply_risk,
    build_wmodel,
    make_dirac,
    make_wgame,
)
from infogames.spaces import make_product_space
from conftest import small_factor

INF = math.inf


def nature_space(*sizes):
    return make_product_space([small_factor(f"n{i}", s) for i, s in enumerate(sizes)])


class TestDirac:
    def test_size_one_factor(self):
        f = small_factor("n", 1)
        assert make_dirac(f, 0) == (1.0,)

    def test_vector_shape(self):
        f = small_factor("n", 4)
        assert make_dirac(f, 2) == (0.0, 0.0, 1.0, 0.0)

    def test_by_label(self):
        f = small_factor("n", 3)
        assert make_dirac(f, "n1") == (0.0, 1.0, 0.0)

    def test_out_of_range_rejected(self):
        f = small_factor("n", 2)
        with pytest.raises(ValueError):
            make_dirac(f, 5)


class TestBeliefMass:
    def test_product_of_uniforms(self):
        space = nature_space(2, 3)
        b = Belief.product(space, [(0.5, 0.5), (1 / 3, 1 / 3, 1 / 3)])
        for omega in space.points():
            assert b.mass(omega) == pytest.approx(1 / 6, abs=1e-12)

    def test_product_with_dirac_is_zero_off_slice(self):
        space = nature_space(2, 2)
        b = Belief.product(space, [(1.0, 0.0), (0.3, 0.7)])
        assert b.mass((1, 0)) == 0.0
        assert b.mass((1, 1)) == 0.0
        assert b.mass((0, 1)) == pytest.approx(0.7)

    def test_joint_reads_back(self):
        space = nature_space(2)
        b = Belief.joint_over(space, (0.25, 0.75))
        assert b.mass((0,)) == 0.25
        assert b.mass((1,)) == 0.75

    def test_masses_sum_to_one(self):
        rng = random.Random(1)
        space = nature_space(3, 4)
        raw = [rng.random() for _ in range(space.size)]
        s = sum(raw)
        joint = Belief.joint_over(space, [r / s for r in raw])
        prod = Belief.product(space, [(0.2, 0.3, 0.5), (0.1, 0.2, 0.3, 0.4)])
        for b in (joint, prod):
            total = math.fsum(b.mass(w) for w in space.points())
            assert abs(total - 1.0) < 1e-9

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_masses_vector_is_joint_or_factor_product(self, sizes, rng):
        space = nature_space(*sizes)
        vectors = []
        for n in sizes:
            raw = [rng.randint(1, 9) for _ in range(n)]
            vectors.append([r / sum(raw) for r in raw])
        prod = Belief.product(space, vectors)
        expected = []
        for omega in space.points():
            m = 1.0
            for coord, vec in zip(omega, prod.factors):
                m *= vec[coord]
            expected.append(m)
        assert prod.masses == tuple(expected)
        joint = Belief.joint_over(space, expected)
        assert joint.masses == joint.joint

    def test_invalid_vectors_rejected(self):
        space = nature_space(2)
        with pytest.raises(ValueError):
            Belief.joint_over(space, (0.5, 0.6))
        with pytest.raises(ValueError):
            Belief.joint_over(space, (-0.1, 1.1))
        with pytest.raises(ValueError):
            Belief.product(space, [(0.5, 0.5), (1.0,)])


class TestApplyRisk:
    def test_expectation_under_dirac_is_plugin(self):
        space = nature_space(3)
        b = Belief.product(space, [make_dirac(space.factors[0], 1)])
        risk = RiskMeasure.expectation(b)
        assert apply_risk(risk, [5.0, -2.5, 7.0], Sense.COST) == -2.5

    def test_cvar_alpha_one_is_expectation(self):
        space = nature_space(4)
        b = Belief.joint_over(space, (0.1, 0.2, 0.3, 0.4))
        values = [1.0, -3.0, 2.5, 0.25]
        e = apply_risk(RiskMeasure.expectation(b), values, Sense.COST)
        c = apply_risk(RiskMeasure.cvar(1.0, b), values, Sense.COST)
        assert c == pytest.approx(e, abs=1e-12)

    def test_cvar_half_of_uniform_1234(self):
        # Sort-and-average oracle: worst half of {1,2,3,4} is {4,3}.
        space = nature_space(4)
        b = Belief.uniform(space)
        got = apply_risk(RiskMeasure.cvar(0.5, b), [1.0, 2.0, 3.0, 4.0], Sense.COST)
        assert got == pytest.approx(3.5, abs=1e-12)

    def test_cvar_fractional_boundary_atom(self):
        # alpha=0.3 on uniform {1,2,3,4}: 0.25 of the 4 plus 0.05 of the 3,
        # averaged over 0.3.
        space = nature_space(4)
        b = Belief.uniform(space)
        got = apply_risk(RiskMeasure.cvar(0.3, b), [1.0, 2.0, 3.0, 4.0], Sense.COST)
        assert got == pytest.approx((0.25 * 4 + 0.05 * 3) / 0.3, abs=1e-12)

    def test_payoff_adverse_tail_is_low_values(self):
        space = nature_space(4)
        b = Belief.uniform(space)
        got = apply_risk(RiskMeasure.cvar(0.5, b), [1.0, 2.0, 3.0, 4.0], Sense.PAYOFF)
        assert got == pytest.approx(1.5, abs=1e-12)

    def test_worst_case_ranges_over_support_only(self):
        space = nature_space(3)
        b = Belief.joint_over(space, (0.5, 0.5, 0.0))
        values = [1.0, 2.0, 99.0]
        assert apply_risk(RiskMeasure.worst_case(b), values, Sense.COST) == 2.0
        assert apply_risk(RiskMeasure.worst_case(), values, Sense.COST) == 99.0
        assert apply_risk(RiskMeasure.worst_case(b), values, Sense.PAYOFF) == 1.0

    def test_adverse_infinity_dominates_expectation(self):
        space = nature_space(2)
        b = Belief.uniform(space)
        risk = RiskMeasure.expectation(b)
        assert apply_risk(risk, [1.0, INF], Sense.COST) == INF
        assert apply_risk(risk, [1.0, -INF], Sense.PAYOFF) == -INF

    def test_zero_mass_infinity_ignored(self):
        space = nature_space(2)
        b = Belief.joint_over(space, (1.0, 0.0))
        risk = RiskMeasure.expectation(b)
        assert apply_risk(risk, [3.0, INF], Sense.COST) == 3.0

    def test_both_infinities_is_indeterminate(self):
        space = nature_space(2)
        b = Belief.uniform(space)
        with pytest.raises(IndeterminateValue):
            apply_risk(RiskMeasure.expectation(b), [INF, -INF], Sense.COST)

    @pytest.mark.parametrize(
        "measure,message",
        [
            (RiskMeasure.expectation, "both +inf and -inf carry positive mass"),
            (lambda b: RiskMeasure.cvar(1.0, b), "both +inf and -inf lie in the adverse tail"),
        ],
        ids=["expectation", "cvar"],
    )
    def test_indeterminate_value_messages(self, measure, message):
        risk = measure(Belief.uniform(nature_space(3)))
        with pytest.raises(IndeterminateValue) as info:
            apply_risk(risk, [INF, 1.0, -INF], Sense.COST)
        assert str(info.value) == message

    def test_alpha_validation(self):
        space = nature_space(2)
        b = Belief.uniform(space)
        with pytest.raises(ValueError):
            RiskMeasure.cvar(0.0, b)
        with pytest.raises(ValueError):
            RiskMeasure.cvar(1.5, b)


@st.composite
def table_and_belief(draw, size=5):
    values = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=size,
            max_size=size,
        )
    )
    raw = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    s = sum(raw)
    return values, tuple(r / s for r in raw)


@given(table_and_belief(), table_and_belief(), st.floats(0, 5), st.floats(0, 5))
@settings(max_examples=80, deadline=None)
def test_expectation_is_linear(tb_v, tb_w, a, b):
    values, masses = tb_v
    other, _ = tb_w
    space = nature_space(5)
    belief = Belief.joint_over(space, masses)
    risk = RiskMeasure.expectation(belief)
    lhs = apply_risk(risk, [a * v + b * w for v, w in zip(values, other)], Sense.COST)
    rhs = a * apply_risk(risk, values, Sense.COST) + b * apply_risk(risk, other, Sense.COST)
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))


@given(table_and_belief(), st.floats(0.05, 1), st.floats(0.05, 1))
@settings(max_examples=80, deadline=None)
def test_cvar_monotone_toward_expectation(tb, alpha1, alpha2):
    values, masses = tb
    space = nature_space(5)
    belief = Belief.joint_over(space, masses)
    lo, hi = min(alpha1, alpha2), max(alpha1, alpha2)
    c_lo = apply_risk(RiskMeasure.cvar(lo, belief), values, Sense.COST)
    c_hi = apply_risk(RiskMeasure.cvar(hi, belief), values, Sense.COST)
    assert c_lo >= c_hi - 1e-9
    e = apply_risk(RiskMeasure.expectation(belief), values, Sense.COST)
    c_one = apply_risk(RiskMeasure.cvar(1.0, belief), values, Sense.COST)
    assert c_one == pytest.approx(e, abs=1e-9)


@given(table_and_belief(), st.floats(0.05, 1))
@settings(max_examples=80, deadline=None)
def test_worst_case_dominates(tb, alpha):
    values, masses = tb
    space = nature_space(5)
    belief = Belief.joint_over(space, masses)
    w = apply_risk(RiskMeasure.worst_case(belief), values, Sense.COST)
    c = apply_risk(RiskMeasure.cvar(alpha, belief), values, Sense.COST)
    e = apply_risk(RiskMeasure.expectation(belief), values, Sense.COST)
    assert w >= c - 1e-9
    assert c >= e - 1e-9


class TestTies:
    """``Sense.ties``, the tie rule of every best-response set."""

    def test_none_entries_are_neither_best_nor_tied(self):
        assert Sense.COST.ties([3.0, None, 1.0, 1.0]) == (1.0, [False, None, True, True])
        assert Sense.PAYOFF.ties([None, 3.0, 1.0, 3.0]) == (3.0, [None, True, False, True])

    def test_all_none(self):
        for sense in Sense:
            assert sense.ties([None, None]) == (None, [None, None])
            assert sense.ties([]) == (None, [])

    def test_adverse_infinity(self):
        for sense in Sense:
            adverse = sense.adverse
            assert sense.ties([adverse, None, adverse]) == (adverse, [True, None, True])
            assert sense.ties([adverse, 0.0]) == (0.0, [False, True])

    def test_signed_zeros_tie_and_the_best_keeps_the_first_sign(self):
        for sense in Sense:
            for first, second in ((0.0, -0.0), (-0.0, 0.0)):
                best, flags = sense.ties([None, first, second, sense.adverse])
                assert flags == [None, True, True, False]
                assert math.copysign(1.0, best) == math.copysign(1.0, first)


class TestObjective:
    def test_favorable_infinity_rejected(self):
        with pytest.raises(ValueError):
            Objective("p", Sense.COST, (-INF,))
        with pytest.raises(ValueError):
            Objective("p", Sense.PAYOFF, (INF,))

    def test_adverse_infinity_allowed(self):
        Objective("p", Sense.COST, (INF, 1.0))
        Objective("p", Sense.PAYOFF, (-INF, 1.0))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Objective("p", Sense.COST, (float("nan"),))

    def test_overflowing_sum_is_not_nan(self):
        # -1e308 + -1e308 + inf sums to NaN without any NaN in the table.
        Objective("p", Sense.COST, (-1e308, -1e308, INF))
        with pytest.raises(ValueError, match="must not be NaN"):
            Objective("p", Sense.COST, (-1e308, -1e308, INF, float("nan")))

    def test_favorable_infinity_reported_before_nan(self):
        with pytest.raises(ValueError, match="the favorable infinity"):
            Objective("p", Sense.COST, (float("nan"), -INF))


class TestMakeWGame:
    def _model(self):
        w = small_factor("w", 1)
        a, b = AgentId("a"), AgentId("b")
        ua, ub = small_factor("ua", 2, "action"), small_factor("ub", 2, "action")
        return build_wmodel([w], [a, b], {a: ua, b: ub}, {a: (), b: ()})

    def test_missing_player_data_rejected(self):
        model = self._model()
        a, b = model.agents
        players = PlayerPartition(("p", "q"), {a: "p", b: "q"})
        belief = Belief.uniform(model.nature_space)
        data = {
            "p": PlayerData(
                Objective("p", Sense.COST, (0.0,) * 4), RiskMeasure.expectation(belief)
            )
        }
        with pytest.raises(ValueError, match="missing data"):
            make_wgame(model, players, data)

    def test_partition_must_cover_agents(self):
        model = self._model()
        a, b = model.agents
        players = PlayerPartition(("p",), {a: "p"})
        belief = Belief.uniform(model.nature_space)
        data = {
            "p": PlayerData(
                Objective("p", Sense.COST, (0.0,) * 4), RiskMeasure.expectation(belief)
            )
        }
        with pytest.raises(ValueError, match="cover"):
            make_wgame(model, players, data)

    def test_player_grouping_two_agents_one_player(self):
        model = self._model()
        a, b = model.agents
        players = PlayerPartition(("p",), {a: "p", b: "p"})
        belief = Belief.uniform(model.nature_space)
        data = {
            "p": PlayerData(
                Objective("p", Sense.COST, (0.0,) * 4), RiskMeasure.expectation(belief)
            )
        }
        game = make_wgame(model, players, data)
        assert game.agents_of("p") == (a, b)
