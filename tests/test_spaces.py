"""Finite product spaces and partition primitives."""

import itertools
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infogames import (
    FiniteFactor,
    Objective,
    Partition,
    Sense,
    cylinder_partition,
    make_product_space,
    refines,
)
from conftest import small_factor


def space_of(*sizes):
    return make_product_space([small_factor(f"f{i}", s) for i, s in enumerate(sizes)])


class TestProductSpace:
    def test_three_binary_factors_give_eight_points(self):
        space = space_of(2, 2, 2)
        assert space.size == 8
        assert len(list(space.points())) == 8

    def test_single_point_space(self):
        space = space_of(1)
        assert space.size == 1
        assert list(space.points()) == [(0,)]

    def test_row_major_enumeration(self):
        space = space_of(3, 2)
        pts = list(space.points())
        assert len(pts) == 6
        assert pts[-1] == (2, 1)
        for i, pt in enumerate(pts):
            assert space.point_index(pt) == i
            assert space.point_at(i) == pt

    def test_duplicate_factor_id_rejected(self):
        f = small_factor("dup", 2)
        with pytest.raises(ValueError, match="duplicate"):
            make_product_space([f, f])

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            FiniteFactor("empty", "empty", (), "action")

    def test_no_factors_rejected(self):
        with pytest.raises(ValueError):
            make_product_space([])


class TestCylinder:
    def test_empty_visible_set_is_trivial(self):
        space = space_of(2, 3)
        part = cylinder_partition(space, [])
        assert part.atom_count == 1
        assert part == Partition(space, (0,) * space.size, 1)

    def test_all_visible_is_singletons(self):
        space = space_of(2, 3)
        part = cylinder_partition(space, ["f0", "f1"])
        assert part == Partition(space, tuple(range(space.size)), space.size)

    def test_one_visible_binary_factor_in_2x2x2(self):
        # Two atoms of four points each: the middle panel of the
        # three-information-fields picture.
        space = space_of(2, 2, 2)
        part = cylinder_partition(space, ["f1"])
        assert part.atom_count == 2
        atoms = part.atoms()
        assert sorted(len(a) for a in atoms) == [4, 4]
        for atom in atoms:
            coords = {space.point_at(i)[1] for i in atom}
            assert len(coords) == 1

    def test_unknown_factor_rejected(self):
        space = space_of(2)
        with pytest.raises(ValueError, match="unknown factor"):
            cylinder_partition(space, ["nope"])


def row_major(pt, axes, sizes):
    idx = 0
    for a in axes:
        idx = idx * sizes[a] + pt[a]
    return idx


factor_sizes = st.lists(st.integers(1, 3), min_size=1, max_size=6)


class TestStrideBuilt:
    """``axis_index``, the stride-built cylinder and ``Objective.from_terms``
    against per-point oracles."""

    @given(factor_sizes, st.lists(st.integers(0, 5), max_size=7))
    @example(sizes=[1, 2, 1], visible=[])
    @example(sizes=[2, 1, 3], visible=[0, 1, 2])
    @example(sizes=[3, 2], visible=[1, 1, 0, 1])
    @example(sizes=[1], visible=[0])
    @settings(max_examples=80, deadline=None)
    def test_cylinder_matches_first_occurrence_labels(self, sizes, visible):
        space = space_of(*sizes)
        ids = [f"f{v % len(sizes)}" for v in visible]
        axes = sorted({v % len(sizes) for v in visible})
        oracle = Partition.from_labels(space, [tuple(pt[i] for i in axes) for pt in space.points()])
        part = cylinder_partition(space, ids)
        assert part == oracle
        assert part.atom_count == oracle.atom_count

    @given(factor_sizes.flatmap(lambda sizes: st.tuples(
        st.just(sizes), st.permutations(range(len(sizes))), st.integers(0, len(sizes)))))
    @settings(max_examples=80, deadline=None)
    def test_axis_index_is_row_major_over_axes(self, spec):
        sizes, order, k = spec
        space = space_of(*sizes)
        axes = list(order[:k])
        assert space.axis_index(axes) == tuple(row_major(pt, axes, sizes) for pt in space.points())

    def test_axis_index_rejects_repeated_axes(self):
        with pytest.raises(ValueError, match="distinct"):
            space_of(2, 2).axis_index([1, 1])
        # Also when the repeated factor has one element, which the memo key
        # would drop.
        with pytest.raises(ValueError, match="distinct"):
            space_of(2, 1).axis_index([1, 1])

    @pytest.mark.parametrize("axes", [[-1], [3], [5], [0, -3]])
    def test_axis_index_rejects_axes_outside_the_space(self, axes):
        with pytest.raises(ValueError, match="out of range"):
            space_of(2, 1, 3).axis_index(axes)

    def test_from_terms_rejects_axes_outside_the_space(self):
        # A negative axis once read the last factor's size for the length
        # check and then tabulated table[0] at every point.
        with pytest.raises(ValueError, match="out of range"):
            Objective.from_terms(space_of(2, 3), "p", Sense.COST, [((-1,), [1.0, 2.0, 3.0])])
        with pytest.raises(ValueError, match="out of range"):
            Objective.from_terms(space_of(2, 3), "p", Sense.COST, [((5,), [1.0])])

    def test_axis_index_is_one_shared_tuple(self):
        # Built once per space and axes, immutable, and held by the cylinder
        # partition over those axes without a copy.
        space = space_of(2, 1, 3)
        first = space.axis_index([0, 2])
        assert first == (0, 1, 2, 3, 4, 5)
        assert space.axis_index([0, 2]) is first
        assert space.axis_index([0, 1, 2]) is first
        assert cylinder_partition(space, ["f2", "f0"]).atom_of is first
        with pytest.raises(TypeError):
            first[0] = 99

    @given(factor_sizes.flatmap(lambda sizes: st.tuples(
        st.just(sizes), st.permutations(range(len(sizes))), st.integers(0, len(sizes)))))
    @settings(max_examples=80, deadline=None)
    def test_axis_index_ignores_one_element_factors(self, spec):
        sizes, order, k = spec
        space = space_of(*sizes)
        axes = list(order[:k])
        kept = [a for a in axes if sizes[a] > 1]
        expected = tuple(row_major(pt, kept, sizes) for pt in space.points())
        # Each order of the calls: the memo entry is built by either form.
        assert space.axis_index(axes) == expected
        assert space.axis_index(kept) == expected
        fresh = space_of(*sizes)
        assert fresh.axis_index(kept) == expected
        assert fresh.axis_index(axes) == expected

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_from_terms_sums_terms_in_order(self, data):
        sizes = data.draw(factor_sizes)
        space = space_of(*sizes)
        value = st.one_of(st.integers(-20, 20), st.floats(-1e6, 1e6, allow_nan=False))
        terms = []
        for _ in range(data.draw(st.integers(0, 4))):
            axes = data.draw(st.permutations(range(len(sizes))))[: data.draw(st.integers(0, len(sizes)))]
            n = math.prod(sizes[a] for a in axes)
            terms.append((axes, data.draw(st.lists(value, min_size=n, max_size=n))))
        oracle = []
        for pt in space.points():
            total = 0.0
            for axes, table in terms:
                total += table[row_major(pt, axes, sizes)]
            oracle.append(total)
        got = Objective.from_terms(space, "p", Sense.COST, terms).values
        assert [v.hex() for v in got] == [v.hex() for v in oracle]

    @given(st.data())
    @example(data=None)
    @settings(max_examples=150, deadline=None)
    def test_from_terms_matches_the_per_point_sum(self, data):
        """Every entry is the per-point left-to-right sum ``0.0 + term_1 +
        ...``, bit for bit, signed zeros included, when leading terms share
        their axes (summed on their own table) and when they do not; with a
        leading -0.0, the adverse infinity and sometimes the favorable one.
        Invalid axes and table lengths raise as a term-by-term check does.
        Without ``data``: two terms on the same axes, tables of -0.0."""
        if data is None:
            sizes, sense = [2], Sense.COST
            terms = [((0,), [-0.0, -0.0]), ((0,), [-0.0, 1.0])]
        else:
            sizes = data.draw(factor_sizes)
            sense = data.draw(st.sampled_from(Sense))
            pool = [data.draw(st.permutations(range(len(sizes)))) for _ in range(2)]
            pool = [p[: data.draw(st.integers(0, len(sizes)))] for p in pool]
            pool.append([len(sizes)] if data.draw(st.booleans()) else [0, 0])
            value = st.sampled_from([-0.0, 0.0, 1.5, -2.0, 3, 1e16, -1e16, sense.adverse])
            if data.draw(st.integers(0, 9)) == 0:
                value = st.one_of(value, st.just(-sense.adverse))
            terms = []
            for k in range(data.draw(st.integers(0, 4))):
                weights = [10, 10, 1] if k == 0 else [10, 10, 0]
                axes = data.draw(st.sampled_from([p for p, w in zip(pool, weights) for _ in range(w)]))
                n = math.prod(sizes[a] for a in axes) if all(0 <= a < len(sizes) for a in axes) else 1
                n += data.draw(st.sampled_from([0] * 20 + [1]))
                table = data.draw(st.lists(value, min_size=n, max_size=n))
                if k == 0 and table and data.draw(st.booleans()):
                    table[0] = -0.0
                terms.append((axes, table))
        space = space_of(*sizes)

        def per_point():
            for axes, table in terms:
                space.axis_index(axes)
                if len(table) != math.prod(sizes[a] for a in axes):
                    raise ValueError("term table length does not match its axes")
            sums = []
            for pt in space.points():
                total = 0.0
                for axes, table in terms:
                    total += table[row_major(pt, axes, sizes)]
                sums.append(total)
            return Objective("p", sense, tuple(sums))

        def outcome(build):
            try:
                return [struct.pack("d", v) for v in build().values]
            except ValueError as exc:
                return str(exc)

        fused = outcome(lambda: Objective.from_terms(space, "p", sense, terms))
        assert fused == outcome(per_point)

    def test_from_terms_single_term_over_all_axes(self):
        space = space_of(2, 3)
        table = [-0.0, 1.5, -2.0, 3, 0.1, 7.25]
        got = Objective.from_terms(space, "p", Sense.PAYOFF, [((0, 1), table)]).values
        assert [v.hex() for v in got] == [(0.0 + v).hex() for v in table]
        swapped = Objective.from_terms(space, "p", Sense.PAYOFF, [((1, 0), table)]).values
        assert swapped == tuple(float(table[pt[1] * 2 + pt[0]]) for pt in space.points())

    def test_from_terms_keeps_term_order(self):
        space = space_of(2)
        small, big, minus_big = ((0,), [1.0, 0.5]), ((), [1e16]), ((), [-1e16])
        forward = Objective.from_terms(space, "p", Sense.COST, [small, big, minus_big])
        backward = Objective.from_terms(space, "p", Sense.COST, [minus_big, big, small])
        assert forward.values == (0.0, 0.0)
        assert backward.values == (1.0, 0.5)

    def test_from_terms_without_terms_is_zero(self):
        got = Objective.from_terms(space_of(2, 1, 3), "p", Sense.COST, []).values
        assert [v.hex() for v in got] == [(0.0).hex()] * 6

    def test_from_terms_rejects_missized_table(self):
        with pytest.raises(ValueError, match="term table length"):
            Objective.from_terms(space_of(2, 3), "p", Sense.COST, [((1,), [0.0, 1.0])])


class TestRefines:
    def test_singleton_refines_everything(self):
        space = space_of(2, 2)
        fine = cylinder_partition(space, ["f0", "f1"])
        for ids in ([], ["f0"], ["f0", "f1"]):
            assert refines(fine, cylinder_partition(space, ids))

    def test_projection_coarsening(self):
        space = space_of(2, 3)
        assert refines(cylinder_partition(space, ["f0", "f1"]), cylinder_partition(space, ["f0"]))
        assert not refines(cylinder_partition(space, ["f0"]), cylinder_partition(space, ["f0", "f1"]))

    def test_crossing_partitions_refine_neither_way(self):
        space = space_of(2, 2)
        p = cylinder_partition(space, ["f0"])
        q = cylinder_partition(space, ["f1"])
        # Exhaustive containment check on the four points.
        for fine, coarse in ((p, q), (q, p)):
            contained = all(
                len({coarse.atom_of[i] for i in atom}) == 1 for atom in fine.atoms()
            )
            assert not contained
            assert refines(fine, coarse) == contained

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(ValueError, match="different spaces"):
            refines(cylinder_partition(space_of(2), []), cylinder_partition(space_of(3), []))


def meet_of(p, q):
    """The README recipe for the coarsest common refinement."""
    return Partition.from_labels(p.space, list(zip(p.atom_of, q.atom_of)))


def measurable(values, p):
    """The README recipe for measurability of a point map given by its values."""
    return refines(p, Partition.from_labels(p.space, values))


class TestCommonRefinement:
    def test_with_trivial_is_identity(self):
        space = space_of(2, 3)
        p = cylinder_partition(space, ["f1"])
        assert meet_of(p, cylinder_partition(space, [])) == p

    def test_idempotent(self):
        space = space_of(2, 3)
        p = cylinder_partition(space, ["f0"])
        assert meet_of(p, p) == p

    def test_cylinders_meet_by_point_pair_oracle(self):
        # Oracle: two points are equivalent in the meet iff they agree on f0
        # and on f1.
        space = space_of(2, 3)
        meet = meet_of(cylinder_partition(space, ["f0"]), cylinder_partition(space, ["f1"]))
        assert meet == cylinder_partition(space, ["f0", "f1"])
        pts = list(space.points())
        for i, j in itertools.combinations(range(len(pts)), 2):
            same_oracle = pts[i][0] == pts[j][0] and pts[i][1] == pts[j][1]
            assert (meet.atom_of[i] == meet.atom_of[j]) == same_oracle


def partitions(max_points=64):
    """Hypothesis strategy yielding (space, labels) pairs for one space."""
    return st.integers(2, 4).flatmap(
        lambda a: st.integers(2, 4).flatmap(
            lambda b: st.lists(
                st.integers(0, 5), min_size=a * b, max_size=a * b
            ).map(lambda labels: (a, b, labels))
        )
    )


@given(partitions(), partitions(), partitions())
@settings(max_examples=60, deadline=None)
def test_refines_is_a_partial_order(spec_p, spec_q, spec_r):
    a, b, labels_p = spec_p
    space = space_of(a, b)
    n = space.size
    p = Partition.from_labels(space, labels_p)
    q = Partition.from_labels(space, (spec_q[2] * n)[:n])
    r = Partition.from_labels(space, (spec_r[2] * n)[:n])
    assert refines(p, p)
    if refines(p, q) and refines(q, r):
        assert refines(p, r)
    # Antisymmetry up to relabeling: canonical labels make it literal equality.
    if refines(p, q) and refines(q, p):
        assert p == q


@given(partitions(), partitions(), partitions())
@settings(max_examples=60, deadline=None)
def test_common_refinement_is_coarsest(spec_p, spec_q, spec_r):
    """Labelling each point by its pair of atoms gives the meet."""
    a, b, labels_p = spec_p
    space = space_of(a, b)
    n = space.size
    p = Partition.from_labels(space, labels_p)
    q = Partition.from_labels(space, (spec_q[2] * n)[:n])
    r = Partition.from_labels(space, (spec_r[2] * n)[:n])
    meet = meet_of(p, q)
    assert refines(meet, p) and refines(meet, q)
    if refines(r, p) and refines(r, q):
        assert refines(r, meet)


@given(
    partitions(), st.lists(st.integers(0, 2), min_size=16, max_size=16), st.booleans()
)
@settings(max_examples=60, deadline=None)
def test_measurable_values_are_those_whose_partition_is_refined(spec, noise, by_atom):
    """A point map is constant on every atom of ``p`` iff ``p`` refines the
    partition by its values."""
    a, b, labels = spec
    space = space_of(a, b)
    p = Partition.from_labels(space, labels)
    if by_atom:
        values = [noise[atom] % 2 for atom in p.atom_of]
    else:
        values = noise[: space.size]
    constant = all(len({values[i] for i in atom}) == 1 for atom in p.atoms())
    assert measurable(values, p) == constant
    if by_atom:
        assert constant


@given(st.lists(st.booleans(), min_size=3, max_size=3), st.lists(st.booleans(), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_cylinder_monotone(mask_a, mask_b):
    space = space_of(2, 3, 2)
    ids = [f.id for f in space.factors]
    sub = {i for i, m in zip(ids, mask_a) if m}
    sup = sub | {i for i, m in zip(ids, mask_b) if m}
    assert refines(cylinder_partition(space, sup), cylinder_partition(space, sub))


class TestMeasurable:
    def test_everything_measurable_wrt_singletons(self, rng):
        space = space_of(2, 3)
        values = [rng.randint(0, 9) for _ in range(space.size)]
        assert measurable(values, cylinder_partition(space, ["f0", "f1"]))

    def test_nonconstant_not_measurable_wrt_trivial(self):
        space = space_of(2, 2)
        trivial = cylinder_partition(space, [])
        assert not measurable([pt[0] for pt in space.points()], trivial)
        assert measurable([7 for _ in space.points()], trivial)

    def test_projection_measurability_per_atom_scan(self):
        space = space_of(2, 3)
        proj0 = [pt[0] for pt in space.points()]
        assert measurable(proj0, cylinder_partition(space, ["f0"]))
        assert not measurable(proj0, cylinder_partition(space, ["f1"]))

    def test_measurability_survives_refinement(self, rng):
        space = space_of(2, 2, 2)
        part = cylinder_partition(space, ["f0"])
        values = [space.point_at(i)[0] for i in range(space.size)]
        assert measurable(values, part)
        finer = meet_of(part, cylinder_partition(space, ["f2"]))
        assert refines(finer, part)
        assert measurable(values, finer)
