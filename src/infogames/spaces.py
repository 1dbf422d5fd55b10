"""Finite product spaces and partitions used as information structures.

A :class:`ProductSpace` is an ordered list of finite factors; its points are
tuples of per-factor element indices, enumerated in row-major order (last
factor varies fastest).  A :class:`Partition` labels every point with an atom
id; on finite sets a partition carries exactly the same data as the sigma-field
it generates, so inclusion (:func:`refines`) reduces to a linear scan over
points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

FACTOR_KINDS = ("nature-exogenous", "nature-type", "action")

Point = tuple[int, ...]


@dataclass(frozen=True)
class FiniteFactor:
    """One finite coordinate of a product space.

    ``kind`` records what the factor houses: an exogenous chunk of Nature,
    a player's private type, or an agent's action set.
    """

    id: str
    label: str
    elements: tuple[str, ...]
    kind: str

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError(f"factor {self.id!r} must have at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"factor {self.id!r} has duplicate element labels")
        if self.kind not in FACTOR_KINDS:
            raise ValueError(f"factor {self.id!r} has unknown kind {self.kind!r}")

    @property
    def size(self) -> int:
        return len(self.elements)

    def element_index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise ValueError(f"factor {self.id!r} has no element {label!r}") from None


@dataclass(frozen=True)
class ProductSpace:
    """Ordered product of finite factors with row-major point enumeration."""

    factors: tuple[FiniteFactor, ...]
    # Strides for index arithmetic and the point count; derived from factors,
    # excluded from equality so two spaces are equal iff their factors are.
    _strides: tuple[int, ...] = field(init=False, compare=False, repr=False)
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        strides = []
        acc = 1
        for f in reversed(self.factors):
            strides.append(acc)
            acc *= f.size
        object.__setattr__(self, "_strides", tuple(reversed(strides)))
        object.__setattr__(self, "size", acc)

    @functools.cached_property
    def _axis_indexes(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The memo of :meth:`axis_index`, keyed by axes without size-1
        factors; kept while the space lives, out of equality and hashing."""
        return {}

    def factor_index(self, factor_id: str) -> int:
        for i, f in enumerate(self.factors):
            if f.id == factor_id:
                return i
        raise ValueError(f"unknown factor id {factor_id!r}")

    def points(self) -> Iterator[Point]:
        """All points in row-major order (last factor fastest)."""
        return itertools.product(*(range(f.size) for f in self.factors))

    def point_index(self, point: Sequence[int]) -> int:
        if len(point) != len(self.factors):
            raise ValueError(
                f"point has {len(point)} coordinates, space has {len(self.factors)}"
            )
        idx = 0
        for coord, f, stride in zip(point, self.factors, self._strides):
            if not 0 <= coord < f.size:
                raise ValueError(f"coordinate {coord} out of range for factor {f.id!r}")
            idx += coord * stride
        return idx

    def point_at(self, index: int) -> Point:
        if not 0 <= index < self.size:
            raise ValueError(f"point index {index} out of range")
        coords = []
        for stride in self._strides:
            coords.append(index // stride)
            index %= stride
        return tuple(coords)

    def axis_index(self, axes: Sequence[int]) -> tuple[int, ...]:
        """For every flat point, the row-major index of its coordinates on
        ``axes`` (distinct factor positions in any order, the last fastest).

        A size-1 factor adds nothing to the index, so each index is built
        once per space under its axes without those factors, kept while the
        space lives, and returned as that one shared tuple on every call."""
        if len(set(axes)) != len(axes):
            raise ValueError("axes must be distinct")
        n = len(self.factors)
        for axis in axes:
            if not 0 <= axis < n:
                raise ValueError(f"axis {axis} out of range for {n} factors")
        key = tuple(axis for axis in axes if self.factors[axis].size > 1)
        index = self._axis_indexes.get(key)
        if index is None:
            weight, acc = {}, 1
            for axis in reversed(key):
                weight[axis] = acc
                acc *= self.factors[axis].size
            # Expand a head and a tail of about sqrt(size) entries each, then
            # combine them in one full-size pass.
            head, tail, size = [0], [0], self.size
            for axis, f in enumerate(self.factors):
                steps = [c * weight.get(axis, 0) for c in range(f.size)]
                if len(head) ** 2 < size:
                    head = [i + s for i in head for s in steps]
                else:
                    tail = [i + s for i in tail for s in steps]
            index = self._axis_indexes[key] = tuple([h + t for h in head for t in tail])
        return index

    def point_labels(self, point: Sequence[int]) -> tuple[str, ...]:
        return tuple(f.elements[c] for f, c in zip(self.factors, point))


def make_product_space(factors: Iterable[FiniteFactor]) -> ProductSpace:
    """Assemble a product space, rejecting duplicate ids and empty input."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("a product space needs at least one factor")
    ids = [f.id for f in factors]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise ValueError(f"duplicate factor id {dup!r}")
    return ProductSpace(factors)


@dataclass(frozen=True)
class Partition:
    """A partition of a product space, canonically labelled.

    Atom ids are renumbered by first occurrence in point enumeration order,
    so two partitions of the same space are equal iff their ``atom_of``
    tables are equal.
    """

    space: ProductSpace
    atom_of: tuple[int, ...]
    atom_count: int

    def __post_init__(self):
        if len(self.atom_of) != self.space.size:
            raise ValueError("atom table length does not match space size")

    @staticmethod
    def from_labels(space: ProductSpace, labels: Sequence) -> "Partition":
        """Build a partition from arbitrary hashable per-point labels."""
        if len(labels) != space.size:
            raise ValueError("label sequence length does not match space size")
        canon: dict = {}
        atom_of = []
        for lab in labels:
            if lab not in canon:
                canon[lab] = len(canon)
            atom_of.append(canon[lab])
        return Partition(space, tuple(atom_of), len(canon))

    def atoms(self) -> list[list[int]]:
        """Point indices grouped by atom, in atom-id order."""
        groups: list[list[int]] = [[] for _ in range(self.atom_count)]
        for idx, a in enumerate(self.atom_of):
            groups[a].append(idx)
        return groups


def cylinder_partition(space: ProductSpace, visible: Iterable[str]) -> Partition:
    """Partition where two points share an atom iff they agree on every
    visible factor.  Hidden factors contribute the trivial field."""
    axes = sorted({space.factor_index(v) for v in visible})
    # First-occurrence labels in row-major order are the mixed-radix indices
    # of the visible coordinates.
    count = math.prod(space.factors[i].size for i in axes)
    return Partition(space, space.axis_index(axes), count)


def axis_witnesses(partition: Partition) -> Iterator[tuple[int, int, int]]:
    """The axes the partition observes, each with its first witness pair.

    Yields ``(axis, base, index)`` in axis order for every axis along which
    two points differing only on that axis lie in different atoms.  ``base``
    and ``index`` are the flat indices of the first such pair in point order;
    ``base`` has coordinate 0 on the axis.
    """
    space, atom_of = partition.space, partition.atom_of
    for axis, (f, stride) in enumerate(zip(space.factors, space._strides)):
        if f.size == 1:
            continue
        block = stride * f.size
        for outer in range(0, space.size, block):
            # The block's coordinate slices all agree iff each equals the next.
            if atom_of[outer + stride : outer + block] != atom_of[outer : outer + block - stride]:
                first = atom_of[outer : outer + stride]
                start = next(
                    s
                    for s in range(outer + stride, outer + block, stride)
                    if atom_of[s : s + stride] != first
                )
                j = next(j for j in range(stride) if atom_of[start + j] != first[j])
                yield axis, outer + j, start + j
                break


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every atom of ``fine`` lies inside a single atom of ``coarse``
    (the field generated by ``coarse`` is then a subfield of ``fine``'s)."""
    if fine.space != coarse.space:
        raise ValueError("partitions are over different spaces")
    rep: list[int | None] = [None] * fine.atom_count
    for f_atom, c_atom in zip(fine.atom_of, coarse.atom_of):
        if rep[f_atom] is None:
            rep[f_atom] = c_atom
        elif rep[f_atom] != c_atom:
            return False
    return True
