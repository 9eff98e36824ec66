"""Relational-algebra expression trees.

This is the query language of the reproduced system: ERAM "uses relational
algebra expressions as its query language" (Section 5). An expression is an
immutable AST over:

* :class:`RelationRef` — a named base relation;
* :class:`Select` — selection with a :class:`~repro.relational.predicate.Predicate`;
* :class:`Project` — duplicate-eliminating projection;
* :class:`Join` — equi-join on attribute pairs;
* :class:`Intersect`, :class:`Union`, :class:`Difference` — set operations on
  attribute-compatible inputs.

The estimator pipeline (Section 2) needs three structural facts an
expression can report: its *operand relations* (the dimensions of the point
space), whether it contains a projection (which switches the estimator to
Goodman's), and whether it contains Union/Difference (which triggers the
inclusion–exclusion rewrite).

Use the module-level builders (:func:`rel`, :func:`select`, …) rather than
the dataclass constructors; they read like the algebra::

    expr = join(select(rel("orders"), cmp("qty", ">", 10)), rel("parts"),
                on=[("part_id", "pid")])

or chain the equivalent fluent methods, which build the identical tree::

    expr = (rel("orders").where(cmp("qty", ">", 10))
            .join(rel("parts"), on=[("part_id", "pid")]))
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.errors import ExpressionError
from repro.relational.predicate import Predicate


class Expression:
    """Abstract base of all RA expression nodes."""

    def schema(self, catalog: Catalog) -> Schema:
        """Resolve the output schema against ``catalog`` (validates)."""
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Structural queries used by the estimation pipeline
    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Expression"]:
        """Pre-order traversal of the tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def base_relations(self) -> list[str]:
        """Operand relation names, left-to-right (with duplicates if any)."""
        return [n.name for n in self.walk() if isinstance(n, RelationRef)]

    def contains_projection(self) -> bool:
        return any(isinstance(n, Project) for n in self.walk())

    def contains_set_difference_or_union(self) -> bool:
        return any(isinstance(n, (Union, Difference)) for n in self.walk())

    def is_sjip(self) -> bool:
        """True iff only Select/Join/Intersect/Project nodes appear."""
        allowed = (RelationRef, Select, Join, Intersect, Project)
        return all(isinstance(n, allowed) for n in self.walk())

    def operator_count(self) -> int:
        """Number of operator nodes (excluding relation references)."""
        return sum(1 for n in self.walk() if not isinstance(n, RelationRef))

    # ------------------------------------------------------------------
    # Canonical form — the optimizer's logical-IR identity
    # ------------------------------------------------------------------
    def canonical_str(self) -> str:
        """Order-stable, content-complete rendering of the tree.

        Unlike ``str(expr)``, which mirrors how the tree was written, the
        canonical form renders semantically equal trees identically:
        operands of the commutative set operations (Union, Intersect) and
        the attribute pairs of a Join appear in sorted order, and selection
        formulas use :meth:`Predicate.canonical_str` (sorted And/Or
        operands). It is the logical identity the planner keys its plan
        cache on — see :meth:`structural_hash`.
        """
        return self._render(canonical=True)

    def structural_hash(self) -> str:
        """Hex digest of :meth:`canonical_str` (the plan-cache key)."""
        return hashlib.sha256(
            self._render(canonical=True).encode("utf-8")
        ).hexdigest()

    def _render(self, canonical: bool) -> str:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Fluent construction — chainable equivalents of the module builders
    # ------------------------------------------------------------------
    def where(self, predicate: Predicate) -> "Select":
        """``select(self, predicate)``, chainable::

            rel("orders").where(cmp("qty", ">", 40))
        """
        return Select(self, predicate)

    def project(self, *attrs: str) -> "Project":
        """``project(self, attrs)`` with attributes as varargs."""
        if len(attrs) == 1 and not isinstance(attrs[0], str):
            attrs = tuple(attrs[0])  # accept a single sequence too
        return Project(self, tuple(attrs))

    def join(
        self,
        other: "Expression",
        on: Sequence[tuple[str, str] | str] | str,
    ) -> "Join":
        """``join(self, other, on)``; ``on`` items as in the builder."""
        if isinstance(on, str):
            on = (on,)
        pairs = tuple(
            (p, p) if isinstance(p, str) else (p[0], p[1]) for p in on
        )
        return Join(self, other, pairs)

    def union(self, other: "Expression") -> "Union":
        return Union(self, other)

    def difference(self, other: "Expression") -> "Difference":
        return Difference(self, other)

    def intersect(self, other: "Expression") -> "Intersect":
        return Intersect(self, other)


@dataclass(frozen=True)
class RelationRef(Expression):
    """A reference to a stored base relation by name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ExpressionError("relation name must be non-empty")

    def schema(self, catalog: Catalog) -> Schema:
        return catalog.get(self.name).schema

    def children(self) -> tuple[Expression, ...]:
        return ()

    def _render(self, canonical: bool) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Select(Expression):
    """Selection: keep child tuples satisfying ``predicate``."""

    child: Expression
    predicate: Predicate

    def schema(self, catalog: Catalog) -> Schema:
        schema = self.child.schema(catalog)
        # SchemaError for an unknown attribute, ExpressionError for a
        # constant or attribute the column cannot be compared with.
        self.predicate.check_types(schema)
        return schema

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def _render(self, canonical: bool) -> str:
        return (
            f"select({self.child._render(canonical)}; "
            f"{self.predicate.canonical_str()})"
        )

    def __str__(self) -> str:
        return self._render(canonical=False)


@dataclass(frozen=True)
class Project(Expression):
    """Duplicate-eliminating projection onto ``attrs``."""

    child: Expression
    attrs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.attrs:
            raise ExpressionError("projection needs at least one attribute")

    def schema(self, catalog: Catalog) -> Schema:
        return self.child.schema(catalog).project(self.attrs)

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def _render(self, canonical: bool) -> str:
        return f"project({self.child._render(canonical)}; {','.join(self.attrs)})"

    def __str__(self) -> str:
        return self._render(canonical=False)


@dataclass(frozen=True)
class Join(Expression):
    """Equi-join of two expressions on attribute pairs ``on``.

    ``on`` is a tuple of ``(left_attr, right_attr)`` pairs; its length is the
    "number of join attributes" cost feature of Section 4.
    """

    left: Expression
    right: Expression
    on: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.on:
            raise ExpressionError("join needs at least one attribute pair")

    def schema(self, catalog: Catalog) -> Schema:
        left = self.left.schema(catalog)
        right = self.right.schema(catalog)
        for l_attr, r_attr in self.on:
            la = left.attribute(l_attr)
            ra = right.attribute(r_attr)
            if la.type is not ra.type:
                raise ExpressionError(
                    f"join attributes {l_attr!r} ({la.type}) and "
                    f"{r_attr!r} ({ra.type}) have different types"
                )
        return left.join(right)

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def _render(self, canonical: bool) -> str:
        on = sorted(self.on) if canonical else self.on
        pairs = ",".join(f"{a}={b}" for a, b in on)
        return (
            f"join({self.left._render(canonical)}, "
            f"{self.right._render(canonical)}; {pairs})"
        )

    def __str__(self) -> str:
        return self._render(canonical=False)


class _SetOperation(Expression):
    """Shared schema logic of Union / Difference / Intersect."""

    left: Expression
    right: Expression
    _opname = "set-op"

    def schema(self, catalog: Catalog) -> Schema:
        left = self.left.schema(catalog)
        right = self.right.schema(catalog)
        left.require_compatible(right, self._opname)
        return left

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def _render(self, canonical: bool) -> str:
        left = self.left._render(canonical)
        right = self.right._render(canonical)
        if canonical and self._opname in ("union", "intersect") and right < left:
            left, right = right, left  # commutative: operand-order stable
        return f"{self._opname}({left}, {right})"

    def __str__(self) -> str:
        return self._render(canonical=False)


@dataclass(frozen=True)
class Intersect(_SetOperation):
    left: Expression
    right: Expression
    _opname = "intersect"


@dataclass(frozen=True)
class Union(_SetOperation):
    left: Expression
    right: Expression
    _opname = "union"


@dataclass(frozen=True)
class Difference(_SetOperation):
    left: Expression
    right: Expression
    _opname = "difference"


# ----------------------------------------------------------------------
# Builders — the public construction API
# ----------------------------------------------------------------------
def rel(name: str) -> RelationRef:
    """Reference the stored relation ``name``."""
    return RelationRef(name)


def select(child: Expression, predicate: Predicate) -> Select:
    """Selection with a predicate built from :mod:`repro.relational.predicate`."""
    return Select(child, predicate)


def project(child: Expression, attrs: Sequence[str]) -> Project:
    """Duplicate-eliminating projection onto ``attrs``."""
    return Project(child, tuple(attrs))


def join(
    left: Expression,
    right: Expression,
    on: Sequence[tuple[str, str] | str] | str,
) -> Join:
    """Equi-join; ``on`` items may be ``"a"`` (same name both sides) or ``("a", "b")``."""
    if isinstance(on, str):
        on = (on,)
    pairs = tuple((p, p) if isinstance(p, str) else (p[0], p[1]) for p in on)
    return Join(left, right, pairs)


def union(left: Expression, right: Expression) -> Union:
    """Set union of attribute-compatible expressions."""
    return Union(left, right)


def difference(left: Expression, right: Expression) -> Difference:
    """Set difference of attribute-compatible expressions."""
    return Difference(left, right)


def intersect(left: Expression, right: Expression) -> Intersect:
    """Set intersection of attribute-compatible expressions."""
    return Intersect(left, right)
