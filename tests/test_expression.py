"""Unit tests for the RA expression AST."""

import pytest

from repro.catalog.types import AttributeType
from repro.errors import ExpressionError, SchemaError
from repro.relational.expression import (
    Join,
    Project,
    RelationRef,
    difference,
    intersect,
    join,
    project,
    rel,
    select,
    union,
)
from repro.relational.predicate import attr, cmp


class TestRelationRef:
    def test_schema_resolves_from_catalog(self, small_catalog):
        assert rel("r1").schema(small_catalog).names == ("id", "a")

    def test_unknown_relation_raises(self, small_catalog):
        with pytest.raises(Exception):
            rel("ghost").schema(small_catalog)

    def test_empty_name_rejected(self):
        with pytest.raises(ExpressionError):
            RelationRef("")

    def test_str(self):
        assert str(rel("r1")) == "r1"


class TestSelect:
    def test_schema_passthrough(self, small_catalog):
        e = select(rel("r1"), cmp("a", "<", 5))
        assert e.schema(small_catalog).names == ("id", "a")

    def test_predicate_attribute_validated(self, small_catalog):
        e = select(rel("r1"), cmp("ghost", "<", 5))
        with pytest.raises(SchemaError):
            e.schema(small_catalog)


    def test_numeric_constants_valid_on_numeric_columns(self, small_catalog):
        import numpy as np

        for value in (5, 2.5, np.int64(3), np.float64(0.5), float("nan")):
            select(rel("r1"), cmp("a", "<", value)).schema(small_catalog)
        select(rel("r1"), cmp("a", "<", attr("id"))).schema(small_catalog)

    @pytest.mark.parametrize("value", ["x", "5", True, None, (1,)])
    def test_non_numeric_constant_rejected(self, small_catalog, value):
        e = select(rel("r1"), cmp("a", "==", value))
        with pytest.raises(ExpressionError, match="cannot compare"):
            e.schema(small_catalog)

    def test_mismatch_found_inside_combinators(self, small_catalog):
        bad = cmp("a", "<", 3) & ~(cmp("id", ">", 1) | cmp("a", "==", "x"))
        with pytest.raises(ExpressionError):
            select(rel("r1"), bad).schema(small_catalog)

    def test_string_columns_compare_with_strings_only(self):
        from repro.catalog.catalog import Catalog
        from repro.catalog.schema import Schema
        from tests.conftest import make_relation

        schema = Schema.of(id=AttributeType.INT, name=AttributeType.STR)
        catalog = Catalog()
        catalog.register(
            "people", make_relation("people", schema, [(1, "ann"), (2, "bo")])
        )
        select(rel("people"), cmp("name", "==", "bo")).schema(catalog)
        for bad in (cmp("name", "==", 3), cmp("name", "<", attr("id"))):
            with pytest.raises(ExpressionError):
                select(rel("people"), bad).schema(catalog)


class TestProject:
    def test_schema_projected(self, small_catalog):
        e = project(rel("r1"), ["a"])
        assert e.schema(small_catalog).names == ("a",)

    def test_empty_attrs_rejected(self):
        with pytest.raises(ExpressionError):
            Project(rel("r1"), ())


class TestJoin:
    def test_schema_concatenated_with_rename(self, small_catalog):
        e = join(rel("r1"), rel("r2"), on=["a"])
        assert e.schema(small_catalog).names == ("id", "a", "id_r", "a_r")

    def test_string_on_expands_to_pair(self):
        e = join(rel("r1"), rel("r2"), on=["a", ("id", "id")])
        assert e.on == (("a", "a"), ("id", "id"))

    def test_empty_on_rejected(self):
        with pytest.raises(ExpressionError):
            Join(rel("r1"), rel("r2"), ())

    def test_type_mismatch_rejected(self, small_catalog):
        from repro.catalog.schema import Schema
        from tests.conftest import make_relation

        small_catalog.register(
            "rf",
            make_relation(
                "rf",
                Schema.of(id=AttributeType.INT, a=AttributeType.FLOAT),
                [(1, 1.0)],
            ),
        )
        e = join(rel("r1"), rel("rf"), on=["a"])
        with pytest.raises(ExpressionError):
            e.schema(small_catalog)


class TestSetOps:
    def test_compatible_schemas_accepted(self, small_catalog):
        for e in (
            union(rel("r1"), rel("r2")),
            difference(rel("r1"), rel("r2")),
            intersect(rel("r1"), rel("r2")),
        ):
            assert e.schema(small_catalog).names == ("id", "a")

    def test_incompatible_schemas_rejected(self, small_catalog):
        e = union(rel("r1"), project(rel("r2"), ["a"]))
        with pytest.raises(SchemaError):
            e.schema(small_catalog)


class TestStructuralQueries:
    def test_base_relations_in_order(self):
        e = join(select(rel("r1"), cmp("a", "<", 5)), rel("r2"), on=["a"])
        assert e.base_relations() == ["r1", "r2"]

    def test_base_relations_with_duplicates(self):
        e = union(rel("r1"), rel("r1"))
        assert e.base_relations() == ["r1", "r1"]

    def test_contains_projection(self):
        assert project(rel("r1"), ["a"]).contains_projection()
        assert not rel("r1").contains_projection()

    def test_contains_union_difference(self):
        assert union(rel("r1"), rel("r2")).contains_set_difference_or_union()
        assert not intersect(rel("r1"), rel("r2")).contains_set_difference_or_union()

    def test_is_sjip(self):
        assert join(rel("r1"), rel("r2"), on=["a"]).is_sjip()
        assert intersect(rel("r1"), rel("r2")).is_sjip()
        assert not union(rel("r1"), rel("r2")).is_sjip()

    def test_operator_count(self):
        e = select(join(rel("r1"), rel("r2"), on=["a"]), cmp("a", "<", 3))
        assert e.operator_count() == 2

    def test_walk_preorder(self):
        e = select(rel("r1"), cmp("a", "<", 3))
        kinds = [type(n).__name__ for n in e.walk()]
        assert kinds == ["Select", "RelationRef"]
