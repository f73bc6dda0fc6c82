"""SDL parsing, type-graph mapping, and rule-skeleton derivation."""

from __future__ import annotations

from pathlib import Path

import pytest

from graphbac.dependency import dependency_reasons
from graphbac.schema import (
    ArgDef,
    FieldDef,
    SchemaError,
    SchemaModel,
    TypeRef,
    derive_rule_skeletons,
    parse_sdl,
    to_type_graph,
)

from fixtures import collab_rules, collab_typegraph

SCHEMA_PATH = Path(__file__).parent.parent / "projects" / "running-example" / "schema.graphql"


def render_type(ref: TypeRef) -> str:
    out = ref.name
    for w in ref.wrappers:
        out = f"[{out}]" if w == "list" else f"{out}!"
    return out


def render_arg(arg: ArgDef) -> str:
    out = f"{arg.name}: {render_type(arg.type)}"
    if arg.default is not None:
        out += f" = {arg.default}"
    return out


def render_field(field: FieldDef) -> str:
    head = field.name
    if field.args:
        head += "(" + ", ".join(render_arg(a) for a in field.args) + ")"
    return f"{head}: {render_type(field.type)}"


def model_to_sdl(model: SchemaModel) -> str:
    """Render the supported subset back to SDL (a parse fixpoint)."""
    blocks = []
    for scalar in model.scalars:
        blocks.append(f"scalar {scalar}")
    for name, values in model.enums.items():
        body = "\n".join(f"  {v}" for v in values)
        blocks.append(f"enum {name} {{\n{body}\n}}")
    for holder in list(model.inputs) + list(model.objects):
        keyword = "input" if holder.is_input else "type"
        body = "\n".join(f"  {render_field(f)}" for f in holder.fields)
        blocks.append(f"{keyword} {holder.name} {{\n{body}\n}}")
    return "\n\n".join(blocks) + "\n"


@pytest.fixture(scope="module")
def collab_sdl():
    return SCHEMA_PATH.read_text()


@pytest.fixture(scope="module")
def collab_model(collab_sdl):
    return parse_sdl(collab_sdl)


def test_parse_object_types(collab_model):
    assert [o.name for o in collab_model.data_objects()] == [
        "User",
        "Repository",
        "Project",
        "Issue",
    ]
    assert collab_model.query is not None
    assert collab_model.mutation is not None
    assert [f.name for f in collab_model.query.fields] == ["getUser", "getProject"]
    (update,) = [f for f in collab_model.mutation.fields if f.name == "updateRepo"]
    assert [a.name for a in update.args] == ["repo"]
    assert render_type(update.args[0].type) == "ID!"


def test_parse_empty_document():
    model = parse_sdl("")
    assert model == SchemaModel()


def test_parse_field_arguments_survive():
    model = parse_sdl(
        """
        type Comparison { ahead: Int! }
        type Ref {
          name: String!
          compare(branch: String!): Comparison
        }
        """
    )
    ref = model.object("Ref")
    (compare,) = [f for f in ref.fields if f.name == "compare"]
    assert [a.name for a in compare.args] == ["branch"]
    assert compare.type.name == "Comparison"


def test_syntax_error_carries_position():
    with pytest.raises(SchemaError) as err:
        parse_sdl("type User {\n  name String\n}")
    assert "2:" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_sdl("type User { name: String } %")
    assert "unexpected character" in str(err.value)


def test_unresolved_reference_rejected():
    with pytest.raises(SchemaError) as err:
        parse_sdl("type User { repo: Repository }")
    assert "unknown type Repository" in str(err.value)


def test_unsupported_constructs_warn_and_skip():
    model = parse_sdl(
        """
        interface Node { id: ID! }
        union Thing = User
        directive @auth on FIELD_DEFINITION
        type Subscription { ping: String }
        type User { name: String @auth }
        """
    )
    assert [o.name for o in model.objects] == ["User"]
    text = " ".join(model.warnings)
    assert "interface" in text
    assert "union" in text
    assert "@auth" in text
    assert "Subscription" in text


def test_type_graph_mapping(collab_model):
    tg = to_type_graph(collab_model)
    expected = collab_typegraph()
    assert tg.node_types == expected.node_types
    assert tg.edge_types == expected.edge_types
    assert tg.attributes == {
        "User": {"name": "String"},
        "Repository": {"name": "String"},
        "Project": {"name": "String"},
        "Issue": {"title": "String"},
    }


def test_id_fields_are_dropped():
    model = parse_sdl("type User { id: ID!\n handle: ID! }")
    tg = to_type_graph(model)
    assert tg.attributes == {"User": {"handle": "ID"}}


def test_scalar_only_model_has_no_edges():
    model = parse_sdl("type A { x: Int }\ntype B { y: String }")
    tg = to_type_graph(model)
    assert tg.node_types == ("A", "B")
    assert tg.edge_types == ()


def test_include_inputs_adds_input_node_types():
    model = parse_sdl(
        """
        type Repository { name: String! }
        input CreateRepositoryInput { name: String!\n visibility: String }
        type Mutation { createRepository(input: CreateRepositoryInput!): Repository }
        """
    )
    without = to_type_graph(model)
    assert "CreateRepositoryInput" not in without.node_types
    with_inputs = to_type_graph(model, include_inputs=True)
    assert "CreateRepositoryInput" in with_inputs.node_types


def test_parse_serialize_parse_fixpoint(collab_model):
    rendered = model_to_sdl(collab_model)
    assert parse_sdl(rendered) == collab_model
    extra = parse_sdl(
        """
        scalar DateTime
        enum Visibility { PUBLIC\n PRIVATE }
        input Filter { after: DateTime\n mode: Visibility = PUBLIC }
        type Item { when: DateTime!\n visibility: Visibility }
        type Query { getItem(item: ID!): Item }
        """
    )
    assert parse_sdl(model_to_sdl(extra)) == extra


def test_skeletons_match_hand_written_shapes(collab_model):
    result = derive_rule_skeletons(collab_model)
    assert result.unhandled == ()
    skeletons = {r.name: r for r in result.rules}
    handwritten = collab_rules()
    assert set(skeletons) == set(handwritten)
    for name, rule in handwritten.items():
        skel = skeletons[name]
        assert skel.skeleton
        assert skel.kind == rule.kind
        assert skel.nodes == rule.nodes
        assert skel.edges == rule.edges
        assert skel.tags == rule.tags
        assert skel.call.operation == rule.call.operation
        assert skel.call.bindings == rule.call.bindings


def test_unprefixed_field_is_unhandled():
    model = parse_sdl(
        """
        type Comparison { ahead: Int! }
        type Ref { name: String! }
        type Query { compare(base: ID!, head: ID!): Comparison }
        """
    )
    result = derive_rule_skeletons(model)
    assert result.rules == ()
    assert result.unhandled == ("Query.compare",)


def test_skeleton_analysis_reproduces_repo_issue_edge(collab_model):
    skeletons = {r.name: r for r in derive_rule_skeletons(collab_model).rules}
    reasons = dependency_reasons(skeletons["createRepo"], skeletons["createIssue"])
    assert len(reasons) == 1
    assert set(reasons[0].span.nodes) == {"r"}
