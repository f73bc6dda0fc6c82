"""GraphQL SDL frontend.

Parses the SDL subset used by analysis projects (object/input/enum/scalar
definitions, field arguments, list and non-null wrappers) into a schema
model, maps the model onto a type graph, and optionally derives editable
rule skeletons from Query and Mutation fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import Edge, EdgeType, GraphError, TypeGraph
from .rules import CREATE, DELETE, PRESERVE, CallSpec, Rule

BUILTIN_SCALARS = ("ID", "String", "Int", "Float", "Boolean")


class SchemaError(GraphError):
    """Syntax or resolution error in an SDL document, with position."""


# --------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class Token:
    kind: str  # name | punct | string | eof
    value: str
    line: int
    column: int


_PUNCT = set("(){}[]!:=@&|")
_NAME_RE = re.compile(r"[_A-Za-z][_0-9A-Za-z]*")


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r,":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith('"""', i):
            end = text.find('"""', i + 3)
            if end < 0:
                raise SchemaError(f"{line}:{col}: unterminated block string")
            raw = text[i : end + 3]
            tokens.append(Token("string", raw[3:-3], line, col))
            line += raw.count("\n")
            col = len(raw) - raw.rfind("\n") if "\n" in raw else col + len(raw)
            i = end + 3
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise SchemaError(f"{line}:{col}: unterminated string")
            tokens.append(Token("string", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c in _PUNCT:
            tokens.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(Token("name", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if c in "-0123456789.":
            j = i
            while j < n and text[j] in "-+.eE0123456789":
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SchemaError(f"{line}:{col}: unexpected character {c!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class TypeRef:
    """A named type with its list/non-null wrappers, innermost first."""

    name: str
    wrappers: tuple[str, ...] = ()  # outermost-last sequence of "list" / "non_null"


@dataclass(frozen=True)
class ArgDef:
    name: str
    type: TypeRef
    default: str | None = None


@dataclass(frozen=True)
class FieldDef:
    name: str
    type: TypeRef
    args: tuple[ArgDef, ...] = ()


@dataclass(frozen=True)
class ObjectDef:
    name: str
    fields: tuple[FieldDef, ...]
    is_input: bool = False


@dataclass(frozen=True)
class SchemaModel:
    """Parsed SDL document: object and input types, enums, custom scalars."""

    objects: tuple[ObjectDef, ...] = ()
    inputs: tuple[ObjectDef, ...] = ()
    enums: dict[str, tuple[str, ...]] = field(default_factory=dict)
    scalars: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        known = self.known_type_names()
        for holder in list(self.objects) + list(self.inputs):
            for f in holder.fields:
                for ref in [f.type] + [a.type for a in f.args]:
                    if ref.name not in known:
                        raise SchemaError(
                            f"type {holder.name}: field {f.name} references "
                            f"unknown type {ref.name}"
                        )

    def known_type_names(self) -> set[str]:
        return (
            {o.name for o in self.objects}
            | {i.name for i in self.inputs}
            | set(self.enums)
            | set(self.scalars)
            | set(BUILTIN_SCALARS)
        )

    def object(self, name: str) -> ObjectDef | None:
        for o in self.objects:
            if o.name == name:
                return o
        return None

    @property
    def query(self) -> ObjectDef | None:
        return self.object("Query")

    @property
    def mutation(self) -> ObjectDef | None:
        return self.object("Mutation")

    def data_objects(self) -> list[ObjectDef]:
        """Object types that model state, i.e. everything but the entry points."""
        return [o for o in self.objects if o.name not in ("Query", "Mutation")]


# --------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.warnings: list[str] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> SchemaError:
        tok = self.peek()
        return SchemaError(f"{tok.line}:{tok.column}: {message}")

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            raise self.fail(f"expected {value!r}, found {tok.value!r}")
        return self.next()

    def expect_name(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "name":
            raise self.fail(f"expected {what}, found {tok.value!r}")
        return self.next()

    def skip_description(self) -> None:
        if self.peek().kind == "string":
            self.next()

    def skip_directives(self) -> None:
        while self.peek().kind == "punct" and self.peek().value == "@":
            tok = self.next()
            name = self.expect_name("directive name")
            self.warnings.append(
                f"{tok.line}:{tok.column}: directive @{name.value} ignored"
            )
            if self.peek().value == "(":
                self.skip_balanced("(", ")")

    def skip_balanced(self, open_: str, close: str) -> None:
        self.expect_punct(open_)
        depth = 1
        while depth:
            tok = self.next()
            if tok.kind == "eof":
                raise self.fail(f"unbalanced {open_}")
            if tok.kind == "punct" and tok.value == open_:
                depth += 1
            elif tok.kind == "punct" and tok.value == close:
                depth -= 1

    def parse(self) -> SchemaModel:
        objects: list[ObjectDef] = []
        inputs: list[ObjectDef] = []
        enums: dict[str, tuple[str, ...]] = {}
        scalars: list[str] = []
        while self.peek().kind != "eof":
            self.skip_description()
            tok = self.peek()
            if tok.kind != "name":
                raise self.fail(f"expected a definition, found {tok.value!r}")
            keyword = tok.value
            if keyword == "type":
                objects.append(self.parse_object(is_input=False))
            elif keyword == "input":
                inputs.append(self.parse_object(is_input=True))
            elif keyword == "enum":
                name, values = self.parse_enum()
                enums[name] = values
            elif keyword == "scalar":
                self.next()
                scalars.append(self.expect_name("scalar name").value)
                self.skip_directives()
            elif keyword in ("interface", "union", "subscription", "schema", "directive", "extend"):
                self.warnings.append(
                    f"{tok.line}:{tok.column}: {keyword} definition ignored"
                )
                self.skip_definition(keyword)
            else:
                raise self.fail(f"unknown definition keyword {keyword!r}")
        kept = []
        for obj in objects:
            if obj.name == "Subscription":
                self.warnings.append("Subscription type ignored")
            else:
                kept.append(obj)
        objects = kept
        seen: set[str] = set()
        for holder in objects + inputs:
            if holder.name in seen:
                raise SchemaError(f"duplicate type definition {holder.name}")
            seen.add(holder.name)
        return SchemaModel(
            objects=tuple(objects),
            inputs=tuple(inputs),
            enums=enums,
            scalars=tuple(scalars),
            warnings=tuple(self.warnings),
        )

    def skip_definition(self, keyword: str) -> None:
        self.next()
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "punct" and tok.value == "{":
                self.skip_balanced("{", "}")
                return
            if tok.kind == "name" and tok.value in (
                "type",
                "input",
                "enum",
                "scalar",
                "interface",
                "union",
                "schema",
                "directive",
                "extend",
            ):
                return
            self.next()

    def parse_object(self, is_input: bool) -> ObjectDef:
        self.next()  # type / input
        name = self.expect_name("type name").value
        if self.peek().kind == "name" and self.peek().value == "implements":
            tok = self.next()
            self.warnings.append(
                f"{tok.line}:{tok.column}: implements clause on {name} ignored"
            )
            self.expect_name("interface name")
            while self.peek().value in ("&",):
                self.next()
                self.expect_name("interface name")
        self.skip_directives()
        self.expect_punct("{")
        fields = []
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            fields.append(self.parse_field(allow_args=not is_input))
        self.expect_punct("}")
        if not fields:
            raise SchemaError(f"type {name} has no fields")
        return ObjectDef(name=name, fields=tuple(fields), is_input=is_input)

    def parse_field(self, allow_args: bool) -> FieldDef:
        self.skip_description()
        name = self.expect_name("field name").value
        args: list[ArgDef] = []
        if self.peek().value == "(":
            if not allow_args:
                raise self.fail("input fields take no arguments")
            self.next()
            while not (self.peek().kind == "punct" and self.peek().value == ")"):
                args.append(self.parse_arg())
            self.expect_punct(")")
        self.expect_punct(":")
        ref = self.parse_type_ref()
        if self.peek().value == "=":
            # defaults on input fields are accepted and dropped
            self.next()
            self.parse_value()
        self.skip_directives()
        return FieldDef(name=name, type=ref, args=tuple(args))

    def parse_arg(self) -> ArgDef:
        self.skip_description()
        name = self.expect_name("argument name").value
        self.expect_punct(":")
        ref = self.parse_type_ref()
        default = None
        if self.peek().value == "=":
            self.next()
            default = self.parse_value()
        self.skip_directives()
        return ArgDef(name=name, type=ref, default=default)

    def parse_type_ref(self) -> TypeRef:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "[":
            self.next()
            inner = self.parse_type_ref()
            self.expect_punct("]")
            ref = TypeRef(inner.name, inner.wrappers + ("list",))
        else:
            ref = TypeRef(self.expect_name("type name").value)
        if self.peek().value == "!":
            self.next()
            ref = TypeRef(ref.name, ref.wrappers + ("non_null",))
        return ref

    def parse_value(self) -> str:
        tok = self.next()
        if tok.kind == "string":
            return f'"{tok.value}"'
        if tok.kind == "punct" and tok.value == "[":
            parts = []
            while not (self.peek().kind == "punct" and self.peek().value == "]"):
                parts.append(self.parse_value())
            self.expect_punct("]")
            return "[" + ", ".join(parts) + "]"
        if tok.kind == "name":
            return tok.value
        raise self.fail(f"expected a value, found {tok.value!r}")

    def parse_enum(self) -> tuple[str, tuple[str, ...]]:
        self.next()
        name = self.expect_name("enum name").value
        self.skip_directives()
        self.expect_punct("{")
        values = []
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            self.skip_description()
            values.append(self.expect_name("enum value").value)
            self.skip_directives()
        self.expect_punct("}")
        if not values:
            raise SchemaError(f"enum {name} has no values")
        return name, tuple(values)


def parse_sdl(text: str) -> SchemaModel:
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# type graph mapping


def to_type_graph(model: SchemaModel, include_inputs: bool = False) -> TypeGraph:
    """Object types become node types; object-valued fields become edge types
    named Type.field; scalar and enum fields become attribute metadata.

    Fields named `id` of type ID are dropped: identity is carried by the graph
    itself.  Query and Mutation contribute nothing.
    """
    holders = list(model.data_objects())
    if include_inputs:
        holders += list(model.inputs)
    node_types = [h.name for h in holders]
    node_set = set(node_types)
    edge_types = []
    attributes: dict[str, dict[str, str]] = {}
    for holder in holders:
        for f in holder.fields:
            target = f.type.name
            if f.name == "id" and target == "ID":
                continue
            if target in node_set:
                edge_types.append(EdgeType(f"{holder.name}.{f.name}", holder.name, target))
            elif target in BUILTIN_SCALARS or target in model.scalars or target in model.enums:
                attributes.setdefault(holder.name, {})[f.name] = target
            # other targets are object/input types excluded by options: skipped
    return TypeGraph(
        node_types=tuple(node_types),
        edge_types=tuple(edge_types),
        attributes=attributes,
    )


# --------------------------------------------------------------------------
# rule skeletons


SKELETON_PREFIXES = ("create", "update", "delete", "get")


@dataclass(frozen=True)
class SkeletonResult:
    rules: tuple[Rule, ...]
    unhandled: tuple[str, ...]


def _short_id(type_name: str, taken: set[str]) -> str:
    base = type_name[0].lower()
    candidate = base
    n = 1
    while candidate in taken:
        n += 1
        candidate = f"{base}{n}"
    taken.add(candidate)
    return candidate


def derive_rule_skeletons(
    model: SchemaModel, include_inputs: bool = False
) -> SkeletonResult:
    """Heuristic rule skeletons for create*/update*/delete*/get* entry fields.

    The pattern around the field's return type is its containment: incoming
    list-valued edges (a parent holding a collection of it) and outgoing
    single-valued edges (its own references).  create makes the node plus that
    pattern, update/get preserve it, delete removes it; the context nodes are
    always preserved.  Everything else is reported as unhandled for the
    analyst to model by hand.
    """
    tg = to_type_graph(model, include_inputs=include_inputs)
    list_valued = set()
    holders = list(model.data_objects()) + (list(model.inputs) if include_inputs else [])
    for holder in holders:
        for f in holder.fields:
            if "list" in f.type.wrappers:
                list_valued.add(f"{holder.name}.{f.name}")
    rules: list[Rule] = []
    unhandled: list[str] = []
    for holder, kind in ((model.query, "query"), (model.mutation, "mutation")):
        if holder is None:
            continue
        for f in holder.fields:
            prefix = next((p for p in SKELETON_PREFIXES if f.name.startswith(p)), None)
            target = f.type.name
            if prefix is None or not tg.has_node_type(target):
                unhandled.append(f"{holder.name}.{f.name}")
                continue
            rules.append(_skeleton(tg, list_valued, f, prefix, target, kind))
    return SkeletonResult(tuple(rules), tuple(unhandled))


def _skeleton(
    tg: TypeGraph,
    list_valued: set[str],
    f: FieldDef,
    prefix: str,
    target: str,
    kind: str,
) -> Rule:
    taken: set[str] = set()
    target_id = _short_id(target, taken)
    nodes = {target_id: target}
    edges = {}
    tags = {}
    context_ids: dict[str, str] = {}

    def context_node(type_name: str) -> str:
        if type_name not in context_ids:
            nid = _short_id(type_name, taken)
            context_ids[type_name] = nid
            nodes[nid] = type_name
            tags[nid] = PRESERVE
        return context_ids[type_name]

    def edge_id(et: EdgeType) -> str:
        candidate = et.name.split(".", 1)[1]
        if candidate in taken:
            candidate = et.name
        n = 1
        base = candidate
        while candidate in taken:
            n += 1
            candidate = f"{base}~{n}"
        taken.add(candidate)
        return candidate

    first_context: str | None = None
    for et in tg.edge_types:
        if et.src == et.tgt:
            continue
        if et.tgt == target and et.name in list_valued:
            other = context_node(et.src)
            edges[edge_id(et)] = Edge(et.name, other, target_id)
        elif et.src == target and et.name not in list_valued:
            other = context_node(et.tgt)
            edges[edge_id(et)] = Edge(et.name, target_id, other)
        else:
            continue
        if first_context is None:
            first_context = other

    element_tag = {"create": CREATE, "delete": DELETE}.get(prefix, PRESERVE)
    tags[target_id] = element_tag
    for eid in edges:
        tags[eid] = element_tag

    # an ID argument names the node the call operates on: the pattern node
    # for reads, updates and deletes, the context node for creations
    bound_node = first_context if prefix == "create" else target_id
    bindings = {}
    for arg in f.args:
        if arg.type.name == "ID" and bound_node is not None:
            bindings[arg.name] = bound_node
            break
    return Rule(
        name=f.name,
        typegraph=tg,
        nodes=nodes,
        edges=edges,
        tags=tags,
        kind=kind,
        call=CallSpec(operation=f.name, bindings=bindings),
        skeleton=True,
    )
