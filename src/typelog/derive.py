"""Datatype declaration and validation.

A datatype is described as a list of constructors with typed child
positions.  The operations the engine needs (unification, occurs check,
substitution, groundness, printing) are structural over `Compound.args`
and live in `terms`, shared by every type.  Each descriptor is validated
once, on first use, which also builds the constructor -> child-types
table that `LogicType.make` checks against; the shared term of each
nullary constructor and `LogicType.element` are derived from it then,
once, and `declare` takes the printer and numeral encoding.
Recursive and mutually recursive types are supported: child positions
refer to types by name and are resolved through a registry.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional

from . import terms
from .terms import EMPTY_STORE, Compound, LogicError, Term, TypeMismatchError, Var, VarId


class DeriveError(LogicError):
    """A datatype descriptor is malformed."""


class ConstructorSpec(NamedTuple):
    name: str
    children: tuple  # child logical-type names, resolved via the registry


class DatatypeDescriptor(NamedTuple):
    type_name: str
    constructors: tuple


class LogicCapability(NamedTuple):
    """The logic operations on constructor applications, the same for
    every type: `STRUCTURAL` is the one instance.  `unify_step` only ever
    extends the store; on clash it returns None and the caller keeps the
    original store.  `occurs`, `substitute` and `is_ground` are purely
    syntactic on the given payload."""

    unify_step: Callable
    occurs: Callable
    substitute: Callable
    is_ground: Callable
    pretty: Callable


STRUCTURAL = LogicCapability(terms.unify_args, partial(terms.occurs_in, store=EMPTY_STORE),
                             terms.substitute, partial(terms.is_ground_term, store=EMPTY_STORE),
                             terms.pretty_prefix)


class LogicType:
    """A registered logical type: a descriptor, validated on first use.

    Identity matters: two LogicType objects are distinct types even if
    their descriptors coincide.  Instances are created through
    TypeRegistry.declare.
    """

    def __init__(self, descriptor: DatatypeDescriptor, registry: "TypeRegistry",
                 pretty_override=None, from_int=None):
        self._descriptor = descriptor
        self._registry = registry
        # Built by validation: constructor name -> child LogicTypes, the
        # one shared term of each nullary constructor, and the list
        # element type (see `element`).
        self._children: Optional[dict] = None
        self._nullaries: dict = {}
        self._element: Optional[LogicType] = None
        self.pretty_override = pretty_override
        self.from_int = from_int

    @property
    def name(self) -> str:
        return self._descriptor.type_name

    @property
    def descriptor(self) -> DatatypeDescriptor:
        return self._descriptor

    @property
    def registry(self) -> "TypeRegistry":
        return self._registry

    @property
    def capability(self) -> LogicCapability:
        """The shared structural operations, once the descriptor is valid."""
        self._child_table()
        return STRUCTURAL

    @property
    def element(self) -> Optional["LogicType"]:
        """E when the constructors are exactly ``nil()`` and ``cons(E, <this type>)``."""
        self._child_table()
        return self._element

    def _child_table(self) -> dict:
        if self._children is None:
            table = _validate(self._descriptor, self._registry)
            self._nullaries = {c: Compound(self, c, ()) for c, kids in table.items() if not kids}
            if len(table) == 2 and table.get("nil") == () and table.get("cons", ())[1:] == (self,):
                self._element = table["cons"][0]
            # Set last: a reader that sees the table sees the rest.
            self._children = table
        return self._children

    def child_types(self, ctor: str) -> tuple:
        try:
            return self._child_table()[ctor]
        except KeyError:
            raise DeriveError(f"type {self.name} has no constructor {ctor!r}") from None

    def var(self, name: str) -> Var:
        """A user-named variable of this type.  Names starting with "_"
        are reserved for the engine."""
        if not name or name.startswith("_"):
            raise ValueError(
                f"invalid variable name {name!r}: names starting with '_' are reserved"
            )
        return Var(VarId(name, self))

    def make(self, ctor: str, *args: Term) -> Compound:
        """Build a constructor application, checking arity and the
        logical type of every child.  A nullary constructor gives the
        same shared term on every call."""
        table = self._children
        expected = None if table is None else table.get(ctor)
        if expected is None:
            expected = self.child_types(ctor)  # validates, or raises
        if len(args) != len(expected):
            raise TypeMismatchError(
                f"{self.name}.{ctor} takes {len(expected)} argument(s), got {len(args)}"
            )
        if not args:
            return self._nullaries[ctor]
        for i, arg in enumerate(args):
            got = arg.vid.ltype if type(arg) is Var else arg.ltype
            if got is not expected[i]:
                raise TypeMismatchError(
                    f"{self.name}.{ctor} argument {i + 1}: expected {expected[i].name}, "
                    f"got {getattr(got, 'name', '?')}"
                )
        return Compound(self, ctor, args)

    def __repr__(self):
        return f"LogicType({self.name})"


def derive_capability(descriptor: DatatypeDescriptor, registry: "TypeRegistry") -> LogicCapability:
    """Validate a descriptor; every valid type's capability is `STRUCTURAL`."""
    _validate(descriptor, registry)
    return STRUCTURAL


def _validate(descriptor: DatatypeDescriptor, registry: "TypeRegistry") -> dict:
    """Map each constructor to its child types, rejecting duplicate
    constructor names and child types the registry does not know."""
    table: dict = {}
    for spec in descriptor.constructors:
        if spec.name in table:
            raise DeriveError(
                f"type {descriptor.type_name}: duplicate constructor {spec.name!r}"
            )
        for child in spec.children:
            if not registry.knows(child):
                raise DeriveError(
                    f"type {descriptor.type_name}, constructor {spec.name}: "
                    f"unresolved child type {child!r}"
                )
        table[spec.name] = tuple(registry.get(child) for child in spec.children)
    return table


class TypeRegistry:
    """Name-to-type table letting descriptors reference each other.

    Declaring only records the descriptor; validation happens when the
    type is first used (its first `make`, `child_types` or `capability`),
    so mutually recursive types can be declared in any order.
    """

    def __init__(self):
        self._types: dict = {}

    def declare(self, name: str, constructors, *, pretty_override: Optional[Callable] = None,
                from_int: Optional[Callable] = None) -> LogicType:
        """Register a datatype.  `constructors` is a sequence of
        (constructor_name, [child_type_name, ...]) pairs.  `pretty_override`
        replaces the prefix printer; `from_int` encodes Python ints."""
        if name in self._types:
            raise DeriveError(f"type {name!r} is already declared")
        specs = tuple(ConstructorSpec(c, tuple(children)) for c, children in constructors)
        ltype = LogicType(DatatypeDescriptor(name, specs), self, pretty_override, from_int)
        self._types[name] = ltype
        return ltype

    def knows(self, name: str) -> bool:
        return name in self._types

    def get(self, name: str) -> LogicType:
        try:
            return self._types[name]
        except KeyError:
            raise DeriveError(f"unknown logical type {name!r}") from None
