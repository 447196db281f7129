"""Datatype declaration and validation.

A datatype is described as a list of constructors with typed child
positions.  The operations the engine needs (unification, occurs check,
substitution, groundness, printing) are structural over `Compound.args`
and live in `terms`, shared by every type.  Each descriptor is validated
once, on first use, which also builds the constructor -> child-types
table that `LogicType.make` checks against.  Recursive and mutually
recursive types are supported: child positions refer to types by name
and are resolved through a registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import terms
from .terms import Compound, LogicError, Term, TypeMismatchError, Var, VarId


class DeriveError(LogicError):
    """A datatype descriptor is malformed."""


@dataclass(frozen=True)
class ConstructorSpec:
    name: str
    children: tuple  # child logical-type names, resolved via the registry


@dataclass(frozen=True)
class DatatypeDescriptor:
    type_name: str
    constructors: tuple


@dataclass(frozen=True)
class LogicCapability:
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


STRUCTURAL = LogicCapability(terms.unify_args, terms.occurs_syntactic, terms.substitute,
                             terms.is_ground_syntactic, terms.pretty_prefix)


class LogicType:
    """A registered logical type: a descriptor, validated on first use.

    Identity matters: two LogicType objects are distinct types even if
    their descriptors coincide.  Instances are created through
    TypeRegistry.declare.
    """

    def __init__(self, descriptor: DatatypeDescriptor, registry: "TypeRegistry"):
        self._descriptor = descriptor
        self._registry = registry
        # Constructor name -> child LogicTypes; built by validation.
        self._children: Optional[dict] = None
        # Installed by preludes: overrides the prefix printer.
        self.pretty_override: Optional[Callable[[Compound], str]] = None
        # Installed for types that have a numeral encoding (Peano nats).
        self.from_int: Optional[Callable[[int], Term]] = None
        # Installed for list-like types: (element_type, nil_ctor, cons_ctor).
        self.list_shape: Optional[tuple] = None

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

    def _child_table(self) -> dict:
        if self._children is None:
            self._children = _validate(self._descriptor, self._registry)
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
        logical type of every child."""
        expected = self.child_types(ctor)
        if len(args) != len(expected):
            raise TypeMismatchError(
                f"{self.name}.{ctor} takes {len(expected)} argument(s), got {len(args)}"
            )
        for i, (arg, want) in enumerate(zip(args, expected)):
            if terms.term_type(arg) is not want:
                raise TypeMismatchError(
                    f"{self.name}.{ctor} argument {i + 1}: expected {want.name}, "
                    f"got {getattr(terms.term_type(arg), 'name', '?')}"
                )
        return Compound(self, ctor, tuple(args))

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

    def declare(self, name: str, constructors) -> LogicType:
        """Register a datatype.  `constructors` is a sequence of
        (constructor_name, [child_type_name, ...]) pairs."""
        if name in self._types:
            raise DeriveError(f"type {name!r} is already declared")
        specs = tuple(ConstructorSpec(c, tuple(children)) for c, children in constructors)
        ltype = LogicType(DatatypeDescriptor(name, specs), self)
        self._types[name] = ltype
        return ltype

    def knows(self, name: str) -> bool:
        return name in self._types

    def get(self, name: str) -> LogicType:
        try:
            return self._types[name]
        except KeyError:
            raise DeriveError(f"unknown logical type {name!r}") from None
