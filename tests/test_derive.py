import itertools

import pytest

import reference as ref
from typelog.derive import (
    ConstructorSpec,
    DatatypeDescriptor,
    DeriveError,
    LogicCapability,
    TypeRegistry,
    derive_capability,
)
from typelog.prelude import (
    NAT,
    NAT_LIST,
    as_term,
    cons,
    list_of,
    member,
    nat,
    nat_list,
    nil,
    suc,
    zero,
)
from typelog.solve import find_all
from typelog.terms import EMPTY_STORE, TypeMismatchError, pretty, unify


def make_descriptor(name, ctors):
    return DatatypeDescriptor(name, tuple(ConstructorSpec(c, tuple(ch)) for c, ch in ctors))


# The public records: field names, field values whose reprs are stable,
# and the repr of the record built from them.
RECORDS = [
    (ConstructorSpec, ("name", "children"), ("suc", ("nat",)),
     "ConstructorSpec(name='suc', children=('nat',))"),
    (DatatypeDescriptor, ("type_name", "constructors"),
     ("nat", (ConstructorSpec("zero", ()), ConstructorSpec("suc", ("nat",)))),
     "DatatypeDescriptor(type_name='nat', constructors=(ConstructorSpec(name='zero', children=()), "
     "ConstructorSpec(name='suc', children=('nat',))))"),
    (LogicCapability, ("unify_step", "occurs", "substitute", "is_ground", "pretty"),
     (len, abs, min, max, repr),
     "LogicCapability(unify_step=<built-in function len>, occurs=<built-in function abs>, "
     "substitute=<built-in function min>, is_ground=<built-in function max>, "
     "pretty=<built-in function repr>)"),
]


@pytest.mark.parametrize("cls, names, values, shown", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
class TestRecords:
    """The derive records are read-only values."""

    def test_positional_and_keyword_construction(self, cls, names, values, shown):
        a, b = cls(*values), cls(**dict(zip(names, values)))
        assert a == b and not a != b and hash(a) == hash(b)
        assert tuple(getattr(a, n) for n in names) == values

    def test_each_field_is_compared(self, cls, names, values, shown):
        for i in range(len(values)):
            changed = list(values)
            changed[i] = "other"
            assert cls(*changed) != cls(*values)

    def test_repr(self, cls, names, values, shown):
        assert repr(cls(*values)) == shown

    def test_fields_are_read_only(self, cls, names, values, shown):
        record = cls(*values)
        for n in names:
            with pytest.raises(AttributeError):
                setattr(record, n, "other")
        assert tuple(getattr(record, n) for n in names) == values


class TestDescriptorValidation:
    def test_duplicate_constructor_rejected(self):
        reg = TypeRegistry()
        reg.declare("color", [("red", []), ("red", [])])
        with pytest.raises(DeriveError, match="duplicate constructor"):
            reg.get("color").capability

    def test_duplicate_constructor_rejected_before_unify(self):
        reg = TypeRegistry()
        color = reg.declare("color", [("red", []), ("red", [])])
        with pytest.raises(DeriveError):
            unify(color.make("red"), color.make("red"), EMPTY_STORE)

    def test_unresolved_child_rejected(self):
        reg = TypeRegistry()
        bad = make_descriptor("tree", [("leaf", []), ("node", ["tree", "missing"])])
        with pytest.raises(DeriveError, match="unresolved child type"):
            derive_capability(bad, reg)

    def test_duplicate_type_name_rejected(self):
        reg = TypeRegistry()
        reg.declare("t", [("a", [])])
        with pytest.raises(DeriveError, match="already declared"):
            reg.declare("t", [("b", [])])

    def test_mutual_recursion_allowed(self):
        reg = TypeRegistry()
        even = reg.declare("even", [("ezero", []), ("esuc", ["odd"])])
        odd = reg.declare("odd", [("osuc", ["even"])])
        term = even.make("esuc", odd.make("osuc", even.make("ezero")))
        assert unify(term, term, EMPTY_STORE) is not None


class TestConstruction:
    def test_arity_checked(self):
        with pytest.raises(TypeMismatchError, match="takes 1 argument"):
            NAT.make("suc")

    def test_child_type_checked(self):
        with pytest.raises(TypeMismatchError, match="expected nat"):
            NAT.make("suc", nil(NAT_LIST))

    def test_nullary_terms_are_shared(self):
        assert NAT.make("zero") is zero()
        assert nil(NAT_LIST) is nil(NAT_LIST)
        reg = TypeRegistry()
        a = reg.declare("a", [("none", [])])
        b = reg.declare("b", [("none", [])])
        assert a.make("none") is a.make("none")
        assert a.make("none") != b.make("none")
        assert a.make("none") is not b.make("none")

    def test_unknown_constructor(self):
        with pytest.raises(DeriveError, match="no constructor"):
            NAT.make("pred", zero())


class TestDerivedBehaviour:
    def test_suc_recurses_into_children(self):
        x = NAT.var("x")
        s = NAT.capability.unify_step(suc(x), suc(zero()), EMPTY_STORE)
        assert s is not None and s.lookup(x.vid) == zero()

    def test_constructor_mismatch_clashes(self):
        assert NAT.capability.unify_step(zero(), suc(zero()), EMPTY_STORE) is None

    def test_list_occurs_over_children(self):
        v = NAT.var("v")
        assert NAT_LIST.capability.occurs(v.vid, cons(suc(v), nil(NAT_LIST)))
        assert not NAT_LIST.capability.occurs(v.vid, cons(zero(), nil(NAT_LIST)))

    def test_capability_shared_by_all_types(self):
        assert NAT.capability is NAT_LIST.capability

    def test_derivation_deterministic(self):
        reg = TypeRegistry()
        t = reg.declare("pair", [("mk", ["pair"]), ("unit", [])])
        cap1 = derive_capability(t.descriptor, reg)
        cap2 = derive_capability(t.descriptor, reg)
        sample = t.make("mk", t.make("unit"))
        assert cap1.pretty(sample) == cap2.pretty(sample)
        assert cap1.is_ground(sample) == cap2.is_ground(sample)

    def test_composition_list_over_list(self):
        # Lists of lists of naturals work with no extra code.
        nested = list_of(NAT_LIST)
        inner = nat_list([1, 2])
        term = cons(inner, nil(nested))
        assert unify(term, term, EMPTY_STORE) is not None
        v = nested.var("w")
        s = unify(v, term, EMPTY_STORE)
        assert s.lookup(v.vid) == term


class TestDeclaredMetadata:
    def test_pretty_override_from_declaration(self):
        reg = TypeRegistry()
        color = reg.declare("color", [("red", [])], pretty_override=lambda c: c.ctor.upper())
        assert pretty(color.make("red")) == "RED"

    def test_user_type_with_nil_and_cons_is_a_list(self):
        reg = TypeRegistry()
        color = reg.declare("color", [("red", []), ("green", [])])
        clist = reg.declare("clist", [("nil", []), ("cons", ["color", "clist"])])
        assert clist.element is color
        red, green = color.make("red"), color.make("green")
        term = as_term([red, green], clist)
        assert term == clist.make("cons", red, clist.make("cons", green, clist.make("nil")))
        x = color.var("x")
        assert find_all(x, member(x, term)) == [red, green]

    def test_cons_tail_of_another_type_is_not_a_list(self):
        reg = TypeRegistry()
        reg.declare("color", [("red", [])])
        reg.declare("clist", [("nil", []), ("cons", ["color", "clist"])])
        half = reg.declare("half", [("nil", []), ("cons", ["color", "clist"])])
        assert half.element is None
        with pytest.raises(TypeMismatchError, match="not a list type"):
            as_term([], half)

    def test_list_of_is_declared_once(self):
        assert list_of(NAT) is list_of(NAT) is NAT_LIST

    def test_list_of_per_registry(self):
        t1 = TypeRegistry().declare("t", [("a", [])])
        t2 = TypeRegistry().declare("t", [("a", [])])
        l1, l2 = list_of(t1), list_of(t2)
        assert l1 is not l2
        assert l1.make("cons", t1.make("a"), nil(l1)) != l2.make("cons", t2.make("a"), nil(l2))
        assert l1.registry is t1.registry and l2.registry is t2.registry

    def test_list_of_name_clash_rejected(self):
        reg = TypeRegistry()
        t = reg.declare("t", [("a", [])])
        reg.declare("list(t)", [("a", [])])
        with pytest.raises(DeriveError):
            list_of(t)


def _pairs(terms):
    return itertools.product(terms, terms)


class TestAgainstHandWritten:
    """Derived capabilities must agree with independent hand-written
    implementations for naturals and lists (smaller sweep here; the
    acceptance suite runs the full depth-4 exhaustive check)."""

    def test_nat_agrees(self):
        terms = ref.nat_terms_upto(3, ("x", "y"))
        v = NAT.var("x")
        cap = NAT.capability
        for t in terms:
            if t.__class__.__name__ == "Var":
                continue
            assert cap.occurs(v.vid, t) == ref.nat_occurs(v.vid, t)
            assert cap.is_ground(t) == ref.nat_is_ground(t)
            assert cap.substitute(v.vid, nat(1), t) == ref.nat_substitute(v.vid, nat(1), t)
            assert cap.pretty(t) == ref.nat_pretty_prefix(t)
        compounds = [t for t in terms if t.__class__.__name__ != "Var"]
        for a, b in _pairs(compounds):
            assert cap.unify_step(a, b, EMPTY_STORE) == ref.nat_unify_step(a, b, EMPTY_STORE)

    def test_list_agrees(self):
        terms = ref.list_terms_upto(3)
        v = NAT_LIST.var("l")
        cap = NAT_LIST.capability
        compounds = [t for t in terms if t.__class__.__name__ != "Var"]
        for t in compounds:
            assert cap.occurs(v.vid, t) == ref.list_occurs(v.vid, t)
            assert cap.is_ground(t) == ref.list_is_ground(t)
            assert cap.pretty(t) == ref.list_pretty_prefix(t)
        for a, b in _pairs(compounds):
            assert cap.unify_step(a, b, EMPTY_STORE) == ref.list_unify_step(a, b, EMPTY_STORE)


class TestRegistryLookup:
    def test_unknown_type_name(self):
        with pytest.raises(DeriveError, match="unknown logical type 'nope'"):
            TypeRegistry().get("nope")
