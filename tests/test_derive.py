import itertools

import pytest

import reference as ref
from typelog.derive import (
    ConstructorSpec,
    DatatypeDescriptor,
    DeriveError,
    TypeRegistry,
    derive_capability,
)
from typelog.prelude import NAT, NAT_LIST, cons, list_of, nat, nat_list, nil, suc, zero
from typelog.terms import EMPTY_STORE, TypeMismatchError, unify


def make_descriptor(name, ctors):
    return DatatypeDescriptor(name, tuple(ConstructorSpec(c, tuple(ch)) for c, ch in ctors))


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
