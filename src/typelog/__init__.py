"""Typed embedded logic programming.

Terms over algebraic data types may contain logic variables at any
position; goals combine unification constraints with conjunction,
disjunction, fresh variables, scoped cuts, and negation as failure;
`@predicate` compiles a goal-building function once per argument type;
a depth-first solver streams answers lazily, Prolog-style.
"""

from .derive import (
    ConstructorSpec,
    DatatypeDescriptor,
    DeriveError,
    LogicCapability,
    LogicType,
    TypeRegistry,
    derive_capability,
)
from .goals import (
    Goal,
    conj,
    cut_then,
    disj,
    eq,
    exists,
    fail_goal,
    is_ground,
    neg,
    neq,
    predicate,
    scope,
    succeed,
)
from .solve import (
    Solution,
    StepBudgetExceeded,
    find_all,
    find_all_n,
    holds,
    solve,
    solve_stores,
)
from .terms import (
    EMPTY_STORE,
    BindingStore,
    Compound,
    LogicError,
    Term,
    TypeMismatchError,
    Var,
    VarId,
    is_ground_term,
    occurs_in,
    pretty,
    resolve,
    substitute,
    unify,
    walk,
)

__all__ = [
    "BindingStore", "Compound", "ConstructorSpec", "DatatypeDescriptor",
    "DeriveError", "EMPTY_STORE", "Goal", "LogicCapability", "LogicError",
    "LogicType", "Solution", "StepBudgetExceeded", "Term", "TypeMismatchError",
    "TypeRegistry", "Var", "VarId", "conj", "cut_then", "derive_capability",
    "disj", "eq", "exists", "fail_goal", "find_all", "find_all_n", "holds",
    "is_ground", "is_ground_term", "neg", "neq", "occurs_in", "predicate", "pretty",
    "resolve", "scope", "solve", "solve_stores", "substitute", "succeed",
    "unify", "walk",
]
