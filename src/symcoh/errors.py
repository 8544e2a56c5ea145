"""Exception types shared across the package."""


class SymcohError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SymcohError):
    """Structure-constant arrays or matrices have inconsistent shapes."""


class NotAHopfAlgebra(SymcohError):
    """Structure constants fail a Hopf axiom."""


class NotAGroup(SymcohError):
    """A Cayley table fails the group axioms."""


class NotCocommutative(SymcohError):
    """A symmetric-action construction was asked for on a non-cocommutative algebra."""


class NotCommutative(SymcohError):
    """The commutative-case factorization check got a non-commutative algebra."""


class InvalidModule(SymcohError):
    """Action matrices fail the left-module identities."""


class InvalidBimodule(SymcohError):
    """Action matrices fail the bimodule identities."""


class ActionNotCompatible(SymcohError):
    """A differential maps a fixed vector outside the fixed subspace."""


class ActionLeavesSubspace(SymcohError):
    """An operator does not preserve the subspace it is restricted to."""


class NotASubcomplex(SymcohError):
    """induced map requested between complexes that are not nested."""


class DegreeOutOfRange(SymcohError):
    """A cohomology degree beyond the constructed range was requested."""


class CharacteristicDivides(SymcohError):
    """The field characteristic divides n+1, so the splitting maps do not exist."""


class InvalidPrime(SymcohError):
    """cp_rank_table needs an odd prime."""


class BudgetExceeded(SymcohError):
    """A construction would exceed the configured coordinate budget."""


class SchemaError(SymcohError):
    """An input file does not match the JSON schema."""
