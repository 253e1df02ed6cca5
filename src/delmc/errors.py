"""Exception taxonomy shared by every module in the package.

All library errors derive from DelmcError so callers can catch one type.
User-input problems (bad files, bad formulas, names that do not resolve)
and structural precondition failures get their own subclasses; the CLI
maps them onto exit codes.
"""


class DelmcError(Exception):
    """Base class for all errors raised by this package."""


class CarrierMismatch(DelmcError):
    """Two values were combined whose carriers are not the same set."""


class AgentMismatch(DelmcError):
    """Two frames or models were combined over different agent sets."""


class CodomainMismatch(DelmcError):
    """A cospan was expected but the maps land in different frames."""


class NotAFunction(DelmcError):
    """A relation was used where a (total, single-valued) function is required."""


class NotMonotone(DelmcError):
    """A frame map was used where a monotone map is required."""


class CapExceeded(DelmcError):
    """An exhaustive check or a construction would pass its size cap."""


class NotAPullback(DelmcError):
    """A commuting square's apex is not the fibered product of its cospan."""


class OutOfRange(DelmcError):
    """A numeric argument lies below the least value its operation accepts."""


class EmptyGroup(DelmcError):
    """A group operation was asked for with no agents in the group."""


class UnknownAtom(DelmcError):
    """Formula mentions an atom the model's valuation does not define."""


class UnknownAgent(DelmcError):
    """Formula or operation mentions an agent the frame does not carry."""


class UnknownEvent(DelmcError):
    """An event name does not occur in the event model."""


class UnknownSuite(DelmcError):
    """A law suite name is not one of the suites the package runs."""


class UnresolvedEventModel(DelmcError):
    """A dynamic operator references an event-model name missing from the registry."""


class UnknownSymbol(DelmcError):
    """A function or relation symbol is not declared in the signature."""


class ArityMismatch(DelmcError):
    """A symbol was applied to the wrong number of arguments."""


class VariableCapture(DelmcError):
    """A substitution would move a free variable under a binder for it."""


class OpenPrecondition(DelmcError):
    """An event precondition has free variables where a sentence is required."""


class CyclicPrecondition(DelmcError):
    """Event models whose preconditions refer to each other, so no update ends."""


class ShadowedVariable(DelmcError):
    """A quantifier binds a variable that its context already holds."""


class SchemaError(DelmcError):
    """A model document does not match the expected JSON schema."""


class InvariantViolation(DelmcError):
    """A structural invariant failed; the message names it with a witness."""


class NotReducible(DelmcError):
    """The reduction rewriter cannot eliminate a dynamic operator."""


class ParseError(DelmcError):
    """Formula text could not be parsed.

    Carries the 1-based line/column of the offending token plus what was
    expected and what was found, so tools can point at the exact spot.
    """

    def __init__(self, message, line, column, expected=None, found=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found

    def __str__(self):
        base = super().__str__()
        return f"{base} (line {self.line}, column {self.column})"
