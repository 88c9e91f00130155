"""Package exceptions. Every error carries a stable machine-readable code."""


class GramataError(Exception):
    code = "error"

    def __init__(self, message):
        super().__init__(message)
        self.message = message


class ZeroDenominator(GramataError):
    code = "zero-denominator"


class ElementGroupMismatch(GramataError):
    code = "element-group-mismatch"


class SingularMatrix(GramataError):
    code = "singular-matrix"


class NotPositive(GramataError):
    code = "not-positive"


class DeterminantConstraint(GramataError):
    code = "determinant-constraint"


class UnknownSymbol(GramataError):
    code = "unknown-symbol"


class UnknownOracle(GramataError):
    code = "unknown-oracle"


class InstanceTooLarge(GramataError):
    code = "instance-too-large"


class MemoryGuard(GramataError):
    code = "memory-guard"

    def __init__(self, guard, layers=False, charge=1):
        # every search's refusal past the guard, naming its layer counts and its elements' charge when they count
        charged = f", each charged as {charge} elements" if charge > 1 else ""
        super().__init__(f"search stored more than {guard} elements" + (" and layer counts" if layers else "") + charged)


class EfaParseError(GramataError):
    """Raised on malformed machine documents; points at the offending line."""

    code = "parse-error"

    def __init__(self, message, line=None, column=None, cause=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
        # cause keeps the underlying violation code (e.g. determinant-constraint)
        self.cause = cause.code if isinstance(cause, GramataError) else None
