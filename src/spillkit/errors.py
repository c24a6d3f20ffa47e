"""Exception types shared by all solver modules."""


class SpillkitError(Exception):
    pass


class WrongShapeError(SpillkitError):
    """Solver applied to an instance shape it does not handle."""


class UnsupportedModeError(SpillkitError):
    """Hole semantics requested where they are undefined (or vice versa)."""


class MalformedCodeError(SpillkitError):
    """Instance violates a structural invariant a solver relies on."""


class SizeCapError(SpillkitError):
    """Exhaustive enumeration refused: instance exceeds the configured cap."""

    def __init__(self, n, cap, what="variables"):
        super().__init__(f"instance has {n} {what}, exhaustive cap is {cap}")
        self.n = n
        self.cap = cap


class BudgetExceededError(SpillkitError):
    """Dynamic-programming state budget (or search budget) exhausted."""


class InfeasibleError(SpillkitError):
    """No spill set can reach the target pressure; carries a witness sample."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ParseError(SpillkitError):
    """Instance text is syntactically or semantically invalid."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column
