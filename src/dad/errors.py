"""Exception hierarchy shared by the parsing, lowering and emission pipelines."""

from __future__ import annotations


class DadError(Exception):
    """Base class for all library errors; the CLI maps these to exit code 2."""


class ComposeSyntaxError(DadError):
    """Descriptor text is not well-formed YAML."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"{message}{where}")


class SchemaError(DadError):
    """A retained descriptor key has the wrong shape (e.g. depends_on not a list)."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class DacSyntaxError(DadError):
    """Diagram script text does not match the DaC grammar."""

    def __init__(self, message: str, line: int, col: int = 1, expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        detail = f"; expected {expected}" if expected else ""
        super().__init__(f"line {line}, col {col}: {message}{detail}")


class DuplicateIdentError(DadError):
    def __init__(self, ident: str, line: int):
        self.ident = ident
        self.line = line
        super().__init__(f"line {line}: identifier {ident!r} already declared")


class UndeclaredIdentError(DadError):
    def __init__(self, ident: str, line: int):
        self.ident = ident
        self.line = line
        super().__init__(f"line {line}: identifier {ident!r} used before declaration")


class ModelError(DadError):
    """An architecture model violates a structural invariant."""


class CycleError(ModelError):
    """The dependency-edge subgraph contains a directed cycle.

    `cycle` is one witness path as a node-name list whose first and last
    entries are the same node.
    """

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("dependency cycle: " + " -> ".join(self.cycle))


class LoweringError(DadError):
    """The descriptor failed validation; ``issues`` holds every issue found."""

    def __init__(self, issues):
        super().__init__(issues)
        self.issues = list(issues)

    def __str__(self) -> str:
        # the errors only: severity is implied, and repeating it would read
        # "error: error: ..." in rendered reports
        errors = (issue for issue in self.issues if issue.severity == "error")
        return "; ".join(f"{issue.code}({issue.path}): {issue.message}" for issue in errors)


class LiftError(DadError):
    """A parsed diagram script cannot be mapped onto the architecture model."""


class EmitError(DadError):
    """Emission refused to produce output (invalid model or unrepresentable data)."""
