"""Descriptor/diagram transformation toolkit.

Forward direction: parse a docker-compose style descriptor, lower it onto an
architecture graph, emit a diagram-as-code script or DOT. Inverse direction:
parse a script, lift it back to the graph, emit descriptor text. Consistency
between a descriptor and a diagram is canonical-model equality, which the
round-trip checks verify end to end.

Each public name, and each submodule, is imported on first access (PEP 562),
so ``import dad`` alone loads no submodule and a command loads only the
modules it runs: only ``generate`` and a descriptor's ``check`` load the
emitters, and ``dad diff`` of two scripts loads no descriptor layer either.
"""

import importlib

# defining module -> the public names it exports here
_EXPORTS = {
    "compose": (
        "ComposeSpec MountRef ServiceEntry ValidationIssue issues_ok lower parse_compose "
        "serialize_compose validate"
    ),
    "consistency": (
        "ConsistencyReport DiffEntry DiffKind ReportStats Verdict check_diagram_against_descriptor "
        "compare_models diff_models render_report round_trip_check"
    ),
    "dac_emit": "DEFAULT_ROLE_TABLE DacScript EmitOptions emit_dac emit_dot role_of sanitize_ident",
    "dac_ingest": "DacAst DacEdge DacNode emit_compose lift parse_dac",
    "errors": (
        "ComposeSyntaxError CycleError DacSyntaxError DadError DuplicateIdentError EmitError "
        "LiftError LoweringError ModelError SchemaError UndeclaredIdentError"
    ),
    "model": (
        "ArchModel BuildRef CanonicalForm Edge EdgeKind NetworkNode ServiceNode VolumeNode "
        "assert_acyclic canonicalize model_equal"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset({"cli", "yaml_io", *_EXPORTS})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # the value is not stored here, so a later rebinding in its module shows
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
