"""Consistency checking: round-trip verification and structural model diffs.

A descriptor and a diagram are consistent when their canonical models are
equal, which is the same as saying the transformation loses nothing over the
retained subset. Residue (ports, passwords, environment) is outside the
diagrams by design; it never sways a verdict and is surfaced as notes.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

from . import compose
from .dac_emit import emit_dac
from .dac_ingest import emit_compose, lift, parse_dac
from .errors import DadError
from .model import ArchModel, CanonicalForm, canonicalize, record


class Verdict(Enum):
    CONSISTENT = "Consistent"
    INCONSISTENT = "Inconsistent"
    INVALID = "Invalid"


class DiffKind(Enum):
    MISSING_NODE = "MissingNode"
    EXTRA_NODE = "ExtraNode"
    MISSING_EDGE = "MissingEdge"
    EXTRA_EDGE = "ExtraEdge"
    ATTRIBUTE_MISMATCH = "AttributeMismatch"

    # identity hashing, as for EdgeKind: the diff sort looks up every entry's kind
    __hash__ = object.__hash__


_KIND_ORDER = {kind: index for index, kind in enumerate(DiffKind)}


@record
class DiffEntry:
    """One discrepancy. Missing* carries a left value only (the right side
    lacks the element), Extra* a right value only, AttributeMismatch both."""

    kind: DiffKind
    subject: str
    left: str | None = None
    right: str | None = None

    def __post_init__(self):
        if self.kind in (DiffKind.MISSING_NODE, DiffKind.MISSING_EDGE):
            ok = self.left is not None and self.right is None
        elif self.kind in (DiffKind.EXTRA_NODE, DiffKind.EXTRA_EDGE):
            ok = self.left is None and self.right is not None
        else:
            ok = self.left is not None and self.right is not None
        if not ok:
            raise ValueError(f"{self.kind.value} entry has the wrong value sides")


@record
class ReportStats:
    left_nodes: int = 0
    left_edges: int = 0
    right_nodes: int = 0
    right_edges: int = 0


@record
class ConsistencyReport:
    verdict: Verdict
    issues: tuple[DiffEntry, ...] = ()
    stats: ReportStats = ReportStats()
    notes: tuple[str, ...] = ()
    error: str | None = None


def _render_attrs(pairs: tuple[tuple[str, str], ...]) -> str:
    return ",".join(f"{key}={value}" for key, value in pairs)


def _diff_named_section(
    section: str,
    left: dict[str, tuple[tuple[str, str], ...]],
    right: dict[str, tuple[tuple[str, str], ...]],
    entries: list[DiffEntry],
) -> None:
    for name in left.keys() - right.keys():
        entries.append(
            DiffEntry(DiffKind.MISSING_NODE, f"{section}.{name}", left=_render_attrs(left[name]))
        )
    for name in right.keys() - left.keys():
        entries.append(
            DiffEntry(DiffKind.EXTRA_NODE, f"{section}.{name}", right=_render_attrs(right[name]))
        )
    for name in left.keys() & right.keys():
        left_attrs, right_attrs = dict(left[name]), dict(right[name])
        for key in sorted(left_attrs.keys() | right_attrs.keys()):
            lv, rv = left_attrs.get(key, ""), right_attrs.get(key, "")
            if lv != rv:
                entries.append(
                    DiffEntry(
                        DiffKind.ATTRIBUTE_MISMATCH, f"{section}.{name}.{key}", left=lv, right=rv
                    )
                )


def _canonical(model: ArchModel | CanonicalForm) -> CanonicalForm:
    # a form that is already canonical is used as is, so that one compare
    # canonicalizes each side once
    return model if isinstance(model, CanonicalForm) else canonicalize(model)


def diff_models(
    left: ArchModel | CanonicalForm, right: ArchModel | CanonicalForm
) -> list[DiffEntry]:
    """Structural difference of the canonical forms, deterministic and sorted.

    Nodes pair by name, edges by (kind, src, dst) with exact matches consumed
    first; a paired mount whose targets disagree is one AttributeMismatch
    rather than a missing/extra pair.
    """
    ca, cb = _canonical(left), _canonical(right)
    entries: list[DiffEntry] = []

    _diff_named_section("services", dict(ca.services), dict(cb.services), entries)
    _diff_named_section(
        "volumes", {n: () for n in ca.volumes}, {n: () for n in cb.volumes}, entries
    )
    _diff_named_section(
        "networks", {n: () for n in ca.networks}, {n: () for n in cb.networks}, entries
    )

    # leftover edges, grouped by (kind, src, dst) into sorted (left, right) targets
    left_edges, right_edges = Counter(ca.edges), Counter(cb.edges)
    groups: dict[tuple[str, str, str], tuple[list[str], list[str]]] = {}
    for side, rest in enumerate((left_edges - right_edges, right_edges - left_edges)):
        for kind, src, dst, target in sorted(rest.elements()):
            groups.setdefault((kind, src, dst), ([], []))[side].append(target)
    for kind, src, dst in sorted(groups):
        subject = f"edges.{kind}.{src}->{dst}"
        l_targets, r_targets = groups[kind, src, dst]
        paired = min(len(l_targets), len(r_targets))
        for lv, rv in zip(l_targets[:paired], r_targets[:paired]):
            entries.append(
                DiffEntry(DiffKind.ATTRIBUTE_MISMATCH, f"{subject}.target", left=lv, right=rv)
            )
        for lv in l_targets[paired:]:
            entries.append(DiffEntry(DiffKind.MISSING_EDGE, subject, left=lv))
        for rv in r_targets[paired:]:
            entries.append(DiffEntry(DiffKind.EXTRA_EDGE, subject, right=rv))

    entries.sort(key=lambda e: (_KIND_ORDER[e.kind], e.subject))
    return entries


def _stats(ca: CanonicalForm, cb: CanonicalForm) -> ReportStats:
    return ReportStats(
        left_nodes=ca.node_count(),
        left_edges=ca.edge_count(),
        right_nodes=cb.node_count(),
        right_edges=cb.edge_count(),
    )


def _residue_notes(spec: compose.ComposeSpec) -> tuple[str, ...]:
    return tuple(f"residue excluded from diagram: {path}" for path in spec.residue_paths())


def _verdict_for(entries: list[DiffEntry]) -> Verdict:
    return Verdict.CONSISTENT if not entries else Verdict.INCONSISTENT


def compare_models(
    left: ArchModel | CanonicalForm,
    right: ArchModel | CanonicalForm,
    notes: tuple[str, ...] = (),
) -> ConsistencyReport:
    """Diff two already-built models and wrap the result in a report."""
    ca, cb = canonicalize(left), canonicalize(right)
    entries = diff_models(ca, cb)
    return ConsistencyReport(
        verdict=_verdict_for(entries),
        issues=tuple(entries),
        stats=_stats(ca, cb),
        notes=notes,
    )


def _gate_detail(issues) -> str:
    # severity is implied by the Invalid verdict; repeating it would read
    # "error: error: ..." in rendered reports
    return "; ".join(
        f"{issue.code}({issue.path}): {issue.message}"
        for issue in issues
        if issue.severity == "error"
    )


def round_trip_check(descriptor_text: str, strict: bool = False) -> ConsistencyReport:
    """Run the descriptor through the full loop and diff what comes back.

    descriptor -> model -> diagram script -> model -> descriptor -> model,
    then compare the first and last models canonically. Pipeline failures
    (YAML syntax, schema shapes, strict validation, dependency cycles) yield
    an Invalid verdict carrying the error text; this never raises.
    """
    try:
        spec = compose.parse_compose(descriptor_text)
        issues = compose.validate(spec, strict=strict)
        if not compose.issues_ok(issues):
            return ConsistencyReport(Verdict.INVALID, error=_gate_detail(issues))
        original = compose.lower(spec, strict=strict)
        script = emit_dac(original)
        lifted = lift(parse_dac(script.text))
        descriptor_back = emit_compose(lifted)
        relowered = compose.lower(
            compose.parse_compose(descriptor_back), fallback_title=original.title
        )
    except DadError as exc:
        return ConsistencyReport(Verdict.INVALID, error=str(exc))
    return compare_models(original, relowered, notes=_residue_notes(spec))


def check_diagram_against_descriptor(
    dac_text: str, descriptor_text: str, strict: bool = False
) -> ConsistencyReport:
    """Compare an existing diagram script with a descriptor.

    The descriptor model is the left side, the diagram model the right, so a
    node only the diagram shows reports as ExtraNode. Parse or validation
    failure on either side yields Invalid.
    """
    try:
        spec = compose.parse_compose(descriptor_text)
        issues = compose.validate(spec, strict=strict)
        if not compose.issues_ok(issues):
            return ConsistencyReport(Verdict.INVALID, error=_gate_detail(issues))
        descriptor_model = compose.lower(spec, strict=strict)
        diagram_model = lift(parse_dac(dac_text, strict=strict))
    except DadError as exc:
        return ConsistencyReport(Verdict.INVALID, error=str(exc))
    return compare_models(descriptor_model, diagram_model, notes=_residue_notes(spec))


def _clean(value: str | None) -> str:
    if value is None:
        return ""
    return value.replace("\t", " ").replace("\n", " ")


def render_report(report: ConsistencyReport, fmt: str = "text") -> str:
    """Serialize a report; fmt is "text" (human) or "machine" (tab-separated).

    Machine lines: `verdict\\t<v>`, `stats\\t<ln>\\t<le>\\t<rn>\\t<re>`, one
    `<kind>\\t<subject>\\t<left>\\t<right>` line per issue, `note\\t<text>`
    per note, `error\\t<text>` when invalid.
    """
    if fmt == "machine":
        lines = [f"verdict\t{report.verdict.value}"]
        stats = report.stats
        lines.append(
            f"stats\t{stats.left_nodes}\t{stats.left_edges}\t{stats.right_nodes}\t{stats.right_edges}"
        )
        for entry in report.issues:
            lines.append(
                f"{entry.kind.value}\t{_clean(entry.subject)}\t{_clean(entry.left)}\t{_clean(entry.right)}"
            )
        for note in report.notes:
            lines.append(f"note\t{_clean(note)}")
        if report.error is not None:
            lines.append(f"error\t{_clean(report.error)}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    lines = [f"verdict: {report.verdict.value}"]
    if report.error is not None:
        lines.append(f"error: {report.error}")
    else:
        stats = report.stats
        lines.append(
            f"compared: left {stats.left_nodes} nodes / {stats.left_edges} edges, "
            f"right {stats.right_nodes} nodes / {stats.right_edges} edges"
        )
    if report.issues:
        lines.append(f"issues ({len(report.issues)}):")
        for entry in report.issues:
            detail = ""
            if entry.kind is DiffKind.ATTRIBUTE_MISMATCH:
                detail = f" (left: {entry.left!r}, right: {entry.right!r})"
            elif entry.left is not None and entry.left:
                detail = f" (left: {entry.left})"
            elif entry.right is not None and entry.right:
                detail = f" (right: {entry.right})"
            lines.append(f"  {entry.kind.value} {entry.subject}{detail}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
