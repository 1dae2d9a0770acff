"""Consistency checking: round-trip verification and structural model diffs.

A descriptor and a diagram are consistent when their canonical models are
equal, which is the same as saying the transformation loses nothing over the
retained subset. Residue (ports, passwords, environment) is outside the
diagrams by design; it never sways a verdict and is surfaced as notes.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from .dac_ingest import emit_compose, lift, parse_dac
from .errors import DadError
from .model import ArchModel, CanonicalForm, edge_order, keyed, record
from .model import canonicalize  # noqa: F401  (callers still read it from this module)

if TYPE_CHECKING:
    from .compose import ComposeSpec


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
# the value sides, (left, right), each kind carries; a kind outside it needs both
_SIDES = {
    DiffKind.MISSING_NODE: (True, False),
    DiffKind.MISSING_EDGE: (True, False),
    DiffKind.EXTRA_NODE: (False, True),
    DiffKind.EXTRA_EDGE: (False, True),
}


@record
class DiffEntry:
    """One discrepancy. Missing* carries a left value only (the right side
    lacks the element), Extra* a right value only, AttributeMismatch both."""

    kind: DiffKind
    subject: str
    left: str | None = None
    right: str | None = None

    def __post_init__(self):
        if _SIDES.get(self.kind, (True, True)) != (self.left is not None, self.right is not None):
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
    # sorted by key, as a canonical form holds them
    return ",".join(f"{key}={value}" for key, value in sorted(pairs))


def _diff_named_section(
    section: str,
    left: dict[str, tuple[tuple[str, str], ...]],
    right: dict[str, tuple[tuple[str, str], ...]],
    entries: list[DiffEntry],
) -> None:
    # only the names whose attribute pairs differ, found by lookups;
    # diff_models sorts the entries
    for name, left_pairs in left.items():
        right_pairs = right.get(name)
        if right_pairs is None:
            subject = f"{section}.{name}"
            entries.append(DiffEntry(DiffKind.MISSING_NODE, subject, _render_attrs(left_pairs)))
        elif right_pairs != left_pairs:
            left_attrs, right_attrs = dict(left_pairs), dict(right_pairs)
            for key in left_attrs.keys() | right_attrs.keys():
                # an attribute set to "" differs from one that is absent
                lv, rv = left_attrs.get(key), right_attrs.get(key)
                if lv != rv:
                    entries.append(
                        DiffEntry(
                            DiffKind.ATTRIBUTE_MISMATCH,
                            f"{section}.{name}.{key}",
                            "" if lv is None else lv,
                            "" if rv is None else rv,
                        )
                    )
    for name, right_pairs in right.items():
        if name not in left:
            subject = f"{section}.{name}"
            entries.append(DiffEntry(DiffKind.EXTRA_NODE, subject, None, _render_attrs(right_pairs)))


def diff_models(
    left: ArchModel | CanonicalForm, right: ArchModel | CanonicalForm
) -> list[DiffEntry]:
    """Structural difference of two models, deterministic and sorted.

    The list is empty exactly when ``model_equal`` holds. Nodes pair by name,
    edges by (kind, src, dst) with exact matches consumed first; a paired
    mount whose targets disagree is one AttributeMismatch rather than a
    missing/extra pair. Each side is keyed once into lookup tables (``keyed``),
    the tables are compared by lookups, and only the differences are sorted,
    so the cost is linear in the models plus a sort of what differs.
    """
    *left_nodes, left_edges = keyed(left)
    *right_nodes, right_edges = keyed(right)
    entries: list[DiffEntry] = []
    sections = zip(("services", "volumes", "networks"), left_nodes, right_nodes)
    for section, left_names, right_names in sections:
        _diff_named_section(section, left_names, right_names, entries)

    # leftover edges: the keys whose counts differ, sorted, grouped by
    # (kind, src, dst) into sorted (left, right) targets; no target prints as ''
    # dict.get, not Counter's __missing__, reads an absent key as 0
    left_count, right_count = left_edges.get, right_edges.get
    changed = [key for key, count in left_edges.items() if right_count(key) != count]
    changed += [key for key in right_edges if key not in left_edges]
    groups: dict[tuple[str, str, str], tuple[list[str], list[str]]] = {}
    for key in sorted(changed, key=edge_order):
        kind, src, dst, target = key
        if target is None:
            target = ""
        surplus = left_count(key, 0) - right_count(key, 0)
        l_targets, r_targets = groups.setdefault((kind, src, dst), ([], []))
        if surplus > 0:
            l_targets.extend([target] * surplus)
        else:
            r_targets.extend([target] * -surplus)
    mismatch, missing, extra = (
        DiffKind.ATTRIBUTE_MISMATCH,
        DiffKind.MISSING_EDGE,
        DiffKind.EXTRA_EDGE,
    )
    for (kind, src, dst), (l_targets, r_targets) in groups.items():
        subject = f"edges.{kind}.{src}->{dst}"
        paired = min(len(l_targets), len(r_targets))
        for lv, rv in zip(l_targets[:paired], r_targets[:paired]):
            entries.append(DiffEntry(mismatch, f"{subject}.target", lv, rv))
        for lv in l_targets[paired:]:
            entries.append(DiffEntry(missing, subject, lv))
        for rv in r_targets[paired:]:
            entries.append(DiffEntry(extra, subject, None, rv))

    entries.sort(key=lambda e: (_KIND_ORDER[e.kind], e.subject))
    return entries


def _stats(left: ArchModel | CanonicalForm, right: ArchModel | CanonicalForm) -> ReportStats:
    # a model ArchModel.validate accepts and its canonical form hold the same
    # number of each element; a canonical form counts a repeated name once
    return ReportStats(
        left_nodes=len(left.services) + len(left.volumes) + len(left.networks),
        left_edges=len(left.edges),
        right_nodes=len(right.services) + len(right.volumes) + len(right.networks),
        right_edges=len(right.edges),
    )


def _residue_notes(spec: ComposeSpec, prefix: str = "") -> tuple[str, ...]:
    """One note per residue path of ``spec``, then one per build that ``lower`` drops
    for a service that also has an image; ``prefix`` names the input it came from."""
    paths = spec.residue_paths()
    for name, entry in spec.services.items():
        if entry.image is not None and entry.build is not None:
            paths.append(f"services.{name}.build")
    return tuple(f"residue excluded from diagram: {prefix}{path}" for path in paths)


def compare_models(
    left: ArchModel | CanonicalForm,
    right: ArchModel | CanonicalForm,
    notes: tuple[str, ...] = (),
) -> ConsistencyReport:
    """Diff two already-built models and wrap the result in a report."""
    entries = diff_models(left, right)
    return ConsistencyReport(
        verdict=Verdict.INCONSISTENT if entries else Verdict.CONSISTENT,
        issues=tuple(entries),
        stats=_stats(left, right),
        notes=notes,
    )


def round_trip_check(descriptor_text: str, strict: bool = False) -> ConsistencyReport:
    """Run the descriptor through the full loop and diff what comes back.

    descriptor -> model -> diagram script -> model -> descriptor -> model,
    then compare the first and last models canonically. Both descriptors pass
    ``compose.load_model`` in one mode. Its failures (YAML syntax, schema shapes,
    validation, dependency cycles) and any hop's yield Invalid; this never raises.
    """
    from . import compose
    from .dac_emit import emit_dac

    try:
        original, spec, _ = compose.load_model(descriptor_text, strict)
        # the parsed descriptor and the script are let go before the later
        # hops, so the garbage collector has less to walk while they run
        notes = _residue_notes(spec)
        del spec
        descriptor_back = emit_compose(lift(parse_dac(emit_dac(original).text)))
        relowered = compose.load_model(descriptor_back, strict)[0]
    except DadError as exc:
        return ConsistencyReport(Verdict.INVALID, error=str(exc))
    return compare_models(original, relowered, notes=notes)


def check_diagram_against_descriptor(
    dac_text: str, descriptor_text: str, strict: bool = False
) -> ConsistencyReport:
    """Compare an existing diagram script with a descriptor.

    The descriptor model is the left side, the diagram model the right, so a
    node only the diagram shows reports as ExtraNode. A failure of
    ``compose.load_model`` or ``lift``, a dependency cycle included, yields Invalid.
    """
    from . import compose

    try:
        descriptor_model, spec, _ = compose.load_model(descriptor_text, strict)
        diagram_model = lift(parse_dac(dac_text, strict=strict))
    except DadError as exc:
        return ConsistencyReport(Verdict.INVALID, error=str(exc))
    return compare_models(descriptor_model, diagram_model, notes=_residue_notes(spec))


# The field separator and every character str.splitlines breaks at: both
# reports and the CLI's stderr write each as a space, so one entry stays one line.
_FIELD_BREAKS = str.maketrans(dict.fromkeys("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", " "))


def _clean(value: str | None) -> str:
    if value is None:
        return ""
    # each of those characters is unprintable, and most values have none
    return value if value.isprintable() else value.translate(_FIELD_BREAKS)


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
            elif entry.left:
                detail = f" (left: {entry.left})"
            elif entry.right:
                detail = f" (right: {entry.right})"
            lines.append(f"  {entry.kind.value} {entry.subject}{detail}")
    lines.extend(f"note: {note}" for note in report.notes)
    # as in the machine report, a name or value holding a line break stays on its line
    return "\n".join(map(_clean, lines)) + "\n"
