"""Diagram emission: ArchModel -> diagram-as-code script / DOT text.

The script grammar (shared with the ingestion side, bit-exact):

    script   := header NL (body | INDENT "pass" NL)
    header   := 'with DaC("' TITLE '", direction="' ("TB"|"LR") '"):'
    body     := (cluster | edge)+
    cluster  := INDENT 'with Cluster("' NAME '"):' NL node+
    node     := INDENT INDENT IDENT " = " KIND '("' LABEL '")' annot? NL
    KIND     := "Server" | "Storage" | "Network"
    edge     := INDENT IDENT " >> " IDENT annot? NL
              | INDENT IDENT " - " IDENT annot? NL
    annot    := "  # " KV ("," KV)*        ; KV := KEY "=" VALUE, no "=" padding

INDENT is two spaces, encoding UTF-8, line endings LF. Quoted TITLE, NAME and
LABEL text escapes backslash and quote with a backslash, and control
characters as \\n, \\r, \\t or \\xHH. Emission is deterministic, so equal
models with equal options give byte-identical text.
Trailing annotations carry the node attributes and mount targets that the
pictures alone would lose; they are what makes the inverse direction
information-preserving.

The reader, ``dac_ingest``, owns what both sides share: the KIND word per node
class, the named escapes (inverted here), the decoders and the emitters'
guard, so a command that only reads a script never loads this module.
"""

from __future__ import annotations

import re

from .dac_ingest import _KIND_BY_NODE, _NAMED_CONTROLS, _checked
from .errors import EmitError
from .model import _EDGE_DST, _NODE_NOUN, ArchModel, EdgeKind, NetworkNode, ServiceNode, VolumeNode
from .model import _attr_pairs, record

# First matching image substring wins; no match means role "service".
DEFAULT_ROLE_TABLE: tuple[tuple[str, str], ...] = (
    ("mysql", "database"),
    ("postgres", "database"),
    ("mongo", "database"),
    ("mariadb", "database"),
    ("redis", "database"),
    ("kafka", "messaging"),
    ("rabbitmq", "messaging"),
    ("zookeeper", "messaging"),
    ("nginx", "gateway"),
    ("traefik", "gateway"),
    ("haproxy", "gateway"),
)


@record
class EmitOptions:
    direction: str = "TB"
    group_by_role: bool = False
    role_table: tuple[tuple[str, str], ...] = DEFAULT_ROLE_TABLE

    def __post_init__(self):
        if self.direction not in ("TB", "LR"):
            raise EmitError(f"direction must be TB or LR, got {self.direction!r}")
        for substring, role in self.role_table:
            if not substring:
                raise EmitError("role table substrings must be nonempty")
            if not role:
                raise EmitError("role table roles must be nonempty")


@record
class DacScript:
    text: str
    # (ident, constructor kind, label) per emitted node, in script order
    identifiers: tuple[tuple[str, str, str], ...] = ()


def _ident_base(name: str) -> str:
    base = "".join(
        ch.lower() if ("A" <= ch <= "Z" or "a" <= ch <= "z" or "0" <= ch <= "9") else "_"
        for ch in name
    )
    if not base or "0" <= base[0] <= "9":
        base = "_" + base
    return base


def sanitize_ident(name: str, taken: set[str]) -> str:
    """Turn an arbitrary node name into a unique script identifier.

    ASCII letters/digits are kept lowercased, everything else becomes an
    underscore, a leading digit gets an underscore prefix and an empty name
    is ``_``. Collisions take the first free ``_2``, ``_3``, ... suffix.
    """
    base = _ident_base(name)
    if base not in taken:
        return base
    return f"{base}_{_free_suffix(base, taken, 2)}"


def _free_suffix(base: str, taken: set[str], n: int) -> int:
    """The first suffix from n on whose ``base_n`` is not taken."""
    while f"{base}_{n}" in taken:
        n += 1
    return n


# Control characters would break a script line (or be rewritten by universal
# newline reading); they travel as escapes instead.
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f-\x9f]")
_NAMED_ESCAPES = {ch: code for code, ch in _NAMED_CONTROLS.items()}


def _escape_control(match: re.Match) -> str:
    ch = match.group()
    code = _NAMED_ESCAPES.get(ch)
    return f"\\{code}" if code else f"\\x{ord(ch):02x}"


def escape_quoted(value: str) -> str:
    """Escape a label or title for a double-quoted script or DOT string.

    Backslash and quote get a backslash; control characters become ``\\n``,
    ``\\r``, ``\\t`` or ``\\xHH``. Text without them keeps its bytes.
    """
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return _CONTROL_RE.sub(_escape_control, escaped)


def encode_annot_value(value: str) -> str:
    """Percent-encode the characters that would break the k=v,k=v syntax."""
    encoded = (
        value.replace("%", "%25").replace(",", "%2C").replace("\r", "%0D").replace("\n", "%0A")
    )
    if encoded.startswith(" "):
        encoded = "%20" + encoded[1:]
    if encoded.endswith(" "):
        encoded = encoded[:-1] + "%20"
    return encoded


def _format_annotations(pairs: tuple[tuple[str, str], ...]) -> str:
    if not pairs:
        return ""
    return "  # " + ",".join(f"{key}={encode_annot_value(value)}" for key, value in pairs)


def _node_annotations(node) -> tuple[tuple[str, str], ...]:
    pairs = _attr_pairs(node) if isinstance(node, ServiceNode) else ()
    return pairs + (("phantom", "true"),) if node.phantom else pairs


def role_of(node: ServiceNode, role_table: tuple[tuple[str, str], ...]) -> str:
    if node.image:
        for substring, role in role_table:
            if substring in node.image:
                return role
    return "service"


_Layout = list[tuple[object, str]]
_Idents = dict[tuple[type, str], str]


def _layout(model: ArchModel, opts: EmitOptions) -> tuple[_Layout, _Idents]:
    """(node, identifier) in emission order, and identifiers by (node type, name).

    Services come first (stable-sorted by role when grouping is on), then
    volumes, then networks. Identifiers are what sanitize_ident would give
    each node in turn; a next-suffix counter per base keeps names that share
    a base from rescanning the suffixes already taken.
    """
    services = list(model.services)
    if opts.group_by_role:
        services.sort(key=lambda node: role_of(node, opts.role_table))  # stable
    taken: set[str] = set()
    next_suffix: dict[str, int] = {}
    layout = []
    for node in (*services, *model.volumes, *model.networks):
        base = ident = _ident_base(node.name)
        if ident in taken:
            n = _free_suffix(base, taken, next_suffix.get(base, 2))
            next_suffix[base] = n + 1
            ident = f"{base}_{n}"
        taken.add(ident)
        layout.append((node, ident))
    return layout, {(type(node), node.name): ident for node, ident in layout}


def _endpoints(edge, idents: _Idents) -> tuple[str, str]:
    return idents[ServiceNode, edge.src], idents[_EDGE_DST[edge.kind], edge.dst]


def emit_dac(model: ArchModel, opts: EmitOptions | None = None) -> DacScript:
    """Render the model as a diagram script.

    Node order is model order (stable-sorted by role first when grouping is
    on), one cluster per node, then every edge at body level: ``a >> b`` for
    dependencies, ``a - b`` for links, mounts and attachments.
    """
    opts = opts or EmitOptions()
    _checked(model)

    layout, idents = _layout(model, opts)
    identifiers = tuple((ident, _KIND_BY_NODE[type(node)], node.name) for node, ident in layout)

    lines = [f'with DaC("{escape_quoted(model.title)}", direction="{opts.direction}"):']
    if not layout and not model.edges:
        lines.append("  pass")
    for node, ident in layout:
        label = escape_quoted(node.name)
        suffix = _NODE_NOUN[type(node)]
        kind = _KIND_BY_NODE[type(node)]
        annot = _format_annotations(_node_annotations(node))
        lines.append(f'  with Cluster("{label} {suffix}"):')
        lines.append(f'    {ident} = {kind}("{label}"){annot}')
    for edge in model.edges:
        op = ">>" if edge.kind is EdgeKind.DEPENDENCY else "-"
        annot = _format_annotations((("target", edge.target),) if edge.target is not None else ())
        src, dst = _endpoints(edge, idents)
        lines.append(f"  {src} {op} {dst}{annot}")
    return DacScript(text="\n".join(lines) + "\n", identifiers=identifiers)


_DOT_SHAPE = {ServiceNode: "box", VolumeNode: "cylinder", NetworkNode: "diamond"}
# DOT's keywords, in any case, cannot be bare IDs; identifiers are lowercase,
# so these are the ones to quote
_DOT_QUOTED = {
    word: f'"{word}"' for word in ("node", "edge", "graph", "digraph", "subgraph", "strict")
}
_DOT_EDGE_ATTRS = {
    EdgeKind.DEPENDENCY: [],
    EdgeKind.LINK: ["dir=none"],
    EdgeKind.MOUNT: ["dir=none", "style=dashed"],
    EdgeKind.ATTACHMENT: ["dir=none", "style=dotted"],
}


def emit_dot(model: ArchModel, opts: EmitOptions | None = None) -> str:
    """Render the model as a DOT digraph (same node order rules as emit_dac).

    Services are boxes, volumes cylinders, networks diamonds; dependency
    edges are directed, the symmetric kinds carry dir=none with a per-kind
    line style; mount edges are labeled with their target path. Node IDs are
    the script's identifiers, quoted where one is a DOT keyword.
    """
    opts = opts or EmitOptions()
    _checked(model)

    layout, idents = _layout(model, opts)
    dot_id = _DOT_QUOTED.get
    lines = [f'digraph "{escape_quoted(model.title)}" {{', f"  rankdir={opts.direction};"]
    for node, ident in layout:
        attrs = [f"shape={_DOT_SHAPE[type(node)]}", f'label="{escape_quoted(node.name)}"']
        if node.phantom:
            attrs.append("style=dashed")
        lines.append(f'  {dot_id(ident, ident)} [{", ".join(attrs)}];')
    for edge in model.edges:
        attrs = list(_DOT_EDGE_ATTRS[edge.kind])
        if edge.kind is EdgeKind.MOUNT and edge.target is not None:
            attrs.append(f'label="{escape_quoted(edge.target)}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        src, dst = _endpoints(edge, idents)
        lines.append(f"  {dot_id(src, src)} -> {dot_id(dst, dst)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
