"""Seeded input generators for the scale_check and diagram_drift workloads.

Every generator takes a ``random.Random`` built from the run's ``--seed`` and
returns text for dad together with the facts its oracle needs (node, edge and
residue counts, the drift ledger). Those facts come from the generator's own
choices, never from dad, so a dad bug cannot vouch for itself.

Sizes follow a fixed geometric grid rather than random draws: the seed changes
names, structure and residue, but every seed gets the same spread of sizes, so
tail latencies from different seeds measure the same thing.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

import yaml

WORDS = [
    "api", "auth", "cache", "worker", "front", "proxy", "queue", "search",
    "store", "mail", "cron", "etl", "feed", "media", "ingest", "billing",
]
IMAGES = [
    "nginx:1.25", "postgres:16", "mysql:8", "redis:7", "python:3.11-slim",
    "node:20-alpine", "rabbitmq:3", "golang:1.22", "traefik:v3.0", "memcached:1.6",
]
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def size_grid(low: int, high: int, count: int) -> list[int]:
    """`count` sizes spaced evenly in log space from `low` to `high`."""
    ratio = math.log(high / low) / (count - 1)
    return [round(low * math.exp(ratio * i)) for i in range(count)]


@dataclass(frozen=True)
class ScaleCase:
    """One synthetic descriptor plus the counts dad must report for it."""

    text: str
    services: int
    nodes: int
    edges: int
    residue_paths: int


def scale_descriptor(rng: random.Random, n_services: int) -> ScaleCase:
    """A strict-valid descriptor with about ten residue paths per service.

    Residue comes from long-form depends_on conditions, mount modes and
    read_only flags, a bind mount, network aliases, ports, environment and a
    healthcheck. Dependencies point only at the twenty previous services, so
    the graph is acyclic and per-service work does not grow with size.

    Residue paths are counted at dad's documented granularity: one per
    unknown key, per long-form dependency body, per aliased link, per network
    body, per mount option, and one for all pass-through mounts of a service.
    """
    names = [f"{rng.choice(WORDS)}{i}" for i in range(n_services)]
    volumes = [f"vol{i}" for i in range(max(2, n_services // 4))]
    networks = [f"net{i}" for i in range(max(2, n_services // 8))]
    edges = 0
    residue = 1  # version
    services: dict = {}
    for i, name in enumerate(names):
        body: dict = {}
        if rng.random() < 0.85:
            body["image"] = rng.choice(IMAGES)
        else:
            body["build"] = {"context": f"./{name}", "dockerfile": "Dockerfile", "args": {"MODE": "prod"}}
            residue += 1
        earlier = names[max(0, i - 20):i]
        if earlier:
            deps = rng.sample(earlier, min(len(earlier), rng.randint(1, 3)))
            body["depends_on"] = {
                dep: {"condition": rng.choice(["service_started", "service_healthy"])} for dep in deps
            }
            edges += len(deps)
            residue += len(deps)
            if rng.random() < 0.3:
                link = rng.choice(earlier)
                body["links"] = [f"{link}:{link}-alias"]
                edges += 1
                residue += 1
        mounts: list = []
        for vol in rng.sample(volumes, rng.randint(1, 2)):
            if rng.random() < 0.5:
                mounts.append(f"{vol}:/data/{vol}:ro")
            else:
                mounts.append({"type": "volume", "source": vol, "target": f"/data/{vol}", "read_only": True})
            edges += 1
            residue += 1
        mounts.append(f"./conf/{name}:/etc/{name}:ro")
        residue += 1
        body["volumes"] = mounts
        nets = rng.sample(networks, rng.randint(1, 2))
        body["networks"] = {net: {"aliases": [f"{name}-{net}"]} for net in nets}
        edges += len(nets)
        residue += len(nets)
        body["ports"] = [f"{8000 + i}:80"]
        body["environment"] = {"MODE": rng.choice(["dev", "prod"]), "WORKERS": str(rng.randint(1, 8))}
        body["healthcheck"] = {"test": ["CMD", "true"], "interval": "10s", "retries": rng.randint(1, 5)}
        residue += 3
        services[name] = body

    volume_decls = {}
    for vol in volumes:
        volume_decls[vol] = {"labels": {"tier": "data"}} if rng.random() < 0.5 else None
        residue += volume_decls[vol] is not None
    network_decls = {}
    for net in networks:
        network_decls[net] = {"labels": {"tier": "app"}} if rng.random() < 0.5 else None
        residue += network_decls[net] is not None
    doc = {"version": "3.9", "services": services, "volumes": volume_decls, "networks": network_decls}
    text = yaml.dump(doc, Dumper=_Dumper, sort_keys=False, default_flow_style=False, width=4096)
    return ScaleCase(
        text=text,
        services=n_services,
        nodes=n_services + len(volumes) + len(networks),
        edges=edges,
        residue_paths=residue,
    )


# Order of DiffKind in dad's reports; the drift oracle sorts expected entries
# the same way (kind first, then subject).
DIFF_KINDS = ("MissingNode", "ExtraNode", "MissingEdge", "ExtraEdge", "AttributeMismatch")


@dataclass(frozen=True)
class DriftPair:
    """Two scripts of one system and what `dad diff --report machine` must say."""

    old: str
    new: str
    services: int  # retained services in both inputs
    expected: str  # exact machine report
    exit_code: int
    ledger: Counter  # DiffKind value -> expected entry count


@dataclass
class _System:
    services: dict  # name -> attrs as (key, value) pairs in annotation order
    volumes: list
    networks: list
    edges: list  # (kind, src, dst, target or None)


def _script(title: str, system: _System) -> str:
    lines = [f'with DaC("{title}", direction="TB"):']
    for name, attrs in system.services.items():
        annot = "  # " + ",".join(f"{k}={v}" for k, v in attrs) if attrs else ""
        lines.append(f'  with Cluster("{name} service"):')
        lines.append(f'    {name} = Server("{name}"){annot}')
    for name in system.volumes:
        lines.append(f'  with Cluster("{name} volume"):')
        lines.append(f'    {name} = Storage("{name}")')
    for name in system.networks:
        lines.append(f'  with Cluster("{name} network"):')
        lines.append(f'    {name} = Network("{name}")')
    for kind, src, dst, target in system.edges:
        op = ">>" if kind == "dependency" else "-"
        annot = f"  # target={target}" if target is not None else ""
        lines.append(f"  {src} {op} {dst}{annot}")
    return "\n".join(lines) + "\n"


def _base_system(rng: random.Random, n_services: int) -> _System:
    names = [f"{rng.choice(WORDS)}{i}" for i in range(n_services)]
    volumes = [f"vol{i}" for i in range(max(2, n_services // 3))]
    networks = [f"net{i}" for i in range(max(2, n_services // 20))]
    services = {}
    edges = []
    for i, name in enumerate(names):
        attrs = [("image", rng.choice(IMAGES))]
        if rng.random() < 0.2:
            attrs = [("build_context", f"./{name}"), ("build_dockerfile", "Dockerfile")]
        if rng.random() < 0.2:
            attrs.append(("container_name", f"{name}_main"))
        services[name] = attrs
        earlier = names[max(0, i - 20):i]
        for dep in rng.sample(earlier, min(len(earlier), rng.randint(0, 2))):
            edges.append(("dependency", name, dep, None))
        if earlier and rng.random() < 0.3:
            edges.append(("link", name, rng.choice(earlier), None))
        for vol in rng.sample(volumes, 2):
            edges.append(("mount", name, vol, f"/data/{vol}/{name}"))
        for net in rng.sample(networks, rng.randint(1, 2)):
            edges.append(("attachment", name, net, None))
    return _System(services, volumes, networks, edges)


def _attrs_text(attrs) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(attrs))


def drift_pair(rng: random.Random, n_services: int, share: float) -> DriftPair:
    """An old script and a drifted new one, with the diff dad must report.

    `share` of the mount targets change (one AttributeMismatch each). A
    twentieth of that share of the services is removed (MissingNode plus one
    MissingEdge per edge that touched it) and as many new services are added
    (ExtraNode plus ExtraEdge per new edge); as many surviving non-mount edges
    are removed and as many new links added. Share 0 gives identical scripts.
    """
    old = _base_system(rng, n_services)
    names = list(old.services)
    n_node_edits = round(n_services * share / 20)
    removed = set(rng.sample(names, n_node_edits))
    entries: list[tuple[str, str, str, str]] = []

    def edge_subject(kind, src, dst):
        return f"edges.{kind}.{src}->{dst}"

    new_edges = []
    for edge in old.edges:
        kind, src, dst, target = edge
        if src in removed or dst in removed:
            entries.append(("MissingEdge", edge_subject(kind, src, dst), target or "", ""))
        else:
            new_edges.append(edge)
    for name in removed:
        entries.append(("MissingNode", f"services.{name}", _attrs_text(old.services[name]), ""))

    mount_idx = [i for i, e in enumerate(new_edges) if e[0] == "mount"]
    for i in rng.sample(mount_idx, round(len(mount_idx) * share)):
        kind, src, dst, target = new_edges[i]
        new_edges[i] = (kind, src, dst, target + "/moved")
        entries.append(("AttributeMismatch", edge_subject(kind, src, dst) + ".target", target, target + "/moved"))

    other_idx = [i for i, e in enumerate(new_edges) if e[0] != "mount"]
    dropped = set(rng.sample(other_idx, min(len(other_idx), n_node_edits)))
    for i in sorted(dropped):
        kind, src, dst, _ = new_edges[i]
        entries.append(("MissingEdge", edge_subject(kind, src, dst), "", ""))
    new_edges = [e for i, e in enumerate(new_edges) if i not in dropped]

    survivors = [name for name in names if name not in removed]
    linked = {(e[1], e[2]) for e in old.edges if e[0] == "link"}
    added_links = 0
    while added_links < n_node_edits and len(survivors) > 1:
        src, dst = rng.sample(survivors, 2)
        if (src, dst) in linked:
            continue
        linked.add((src, dst))
        new_edges.append(("link", src, dst, None))
        entries.append(("ExtraEdge", edge_subject("link", src, dst), "", ""))
        added_links += 1

    new_services = {name: attrs for name, attrs in old.services.items() if name not in removed}
    for j in range(n_node_edits):
        name = f"added{j}"
        attrs = [("image", rng.choice(IMAGES))]
        new_services[name] = attrs
        entries.append(("ExtraNode", f"services.{name}", "", _attrs_text(attrs)))
        vol = rng.choice(old.volumes)
        for edge in (
            ("dependency", name, rng.choice(survivors), None),
            ("mount", name, vol, f"/data/{vol}/{name}"),
            ("attachment", name, rng.choice(old.networks), None),
        ):
            new_edges.append(edge)
            entries.append(("ExtraEdge", edge_subject(*edge[:3]), "", edge[3] or ""))

    new = _System(new_services, old.volumes, old.networks, new_edges)
    left_nodes = len(old.services) + len(old.volumes) + len(old.networks)
    right_nodes = len(new.services) + len(new.volumes) + len(new.networks)
    order = {kind: i for i, kind in enumerate(DIFF_KINDS)}
    entries.sort(key=lambda e: (order[e[0]], e[1]))
    verdict = "Inconsistent" if entries else "Consistent"
    lines = [
        f"verdict\t{verdict}",
        f"stats\t{left_nodes}\t{len(old.edges)}\t{right_nodes}\t{len(new.edges)}",
    ]
    lines.extend("\t".join(entry) for entry in entries)
    return DriftPair(
        old=_script("drift system", old),
        new=_script("drift system", new),
        services=len(old.services) + len(new.services),
        expected="\n".join(lines) + "\n",
        exit_code=1 if entries else 0,
        ledger=Counter(entry[0] for entry in entries),
    )
