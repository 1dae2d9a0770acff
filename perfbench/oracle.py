"""Expected results that do not come from dad.

`descriptor_facts` re-derives, from a plain ``yaml`` load and the retained
subset the README documents, how many nodes, edges and residue paths dad must
report for a descriptor. The corpus exit codes and the quick-start bytes are
written out by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import yaml

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_NAMED_VOLUME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
_RETAINED_SERVICE_KEYS = {"image", "build", "container_name", "depends_on", "links", "volumes", "networks"}

# `dad check` exit code per corpus file: cyclic.yml has a dependency cycle,
# every other file is valid (dblog_fragment.yml only in lenient mode).
CORPUS_EXIT = {"cyclic.yml": 2}

# README "Quick start": `dad generate -i corpus/dblog.yml`.
DBLOG_DAC = '''\
with DaC("dblog system", direction="TB"):
  with Cluster("mysql service"):
    mysql = Server("mysql")  # image=mysql
  with Cluster("connect service"):
    connect = Server("connect")  # build_context=./connect
  with Cluster("kafka service"):
    kafka = Server("kafka")  # image=confluentinc/cp-kafka
  with Cluster("zookeeper service"):
    zookeeper = Server("zookeeper")  # image=confluentinc/cp-zookeeper
  kafka >> zookeeper
  connect - zookeeper
'''


def load_yaml(text: str):
    return yaml.load(text, Loader=_Loader)


@dataclass(frozen=True)
class Facts:
    services: list  # declared service names
    volumes: list  # declared volume names
    networks: list  # declared network names
    nodes: int  # declared plus phantom
    edges: int
    residue_paths: int


def _names(value) -> list:
    if isinstance(value, dict):
        return list(value)
    return list(value or [])


def _mount(item):
    """(volume, number of residue options) for a named-volume mount, else None."""
    if isinstance(item, str):
        source, sep, rest = item.partition(":")
        target, sep2, _ = rest.partition(":")
        if sep and _NAMED_VOLUME.fullmatch(source) and target:
            return source, int(bool(sep2))
        return None
    if isinstance(item, dict) and item.get("type") == "volume":
        source, target = item.get("source"), item.get("target")
        if isinstance(source, str) and isinstance(target, str) and _NAMED_VOLUME.fullmatch(source):
            return source, len(set(item) - {"type", "source", "target"})
    return None


def descriptor_facts(doc: dict) -> Facts:
    """Counts for a valid descriptor document, following the README's retained subset."""
    residue = sum(1 for key in doc if key not in ("services", "volumes", "networks"))
    services = doc.get("services") or {}
    volumes = doc.get("volumes") or {}
    networks = doc.get("networks") or {}
    for section in (volumes, networks):
        residue += sum(len(body) for body in section.values() if body)
    edges = 0
    phantoms = set()
    for body in services.values():
        body = body or {}
        residue += sum(1 for key in body if key not in _RETAINED_SERVICE_KEYS)
        build = body.get("build")
        if isinstance(build, dict):
            residue += len(set(build) - {"context", "dockerfile"})
        deps = body.get("depends_on") or []
        if isinstance(deps, dict):
            residue += sum(1 for v in deps.values() if v is not None)
        links = [link.partition(":") for link in body.get("links") or []]
        residue += sum(1 for _, sep, _ in links if sep)
        nets = body.get("networks") or []
        if isinstance(nets, dict):
            residue += sum(1 for v in nets.values() if v is not None)
        refs = [("service", d) for d in _names(deps)] + [("service", name) for name, _, _ in links]
        passthrough = False
        for item in body.get("volumes") or []:
            mount = _mount(item)
            if mount is None:
                passthrough = True
            else:
                refs.append(("volume", mount[0]))
                residue += mount[1]
        residue += passthrough
        refs += [("network", n) for n in _names(nets)]
        edges += len(refs)
        declared = {"service": services, "volume": volumes, "network": networks}
        phantoms.update(ref for ref in refs if ref[1] not in declared[ref[0]])
    return Facts(
        services=list(services),
        volumes=list(volumes),
        networks=list(networks),
        nodes=len(services) + len(volumes) + len(networks) + len(phantoms),
        edges=edges,
        residue_paths=residue,
    )
