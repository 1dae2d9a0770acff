"""Seeded generators for descriptor documents and architecture models.

Shared by the unit suites and the acceptance suite. Everything is driven by a
caller-supplied random.Random so failures reproduce from the seed.
"""

from __future__ import annotations

import functools
import importlib.util
import random
import sys
from pathlib import Path

import yaml

from dad.model import ArchModel, BuildRef, Edge, EdgeKind, NetworkNode, ServiceNode, VolumeNode

SERVICE_WORDS = [
    "api", "auth", "cache", "worker", "front", "proxy", "queue", "search",
    "store", "logger", "mail", "cron", "etl", "ui", "geo", "pay", "feed",
    "chat", "media", "ingest",
]
VOLUME_WORDS = ["data", "blobs", "state", "archive", "scratch", "assets"]
NETWORK_WORDS = ["frontend", "backend", "metrics", "edge", "internal"]
IMAGES = [
    "nginx:1.25", "postgres:16", "mysql:8", "redis:7", "python:3.11-slim",
    "node:20-alpine", "rabbitmq:3", "traefik:v3.0", "memcached:1.6", "golang:1.22",
]
RESIDUE_PORTS = ["80:80", "443:443", "5432:5432", "8080:80", "6379:6379"]


@functools.cache
def perfbench_gen():
    """The benchmark's seeded descriptor generator, ``perfbench/gen.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _names(rng: random.Random, pool: list[str], count: int) -> list[str]:
    names = rng.sample(pool, min(count, len(pool)))
    while len(names) < count:
        names.append(f"{rng.choice(pool)}_{len(names)}")
    return names


def gen_descriptor_doc(
    rng: random.Random,
    max_services: int = 6,
    max_volumes: int = 3,
    max_networks: int = 2,
) -> dict:
    """Random strict-valid descriptor document as a plain dict.

    Every reference resolves, every service has exactly one source, and the
    dependency relation is acyclic (edges only point at earlier services).
    Residue keys (version, ports, environment, restart) are sprinkled in.
    """
    n_services = rng.randint(1, max_services)
    service_names = _names(rng, SERVICE_WORDS, n_services)
    volume_names = _names(rng, VOLUME_WORDS, rng.randint(0, max_volumes))
    network_names = _names(rng, NETWORK_WORDS, rng.randint(0, max_networks))

    doc: dict = {}
    if rng.random() < 0.5:
        doc["version"] = rng.choice(["3.8", "3.9", "2.4"])
    if rng.random() < 0.3:
        doc["name"] = f"{rng.choice(service_names)} stack"

    services: dict = {}
    for i, name in enumerate(service_names):
        body: dict = {}
        if rng.random() < 0.75:
            body["image"] = rng.choice(IMAGES)
        else:
            if rng.random() < 0.5:
                body["build"] = f"./{name}"
            else:
                body["build"] = {"context": f"./{name}", "dockerfile": "Dockerfile"}
        if rng.random() < 0.2:
            body["container_name"] = f"{name}_main"
        earlier = service_names[:i]
        if earlier and rng.random() < 0.6:
            body["depends_on"] = rng.sample(earlier, rng.randint(1, len(earlier)))
        if earlier and rng.random() < 0.25:
            body["links"] = rng.sample(earlier, rng.randint(1, len(earlier)))
        if volume_names and rng.random() < 0.4:
            body["volumes"] = [
                f"{vol}:/var/lib/{vol}"
                for vol in rng.sample(volume_names, rng.randint(1, len(volume_names)))
            ]
        if network_names and rng.random() < 0.4:
            body["networks"] = rng.sample(network_names, rng.randint(1, len(network_names)))
        if rng.random() < 0.4:
            body["ports"] = [rng.choice(RESIDUE_PORTS)]
        if rng.random() < 0.3:
            body["environment"] = {"MODE": rng.choice(["dev", "prod"])}
        if rng.random() < 0.2:
            body["restart"] = "unless-stopped"
        services[name] = body
    doc["services"] = services
    if volume_names:
        doc["volumes"] = {name: None for name in volume_names}
    if network_names:
        doc["networks"] = {name: None for name in network_names}
    return doc


def doc_to_yaml(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def gen_model(rng: random.Random, max_services: int = 7) -> ArchModel:
    """Random valid ArchModel: unique names, typed endpoints, acyclic deps."""
    n_services = rng.randint(1, max_services)
    service_names = _names(rng, SERVICE_WORDS, n_services)
    volume_names = _names(rng, VOLUME_WORDS, rng.randint(0, 3))
    network_names = _names(rng, NETWORK_WORDS, rng.randint(0, 2))

    services = []
    for name in service_names:
        roll = rng.random()
        image = rng.choice(IMAGES) if roll < 0.7 else None
        build = None
        if image is None:
            build = BuildRef(
                context=f"./{name}",
                dockerfile="Dockerfile" if rng.random() < 0.5 else None,
            )
        services.append(
            ServiceNode(
                name=name,
                image=image,
                build=build,
                container_name=f"{name}_1" if rng.random() < 0.2 else None,
            )
        )

    edges: list[Edge] = []
    seen: set[tuple] = set()

    def add(edge: Edge) -> None:
        key = (edge.kind, edge.src, edge.dst, edge.target)
        if key not in seen:
            seen.add(key)
            edges.append(edge)

    for i, name in enumerate(service_names):
        for dst in service_names[:i]:
            if rng.random() < 0.3:
                add(Edge(EdgeKind.DEPENDENCY, name, dst))
    for name in service_names:
        for dst in service_names:
            if dst != name and rng.random() < 0.08:
                add(Edge(EdgeKind.LINK, name, dst))
    for name in service_names:
        for vol in volume_names:
            if rng.random() < 0.3:
                add(Edge(EdgeKind.MOUNT, name, vol, target=f"/var/lib/{vol}"))
    for name in service_names:
        for net in network_names:
            if rng.random() < 0.3:
                add(Edge(EdgeKind.ATTACHMENT, name, net))

    return ArchModel(
        title=rng.choice(["system", "shop stack", "pipeline", "site"]),
        services=tuple(services),
        volumes=tuple(VolumeNode(v) for v in volume_names),
        networks=tuple(NetworkNode(n) for n in network_names),
        edges=tuple(edges),
    )


def _isolated_services(model: ArchModel) -> list[str]:
    touched = {e.src for e in model.edges} | {e.dst for e in model.edges}
    return [s.name for s in model.services if s.name not in touched]


def mutate_model(rng: random.Random, model: ArchModel) -> tuple[ArchModel, str]:
    """Apply one structural edit; returns (mutant, operation tag).

    Each operation changes exactly one canonical fact: one node added or
    removed without touching edges, one edge added or removed, or one node
    attribute changed.
    """
    ops = ["add_node", "add_edge", "change_attr"]
    if _isolated_services(model):
        ops.append("remove_node")
    if model.edges:
        ops.append("remove_edge")
    op = rng.choice(ops)

    if op == "add_node":
        name = f"extra_{rng.randrange(10_000)}"
        while any(s.name == name for s in model.services):
            name = f"extra_{rng.randrange(10_000)}"
        node = ServiceNode(name, image=rng.choice(IMAGES))
        return (
            ArchModel(
                title=model.title,
                services=model.services + (node,),
                volumes=model.volumes,
                networks=model.networks,
                edges=model.edges,
            ),
            op,
        )
    if op == "remove_node":
        victim = rng.choice(_isolated_services(model))
        return (
            ArchModel(
                title=model.title,
                services=tuple(s for s in model.services if s.name != victim),
                volumes=model.volumes,
                networks=model.networks,
                edges=model.edges,
            ),
            op,
        )
    if op == "remove_edge":
        index = rng.randrange(len(model.edges))
        return (
            ArchModel(
                title=model.title,
                services=model.services,
                volumes=model.volumes,
                networks=model.networks,
                edges=model.edges[:index] + model.edges[index + 1 :],
            ),
            op,
        )
    if op == "add_edge":
        existing = {(e.kind, e.src, e.dst, e.target) for e in model.edges}
        names = [s.name for s in model.services]
        for _ in range(50):
            src, dst = rng.choice(names), rng.choice(names)
            if src == dst:
                continue
            edge = Edge(EdgeKind.LINK, src, dst)
            if (edge.kind, edge.src, edge.dst, edge.target) not in existing:
                mutant = ArchModel(
                    title=model.title,
                    services=model.services,
                    volumes=model.volumes,
                    networks=model.networks,
                    edges=model.edges + (edge,),
                )
                return mutant, op
        return mutate_model(rng, model)  # single-service graphs: fall back

    # change_attr: rewrite one existing attribute value in place so exactly
    # one canonical key differs
    index = rng.randrange(len(model.services))
    node = model.services[index]
    if node.image is not None:
        changed = ServiceNode(
            name=node.name,
            image="custom/" + node.image.replace(":", "-") + "-v2",
            build=node.build,
            container_name=node.container_name,
            phantom=node.phantom,
        )
    else:
        changed = ServiceNode(
            name=node.name,
            image=None,
            build=BuildRef(context=node.build.context + "-v2", dockerfile=node.build.dockerfile),
            container_name=node.container_name,
            phantom=node.phantom,
        )
    services = model.services[:index] + (changed,) + model.services[index + 1 :]
    return (
        ArchModel(
            title=model.title,
            services=services,
            volumes=model.volumes,
            networks=model.networks,
            edges=model.edges,
        ),
        op,
    )


def scaled_model(n: int) -> ArchModel:
    """n services; each but the first has a dependency, a link, a mount and an attachment.

    The dependencies form one chain from the last service to the first, so a
    depth-first search over them goes n deep.
    """
    services = tuple(
        ServiceNode(f"s{i}", build=BuildRef(f"./s{i}", "D")) if i % 2 else ServiceNode(f"s{i}", "x")
        for i in range(n)
    )
    volumes = tuple(VolumeNode(f"v{i}") for i in range(n // 4))
    networks = tuple(NetworkNode(f"n{i}") for i in range(n // 8))
    edges = []
    for i in range(1, n):
        edges.append(Edge(EdgeKind.DEPENDENCY, f"s{i}", f"s{i - 1}"))
        edges.append(Edge(EdgeKind.LINK, f"s{i}", f"s{i // 2}"))
        edges.append(Edge(EdgeKind.MOUNT, f"s{i}", f"v{i % len(volumes)}", f"/data/{i}"))
        edges.append(Edge(EdgeKind.ATTACHMENT, f"s{i}", f"n{i % len(networks)}"))
    return ArchModel("scale", services, volumes, networks, tuple(edges))
