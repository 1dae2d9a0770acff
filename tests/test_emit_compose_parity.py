"""``emit_compose`` writes what the hand-built emitter it replaced wrote.

``emit_compose`` is ``serialize_compose(unlower(model))``. The emitter before
that built each service body itself; it is kept below as the reference. On
both YAML backends the two must give equal bytes, or raise the same exception
type with the same message, on random models, lowered descriptors, the corpus
and its lifted scripts, benchmark descriptors and hand-built edge cases.
"""

from __future__ import annotations

import random
from pathlib import Path

from dad import compose
from dad.dac_emit import emit_dac
from dad.dac_ingest import emit_compose, lift, parse_dac
from dad.errors import DadError, EmitError, ModelError
from dad.model import (
    ArchModel,
    BuildRef,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
)

from backends import on_both_backends
from specgen import doc_to_yaml, gen_descriptor_doc, gen_model, perfbench_gen

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _ref_mount_item(edge: Edge) -> str | dict:
    if not edge.target or ":" in edge.target:
        return {"type": "volume", "source": edge.dst, "target": edge.target}
    return f"{edge.dst}:{edge.target}"


def reference_emit_compose(model: ArchModel) -> str:
    """The emitter before it became ``serialize_compose(unlower(model))``."""
    try:
        model.validate()
    except ModelError as exc:
        raise EmitError(f"refusing to emit invalid model: {exc}") from exc

    by_service: dict[str, dict[EdgeKind, list[Edge]]] = {}
    for edge in model.edges:
        if edge.kind is EdgeKind.MOUNT and edge.target is None:
            raise EmitError(
                f"mount {edge.src} - {edge.dst} has no target path; cannot place it in a descriptor"
            )
        if edge.kind is EdgeKind.MOUNT and edge in by_service.get(edge.src, {}).get(edge.kind, ()):
            raise EmitError(
                f"{edge.src} mounts {edge.dst}:{edge.target} twice; a descriptor cannot hold it"
            )
        by_service.setdefault(edge.src, {}).setdefault(edge.kind, []).append(edge)

    # a phantom stays undeclared only where a lenient reparse synthesizes it
    # again as it is: an edge points at it, and it has no edges or attributes
    pointed_at = {
        kind: {e.dst for e in model.edges if e.kind in kinds}
        for kind, kinds in (
            ("service", (EdgeKind.DEPENDENCY, EdgeKind.LINK)),
            ("volume", (EdgeKind.MOUNT,)),
            ("network", (EdgeKind.ATTACHMENT,)),
        )
    }
    services: dict[str, dict | None] = {}
    for node in model.services:
        bare = node.image is None and node.build is None and node.container_name is None
        if node.phantom and not by_service.get(node.name) and node.name in pointed_at["service"] and bare:
            continue
        body: dict = {}
        if node.image is not None:
            body["image"] = node.image
        if node.build is not None:
            if node.build.dockerfile is None:
                body["build"] = node.build.context
            else:
                body["build"] = {
                    "context": node.build.context,
                    "dockerfile": node.build.dockerfile,
                }
        if node.container_name is not None:
            body["container_name"] = node.container_name
        mine = by_service.get(node.name, {})
        if EdgeKind.DEPENDENCY in mine:
            body["depends_on"] = [e.dst for e in mine[EdgeKind.DEPENDENCY]]
        if EdgeKind.LINK in mine:
            body["links"] = [e.dst for e in mine[EdgeKind.LINK]]
        if EdgeKind.MOUNT in mine:
            body["volumes"] = [_ref_mount_item(e) for e in mine[EdgeKind.MOUNT]]
        if EdgeKind.ATTACHMENT in mine:
            body["networks"] = [e.dst for e in mine[EdgeKind.ATTACHMENT]]
        services[node.name] = body or None

    doc: dict = {"services": services}
    declared_volumes = [v.name for v in model.volumes if not v.phantom or v.name not in pointed_at["volume"]]
    declared_networks = [n.name for n in model.networks if not n.phantom or n.name not in pointed_at["network"]]
    if declared_volumes:
        doc["volumes"] = {name: None for name in declared_volumes}
    if declared_networks:
        doc["networks"] = {name: None for name in declared_networks}
    return compose.dump_yaml(doc)


def _edge_cases() -> list[ArchModel]:
    app = ServiceNode("app", image="x")
    data = VolumeNode("data")
    return [
        ArchModel(),
        # an empty target and one holding ":" need the long mount form
        ArchModel(services=(app,), volumes=(data,), edges=(Edge(EdgeKind.MOUNT, "app", "data", ""),)),
        ArchModel(
            services=(app,),
            volumes=(data,),
            edges=(Edge(EdgeKind.MOUNT, "app", "data", "/a:b"), Edge(EdgeKind.MOUNT, "app", "data", "/c")),
        ),
        # a mount edge repeated verbatim is refused: the descriptor holding it
        # twice would fail compose._parse_mounts
        ArchModel(
            services=(app,),
            volumes=(data,),
            edges=(Edge(EdgeKind.MOUNT, "app", "data", "/a"),) * 2,
        ),
        ArchModel(services=(ServiceNode("app", image="x", build=BuildRef("./app")),)),
        ArchModel(
            services=(
                ServiceNode("a", build=BuildRef("./a")),
                ServiceNode("b", build=BuildRef("./b", "Dockerfile.b"), container_name="b_1"),
            )
        ),
        # a phantom service with edges of its own is declared, and so is an
        # isolated one; a bare one that an edge points at is not
        ArchModel(
            services=(ServiceNode("ghost", phantom=True), ServiceNode("real", image="x")),
            edges=(Edge(EdgeKind.LINK, "ghost", "real"),),
        ),
        ArchModel(
            services=(app, ServiceNode("ghost", phantom=True)),
            edges=(Edge(EdgeKind.DEPENDENCY, "app", "ghost"),),
        ),
        ArchModel(
            services=(app, ServiceNode("idle", phantom=True)),
        ),
        ArchModel(
            services=(app,),
            volumes=(VolumeNode("pv", phantom=True), data),
            networks=(NetworkNode("pn", phantom=True), NetworkNode("net")),
            edges=(
                Edge(EdgeKind.MOUNT, "app", "pv", "/p"),
                Edge(EdgeKind.ATTACHMENT, "app", "pn"),
                Edge(EdgeKind.ATTACHMENT, "app", "net"),
            ),
        ),
        ArchModel(services=(app,), volumes=(data,), edges=(Edge(EdgeKind.MOUNT, "app", "data"),)),
        # names and values a YAML reader would take for a bool, an int or null
        ArchModel(
            services=(
                ServiceNode("true", image="null"),
                ServiceNode("1", build=BuildRef("yes", "off")),
                ServiceNode("null", image="1.5", container_name="~"),
            ),
            volumes=(VolumeNode("false"),),
            networks=(NetworkNode("0"),),
            edges=(
                Edge(EdgeKind.DEPENDENCY, "true", "1"),
                Edge(EdgeKind.LINK, "null", "true"),
                Edge(EdgeKind.MOUNT, "1", "false", "1"),
                Edge(EdgeKind.ATTACHMENT, "null", "0"),
            ),
        ),
        # invalid models are refused with the model's own message
        ArchModel(
            services=(ServiceNode("a", image="x"), ServiceNode("b", image="y")),
            edges=(Edge(EdgeKind.DEPENDENCY, "a", "b"), Edge(EdgeKind.DEPENDENCY, "b", "a")),
        ),
        ArchModel(services=(app,), edges=(Edge(EdgeKind.LINK, "app", "nowhere"),)),
    ]


def _models() -> tuple[ArchModel, ...]:
    rng = random.Random(41)
    models = [gen_model(rng) for _ in range(400)]
    models += [
        compose.lower(compose.parse_compose(doc_to_yaml(gen_descriptor_doc(rng))))
        for _ in range(200)
    ]
    for path in sorted(CORPUS.glob("*.yml")):
        model = compose.lower(compose.parse_compose(path.read_text(encoding="utf-8")))
        models.append(model)
        try:
            models.append(lift(parse_dac(emit_dac(model).text)))
        except DadError:  # cyclic.yml: no script to lift
            pass
    gen = perfbench_gen()
    for seed in (1, 2):
        seeded = random.Random(seed)
        for n in (10, 60, 200):
            models.append(compose.lower(compose.parse_compose(gen.scale_descriptor(seeded, n).text)))
    return tuple(models + _edge_cases())


def _outcome(emit, model: ArchModel):
    try:
        return emit(model)
    except Exception as exc:
        return type(exc), str(exc)


def test_emit_compose_matches_the_reference_on_both_backends():
    models = _models()

    def outcomes():
        return [(_outcome(emit_compose, m), _outcome(reference_emit_compose, m)) for m in models]

    native, pure = on_both_backends(outcomes)
    for model, (got, want), (got_pure, want_pure) in zip(models, native, pure):
        assert got == want, model
        assert got_pure == want_pure, model
    refused = [got for got, _ in native if isinstance(got, tuple)]
    # every refusal kind is reached: a cycle, a dangling edge, image plus
    # build, a mount without a target, a repeated mount, and the corpus's
    # cyclic stack
    assert len(refused) == 6
    assert all(kind is EmitError for kind, _ in refused)
