"""Seeded input generation: everything a workload runs is in the dict
returned here (dumped to ``OUT/inputs-<workload>.json``); the program
sees nothing else.

The op lists are fixed and the seed decides what cannot change their
cost: the order of ops inside every pass, the shuffle of the service's
job list (so which of several identical submissions runs and which
coalesce), and the simulators' operand tensors.  A seeded draw of
*different* layers moves ``suite_s`` by 6-14% between seeds (measured),
which no regression bound survives.
"""

from __future__ import annotations

import random
from typing import Any

#: Light dense layers of the three networks, grouped by identical
#: per-group loop-nest shape (vgg16.conv1 and resnet18.layer4_* are
#: tuner-bound and belong to net_unified).  32 layers, 21 shapes.
SHAPE_GROUPS: tuple[tuple[str, ...], ...] = (
    ("alexnet.conv1",),
    ("alexnet.conv2",),
    ("alexnet.conv3",),
    ("alexnet.conv4",),
    ("alexnet.conv5",),
    ("vgg16.conv2",),
    ("vgg16.conv3",),
    ("vgg16.conv4",),
    ("vgg16.conv5",),
    ("vgg16.conv6", "vgg16.conv7"),
    ("vgg16.conv8",),
    ("vgg16.conv9", "vgg16.conv10"),
    ("vgg16.conv11", "vgg16.conv12", "vgg16.conv13"),
    ("resnet18.conv1",),
    ("resnet18.layer1_0_conv1", "resnet18.layer1_0_conv2",
     "resnet18.layer1_1_conv1", "resnet18.layer1_1_conv2"),
    ("resnet18.layer2_0_conv1",),
    ("resnet18.layer2_0_conv2", "resnet18.layer2_1_conv1", "resnet18.layer2_1_conv2"),
    ("resnet18.layer2_0_downsample",),
    ("resnet18.layer3_0_conv1",),
    ("resnet18.layer3_0_conv2", "resnet18.layer3_1_conv1", "resnet18.layer3_1_conv2"),
    ("resnet18.layer3_0_downsample",),
)

#: layer_flow compiles one layer per group listed here: ten shapes that
#: span the pool's cost range (0.24-0.50 s cold) and all three networks.
LAYER_FLOW_GROUPS = (0, 1, 2, 4, 5, 9, 11, 12, 14, 16)

#: service_mix platforms (datatype, device): both datatypes' cost models
#: and both devices.  Shape groups take them alternately, so that one pass
#: of the job list (21 executions) takes 4-5 s and a run holds four or
#: more; every layer on both took 9 s a pass and a run held two.
SERVICE_COMBOS = (
    ("float32", "arria10_gt1150"),
    ("fixed8_16", "stratix_v_gsd8"),
)

#: Pass orders are drawn for this many passes; a run does as many as fit
#: its ``--seconds`` (five to eight of them in the 28 s the manifest asks).
MAX_PASSES = 12

#: The paper's winning unified configuration (Table 2 / Fig. 7).
PAPER_SHAPE = (11, 13, 8)


def _pool_sources() -> dict[str, str]:
    """C text of every pool layer, keyed ``network.layer``."""
    from repro.dse.multi_layer import prepare_network_nests
    from repro.frontend.emit import nest_to_c
    from repro.nn import models

    sources: dict[str, str] = {}
    for net_name in ("alexnet", "vgg16", "resnet18"):
        for workload in prepare_network_nests(getattr(models, net_name)()):
            sources[f"{net_name}.{workload.name}"] = nest_to_c(workload.nest)
    return sources


def _conv_source(dims: tuple[int, ...]) -> str:
    from repro.frontend.emit import nest_to_c
    from repro.ir.loop import conv_loop_nest

    return nest_to_c(conv_loop_nest(*dims))


def _orders(rng: random.Random, ids: list[str], passes: int) -> list[list[str]]:
    return [rng.sample(ids, len(ids)) for _ in range(passes)]


def make_inputs(
    workload: str, seed: int, *, smoke: bool = False, traced: bool = False
) -> dict[str, Any]:
    """The inputs of one run: a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}")
    base: dict[str, Any] = {"workload": workload, "seed": seed, "smoke": smoke, "traced": traced}
    if workload == "net_unified":
        return {**base, **_net_unified(rng, smoke)}
    if workload == "layer_flow":
        return {**base, **_layer_flow(rng, smoke)}
    if workload == "sim_ladder":
        return {**base, **_sim_ladder(rng, smoke, traced)}
    if workload == "service_mix":
        return {**base, **_service_mix(rng, smoke)}
    raise ValueError(f"unknown workload {workload!r}")


def _net_unified(rng: random.Random, smoke: bool) -> dict[str, Any]:
    if smoke:
        networks = [{"id": "tiny_cnn", "builtin": "tiny_cnn", "layers": None}]
        passes, reruns = (2, 2), 2
    else:
        networks = [
            {"id": "alexnet", "builtin": "alexnet", "layers": None},
            {"id": "vgg16", "builtin": "vgg16", "layers": None},
            # Whole ResNet-18 takes 29 s per synthesis; its tuner-bound
            # regime comes from the 7x7 stage-4 maps, so the stage's 1x1
            # stride-2 projection stands for it (1380 tunes of 4140
            # configs in 0.8 s; with the entry conv beside it 2.4 s, and
            # a run held five passes where it now holds eight).
            {
                "id": "resnet18_s4proj",
                "builtin": "resnet18",
                "layers": ["layer4_0_downsample"],
            },
        ]
        passes, reruns = (3, MAX_PASSES), 8
    ids = [n["id"] for n in networks]
    return {
        "networks": networks,
        "min_passes": passes[0],
        "max_passes": passes[1],
        "warm_reruns": reruns,
        "orders": _orders(rng, ids, passes[1]),
    }


def _layer_flow(rng: random.Random, smoke: bool) -> dict[str, Any]:
    if smoke:
        layers = [
            {"id": f"conv{i}", "name": f"conv{i}", "source": _conv_source(dims)}
            for i, dims in enumerate(((16, 8, 10, 10, 3, 3), (16, 16, 8, 8, 3, 3)))
        ]
        rounds, warm_passes = (2, 2), 2
    else:
        sources = _pool_sources()
        layers = []
        for group in LAYER_FLOW_GROUPS:
            name = SHAPE_GROUPS[group][0]
            layers.append({"id": name, "name": name, "source": sources[name]})
        rounds, warm_passes = (2, MAX_PASSES), 6
    ids = [layer["id"] for layer in layers]
    return {
        "layers": layers,
        "stores": ["fs", "sqlite"],
        "min_rounds": rounds[0],
        "max_rounds": rounds[1],
        "warm_passes": warm_passes,
        # per round: one cold order then warm_passes warm orders
        "orders": [_orders(rng, ids, 1 + warm_passes) for _ in range(rounds[1])],
    }


def _sim_ladder(rng: random.Random, smoke: bool, traced: bool) -> dict[str, Any]:
    if smoke:
        fast = [{"id": "fast.conv32x16", "nest": [32, 16, 14, 14, 3, 3], "shape": [4, 5, 2]}]
        engine = {"id": "engine.conv8x4", "nest": [8, 4, 8, 8, 3, 3], "shape": [3, 3, 2]}
        rtl = {"id": "rtl.conv8x4", "nest": [8, 4, 6, 6, 3, 3], "shape": [3, 3, 2]}
        cross = {"id": "cross.conv8x4", "nest": [8, 4, 6, 6, 3, 3], "shape": [3, 3, 2]}
        verify_dims = [(16, 8, 10, 10, 3, 3)]
        passes, reruns = (1, 2), 2
    else:
        fast = [
            {"id": "fast.resnet18.layer2_0_conv2", "network": "resnet18",
             "layer": "layer2_0_conv2", "shape": list(PAPER_SHAPE)},
            {"id": "fast.alexnet.conv5", "network": "alexnet", "layer": "conv5",
             "shape": list(PAPER_SHAPE)},
        ]
        if traced:
            # The ROADMAP's named lead (36 Miter/s where the others reach
            # 70-100) runs in the traced pass only, for sim.fast.*: its 2.4 s
            # become 3.5-7 s when the host's memory is busy, while the
            # kernel and every other op here move by a fifth, so no bound
            # on an end-to-end metric that contained it would hold.
            fast.append({"id": "fast.alexnet.conv1", "network": "alexnet", "layer": "conv1",
                         "shape": list(PAPER_SHAPE)})
        # every rung above the fast simulator is small, so that a pass
        # takes 3.5 s and a run holds six or seven
        engine = {"id": "engine.conv8x8", "nest": [8, 8, 8, 8, 3, 3], "shape": [4, 4, 2]}
        rtl = {"id": "rtl.conv8x4", "nest": [8, 4, 6, 6, 3, 3], "shape": [3, 3, 2]}
        cross = {"id": "cross.conv8x4", "nest": [8, 4, 6, 6, 3, 3], "shape": [3, 3, 2]}
        verify_dims = [(16, 8, 10, 10, 3, 3), (16, 16, 8, 8, 3, 3), (32, 16, 14, 14, 3, 3)]
        passes, reruns = (3, MAX_PASSES), 8
    verify = [
        {"id": f"verify.conv{d[0]}x{d[1]}", "name": f"verify_conv{d[0]}x{d[1]}",
         "source": _conv_source(d)}
        for d in verify_dims
    ]
    heavy = [op["id"] for op in fast] + [engine["id"], rtl["id"], cross["id"]]
    return {
        "fast": fast,
        "engine": engine,
        "rtl": rtl,
        "cross": cross,
        "verify": verify,
        "verify_reruns": reruns,
        "tensor_seed": rng.randrange(1 << 30),
        "sample_points": 256,
        "min_passes": passes[0],
        "max_passes": passes[1],
        "orders": _orders(rng, heavy, passes[1]),
    }


def _service_mix(rng: random.Random, smoke: bool) -> dict[str, Any]:
    if smoke:
        layers = [
            {"id": f"conv{i}", "name": f"conv{min(i, 1)}", "source": _conv_source(dims)}
            for i, dims in enumerate(
                ((16, 8, 10, 10, 3, 3), (16, 8, 10, 10, 3, 3), (16, 16, 8, 8, 3, 3))
            )
        ]
        platform_of = [0] * len(layers)
        verify_sample = 1
    else:
        sources = _pool_sources()
        # identically-shaped layers are submitted under one label: the
        # clock surrogate keys on it, so the answer would otherwise depend
        # on which of the twins happened to run
        layers = [
            {"id": name, "name": group[0], "source": sources[name]}
            for group in SHAPE_GROUPS for name in group
        ]
        platform_of = [
            index % len(SERVICE_COMBOS)
            for index, group in enumerate(SHAPE_GROUPS) for _ in group
        ]
        verify_sample = 6
    submissions = 3
    jobs = [
        [layer, platform_of[layer]] for layer in range(len(layers)) for _ in range(submissions)
    ]
    rng.shuffle(jobs)
    return {
        "layers": layers,
        "combos": [list(c) for c in SERVICE_COMBOS],
        "jobs": jobs,
        "workers": 2,
        "verify_sample": verify_sample,
        "verify_seed": rng.randrange(1 << 30),
    }
