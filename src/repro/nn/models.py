"""The paper's evaluation networks: AlexNet and VGG-16.

Only convolutional layers matter for the systolic synthesis (the paper:
"convolutional and fully connected layers contribute over 90% of the
computational complexity ... we focus on ... convolutional layers"); FC
layers are included as descriptors so the FC-to-conv path is exercised,
and pooling layers so end-to-end shapes chain correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.layers import AddLayer, ConvLayer, FCLayer, PoolLayer


@dataclass(frozen=True)
class Network:
    """An ordered CNN description.

    Attributes:
        name: model name.
        conv_layers: the convolutional layers, in execution order.
        fc_layers: trailing fully connected layers.
        pool_layers: pooling layers (shape bookkeeping).
        add_layers: elementwise residual additions (shape bookkeeping).
    """

    name: str
    conv_layers: tuple[ConvLayer, ...]
    fc_layers: tuple[FCLayer, ...] = ()
    pool_layers: tuple[PoolLayer, ...] = ()
    add_layers: tuple[AddLayer, ...] = ()

    @property
    def conv_flops(self) -> int:
        """Total conv-layer operations for one image."""
        return sum(layer.flops for layer in self.conv_layers)

    @property
    def total_flops(self) -> int:
        """Conv + FC operations for one image."""
        return self.conv_flops + sum(layer.flops for layer in self.fc_layers)

    def layer(self, name: str) -> ConvLayer:
        """Look up a conv layer by name."""
        for layer in self.conv_layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no conv layer {name!r} in {self.name}")


def alexnet() -> Network:
    """AlexNet (Krizhevsky et al., NIPS 2012), 227x227 single-column view.

    conv2/4/5 are grouped (2 groups), which is why the paper quotes conv5
    as (I, O, R, C, P, Q) = (192, 128, 13, 13, 3, 3): that is the
    per-group shape of the (384 -> 256) layer.
    """
    convs = (
        ConvLayer("conv1", 3, 96, 227, 227, kernel=11, stride=4),
        ConvLayer("conv2", 96, 256, 27, 27, kernel=5, pad=2, groups=2),
        ConvLayer("conv3", 256, 384, 13, 13, kernel=3, pad=1),
        ConvLayer("conv4", 384, 384, 13, 13, kernel=3, pad=1, groups=2),
        ConvLayer("conv5", 384, 256, 13, 13, kernel=3, pad=1, groups=2),
    )
    fcs = (
        FCLayer("fc6", 256 * 6 * 6, 4096),
        FCLayer("fc7", 4096, 4096),
        FCLayer("fc8", 4096, 1000),
    )
    pools = (
        PoolLayer("pool1", 96, 55, 55, kernel=3, stride=2),
        PoolLayer("pool2", 256, 27, 27, kernel=3, stride=2),
        PoolLayer("pool5", 256, 13, 13, kernel=3, stride=2),
    )
    return Network("alexnet", convs, fcs, pools)


def vgg16() -> Network:
    """VGG-16 configuration D (Simonyan & Zisserman, 2014): 13 conv layers,
    all 3x3 stride-1 pad-1, feature maps halving in size and doubling in
    depth through 5 pooling stages."""
    spec = [
        # (in_ch, out_ch, size)
        (3, 64, 224),
        (64, 64, 224),
        (64, 128, 112),
        (128, 128, 112),
        (128, 256, 56),
        (256, 256, 56),
        (256, 256, 56),
        (256, 512, 28),
        (512, 512, 28),
        (512, 512, 28),
        (512, 512, 14),
        (512, 512, 14),
        (512, 512, 14),
    ]
    convs = tuple(
        ConvLayer(f"conv{idx}", cin, cout, size, size, kernel=3, pad=1)
        for idx, (cin, cout, size) in enumerate(spec, start=1)
    )
    fcs = (
        FCLayer("fc14", 512 * 7 * 7, 4096),
        FCLayer("fc15", 4096, 4096),
        FCLayer("fc16", 4096, 1000),
    )
    pools = tuple(
        PoolLayer(f"pool{i}", ch, size, size, kernel=2, stride=2)
        for i, (ch, size) in enumerate([(64, 224), (128, 112), (256, 56), (512, 28), (512, 14)], 1)
    )
    return Network("vgg16", convs, fcs, pools)


def googlenet() -> Network:
    """GoogLeNet / Inception-v1 (Szegedy et al., 2014) convolutional layers.

    The paper's intro names GoogLeNet among the models its flow targets.
    Each inception module contributes its parallel conv branches as
    separate layers (1x1, 3x3-reduce + 3x3, 5x5-reduce + 5x5, pool-proj);
    the 1x1 kernels make the p/q loops trivial (trip count 1), which
    exercises the mapper's degenerate-reduction-loop handling.
    """
    convs: list[ConvLayer] = [
        ConvLayer("conv1", 3, 64, 224, 224, kernel=7, stride=2, pad=3),
        ConvLayer("conv2_reduce", 64, 64, 56, 56, kernel=1),
        ConvLayer("conv2", 64, 192, 56, 56, kernel=3, pad=1),
    ]

    # (name, in_ch, size, 1x1, 3x3red, 3x3, 5x5red, 5x5, pool_proj)
    inception = [
        ("3a", 192, 28, 64, 96, 128, 16, 32, 32),
        ("3b", 256, 28, 128, 128, 192, 32, 96, 64),
        ("4a", 480, 14, 192, 96, 208, 16, 48, 64),
        ("4b", 512, 14, 160, 112, 224, 24, 64, 64),
        ("4c", 512, 14, 128, 128, 256, 24, 64, 64),
        ("4d", 512, 14, 112, 144, 288, 32, 64, 64),
        ("4e", 528, 14, 256, 160, 320, 32, 128, 128),
        ("5a", 832, 7, 256, 160, 320, 32, 128, 128),
        ("5b", 832, 7, 384, 192, 384, 48, 128, 128),
    ]
    for name, cin, size, c1, c3r, c3, c5r, c5, cp in inception:
        convs.extend(
            [
                ConvLayer(f"inc{name}_1x1", cin, c1, size, size, kernel=1),
                ConvLayer(f"inc{name}_3x3r", cin, c3r, size, size, kernel=1),
                ConvLayer(f"inc{name}_3x3", c3r, c3, size, size, kernel=3, pad=1),
                ConvLayer(f"inc{name}_5x5r", cin, c5r, size, size, kernel=1),
                ConvLayer(f"inc{name}_5x5", c5r, c5, size, size, kernel=5, pad=2),
                ConvLayer(f"inc{name}_pool", cin, cp, size, size, kernel=1),
            ]
        )
    fcs = (FCLayer("fc", 1024, 1000),)
    return Network("googlenet", tuple(convs), fcs)


def mobilenet_v1() -> Network:
    """MobileNet v1 (Howard et al., 2017), width multiplier 1.0, 224x224.

    The depthwise-separable workload: a strided dense stem, then 13
    (depthwise 3x3, pointwise 1x1) pairs.  Depthwise layers use
    ``groups == channels`` — their per-group nests have trivial o/i loops,
    which exercises the mapper's degenerate-loop handling the same way
    GoogLeNet's 1x1 layers do for p/q.  Strided depthwise layers cannot be
    folded (folding is defined for ungrouped layers only), so they reach
    the model/DSE as genuinely strided nests.
    """
    convs: list[ConvLayer] = [
        ConvLayer("conv1", 3, 32, 224, 224, kernel=3, stride=2, pad=1),
    ]
    # (dw stride, pw out_channels); input size halves at each stride-2 pair.
    pairs = [
        (1, 64),
        (2, 128),
        (1, 128),
        (2, 256),
        (1, 256),
        (2, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (2, 1024),
        (1, 1024),
    ]
    channels, size = 32, 112
    for idx, (stride, out_ch) in enumerate(pairs, start=2):
        convs.append(
            ConvLayer(
                f"conv{idx}_dw",
                channels,
                channels,
                size,
                size,
                kernel=3,
                stride=stride,
                pad=1,
                groups=channels,
            )
        )
        size = size // stride
        convs.append(ConvLayer(f"conv{idx}_pw", channels, out_ch, size, size, kernel=1))
        channels = out_ch
    pools = (PoolLayer("avgpool", 1024, 7, 7, kernel=7, stride=1, mode="avg"),)
    fcs = (FCLayer("fc", 1024, 1000),)
    return Network("mobilenet_v1", tuple(convs), fcs, pools)


def resnet18() -> Network:
    """ResNet-18 (He et al., 2015): 4 stages of two BasicBlocks each.

    The residual workload: each block is two 3x3 convolutions plus an
    elementwise shortcut addition; the first block of stages 2-4 is
    strided and carries a 1x1 stride-2 projection on the shortcut.
    """
    convs: list[ConvLayer] = [
        ConvLayer("conv1", 3, 64, 224, 224, kernel=7, stride=2, pad=3),
    ]
    adds: list[AddLayer] = []
    # (stage channels, input size to the stage); stage 1 follows the
    # stride-2 maxpool, stages 2-4 halve the map in their first block.
    stages = [(64, 56), (128, 56), (256, 28), (512, 14)]
    in_ch = 64
    for stage_idx, (out_ch, in_size) in enumerate(stages, start=1):
        for block_idx in range(2):
            first = block_idx == 0
            stride = 2 if (first and stage_idx > 1) else 1
            prefix = f"layer{stage_idx}_{block_idx}"
            out_size = in_size // stride
            convs.append(
                ConvLayer(
                    f"{prefix}_conv1",
                    in_ch,
                    out_ch,
                    in_size,
                    in_size,
                    kernel=3,
                    stride=stride,
                    pad=1,
                )
            )
            convs.append(
                ConvLayer(
                    f"{prefix}_conv2", out_ch, out_ch, out_size, out_size, kernel=3, pad=1
                )
            )
            shortcut = f"{prefix}_input"
            if first and stage_idx > 1:
                shortcut = f"{prefix}_downsample"
                convs.append(
                    ConvLayer(
                        shortcut, in_ch, out_ch, in_size, in_size, kernel=1, stride=stride
                    )
                )
            adds.append(
                AddLayer(
                    f"{prefix}_add",
                    out_ch,
                    out_size,
                    out_size,
                    operands=(f"{prefix}_conv2", shortcut),
                )
            )
            in_ch, in_size = out_ch, out_size
    pools = (
        PoolLayer("maxpool", 64, 112, 112, kernel=3, stride=2, pad=1),
        PoolLayer("avgpool", 512, 7, 7, kernel=7, stride=1, mode="avg"),
    )
    fcs = (FCLayer("fc", 512, 1000),)
    return Network("resnet18", tuple(convs), fcs, pools, tuple(adds))


def tiny_cnn() -> Network:
    """A small synthetic network for fast tests and the quickstart example.

    Shapes are chosen to exercise every structural feature: a strided
    first layer (folding path), a grouped layer, and unit-stride padded
    layers — at sizes where even the interpreted RTL is quick.
    """
    convs = (
        ConvLayer("conv1", 3, 8, 19, 19, kernel=3, stride=2),
        ConvLayer("conv2", 8, 16, 9, 9, kernel=3, pad=1, groups=2),
        ConvLayer("conv3", 16, 16, 9, 9, kernel=3, pad=1),
    )
    fcs = (FCLayer("fc", 16 * 9 * 9, 10),)
    return Network("tiny_cnn", convs, fcs)


BUILTIN_NETWORKS = {
    build.__name__: build
    for build in (alexnet, vgg16, googlenet, mobilenet_v1, resnet18, tiny_cnn)
}
"""The built-in models by name — the one registry behind the command
line's ``--network`` choices, the service's ``"network": "<name>"`` and
the paper exhibits."""


def network_by_name(name: str) -> Network:
    """Build a built-in model; an unknown name is a ``ValueError``."""
    if name not in BUILTIN_NETWORKS:
        raise ValueError(f"unknown built-in network {name!r}; choices: {sorted(BUILTIN_NETWORKS)}")
    return BUILTIN_NETWORKS[name]()


__all__ = [
    "BUILTIN_NETWORKS",
    "Network",
    "alexnet",
    "googlenet",
    "mobilenet_v1",
    "network_by_name",
    "resnet18",
    "tiny_cnn",
    "vgg16",
]
