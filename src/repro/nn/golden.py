"""NumPy golden-model convolution.

Every hardware artifact in this repository (interpreted RTL, generated
C testbenches, folded layers, quantized kernels) is
verified against :func:`conv2d`.  A deliberately naive sextuple-loop
implementation (:func:`conv2d_reference_loops`) — a direct transcription
of the paper's Code 1 — is kept as a second, independent oracle and the
two are cross-checked in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import ConvLayer


def pad_input(inputs: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad a (C, H, W) feature map symmetrically in H and W."""
    if pad == 0:
        return inputs
    return np.pad(inputs, ((0, 0), (pad, pad), (pad, pad)))


def conv2d(
    inputs: np.ndarray,
    weights: np.ndarray,
    *,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    dilation: int = 1,
) -> np.ndarray:
    """Direct 2-D convolution (no flipping — cross-correlation, CNN style).

    Args:
        inputs: (I, H, W) input feature maps.
        weights: (O, I/groups, K, K) kernels.
        stride: stride in both dimensions.
        pad: symmetric zero padding.
        groups: group count.
        dilation: kernel dilation in both dimensions.

    Returns:
        (O, R, C) output feature maps, dtype following NumPy promotion.
    """
    in_ch, _, _ = inputs.shape
    out_ch, in_ch_per_group, kernel_h, kernel_w = weights.shape
    if in_ch % groups or out_ch % groups:
        raise ValueError(f"channels ({in_ch}->{out_ch}) not divisible by groups={groups}")
    if in_ch_per_group != in_ch // groups:
        raise ValueError(
            f"weight shape {weights.shape} inconsistent with {in_ch} inputs / {groups} groups"
        )
    if stride < 1 or dilation < 1:
        raise ValueError("stride and dilation must be >= 1")
    padded = pad_input(inputs, pad)
    _, height, width = padded.shape
    span_h = dilation * (kernel_h - 1) + 1
    span_w = dilation * (kernel_w - 1) + 1
    out_h = (height - span_h) // stride + 1
    out_w = (width - span_w) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("kernel does not fit in padded input")

    windows = np.lib.stride_tricks.sliding_window_view(padded, (span_h, span_w), axis=(1, 2))
    # stride subsamples the window origins; dilation subsamples the taps
    # inside each window: windows becomes (I, R, C, K, K).
    windows = windows[:, ::stride, ::stride, ::dilation, ::dilation]

    out_per_group = out_ch // groups
    in_per_group = in_ch // groups
    result = np.empty((out_ch, out_h, out_w), dtype=np.result_type(inputs, weights))
    for g in range(groups):
        w_g = weights[g * out_per_group : (g + 1) * out_per_group]
        x_g = windows[g * in_per_group : (g + 1) * in_per_group]
        result[g * out_per_group : (g + 1) * out_per_group] = np.einsum(
            "ircpq,oipq->orc", x_g, w_g, optimize=True
        )
    return result


def conv2d_layer(layer: ConvLayer, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Run :func:`conv2d` with a layer descriptor's parameters, checking shapes."""
    if inputs.shape != (layer.in_channels, layer.in_height, layer.in_width):
        raise ValueError(
            f"{layer.name}: input shape {inputs.shape} != "
            f"{(layer.in_channels, layer.in_height, layer.in_width)}"
        )
    expected_w = (
        layer.out_channels,
        layer.in_channels // layer.groups,
        layer.kernel,
        layer.kernel,
    )
    if weights.shape != expected_w:
        raise ValueError(f"{layer.name}: weight shape {weights.shape} != {expected_w}")
    return conv2d(
        inputs,
        weights,
        stride=layer.stride,
        pad=layer.pad,
        groups=layer.groups,
        dilation=layer.dilation,
    )


def conv2d_reference_loops(
    inputs: np.ndarray,
    weights: np.ndarray,
    *,
    stride: int = 1,
    pad: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Code 1 transcribed literally (ungrouped).  Slow; tests only.

    Kept independent of :func:`conv2d` so that the two implementations
    cross-validate each other.
    """
    padded = pad_input(inputs, pad)
    out_ch, in_ch, kernel_h, kernel_w = weights.shape
    span_h = dilation * (kernel_h - 1) + 1
    span_w = dilation * (kernel_w - 1) + 1
    out_h = (padded.shape[1] - span_h) // stride + 1
    out_w = (padded.shape[2] - span_w) // stride + 1
    out = np.zeros((out_ch, out_h, out_w), dtype=np.result_type(inputs, weights))
    for o in range(out_ch):  # L1
        for i in range(in_ch):  # L2
            for c in range(out_w):  # L3
                for r in range(out_h):  # L4
                    for p in range(kernel_h):  # L5
                        for q in range(kernel_w):  # L6
                            out[o][r][c] += (
                                weights[o][i][p][q]
                                * padded[i][stride * r + dilation * p][
                                    stride * c + dilation * q
                                ]
                            )
    return out


def random_layer_tensors(
    layer: ConvLayer, *, seed: int = 0, dtype: np.dtype | type = np.float32
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic (inputs, weights) for a layer.

    The paper's throughput results are value-independent; synthetic data
    drawn from the seeded generator stands in for ImageNet activations.
    """
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal(
        (layer.in_channels, layer.in_height, layer.in_width)
    ).astype(dtype)
    weights = rng.standard_normal(
        (layer.out_channels, layer.in_channels // layer.groups, layer.kernel, layer.kernel)
    ).astype(dtype)
    return inputs, weights


__all__ = [
    "conv2d",
    "conv2d_layer",
    "conv2d_reference_loops",
    "pad_input",
    "random_layer_tensors",
]
