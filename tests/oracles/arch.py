"""Frozen reference implementation of the backbone cost lowering.

:func:`estimate_cost_reference` and :func:`exit_branch_cost_reference` are
the pre-optimisation lowerings kept verbatim: every MBConv layer (and the
exit branch) is built as ``LayerCost`` part objects -- expand, depthwise,
SE, project -- that ``_merge`` re-reads through one ``sum`` per field.  Production (:func:`repro.arch.cost.estimate_cost`)
sums the same parts in the same order without building the part objects;
``tests/test_arch.py`` diffs the two field by field, and
``tests/test_oracles.py`` pins this module's output with a golden digest.
"""

from __future__ import annotations

from repro.arch.config import BackboneConfig, LayerSpec
from repro.arch.cost import (
    DEFAULT_BYTES_PER_ELEMENT,
    SE_REDUCTION,
    LayerCost,
    NetworkCost,
)

__all__ = ["estimate_cost_reference", "exit_branch_cost_reference"]


def _conv_cost(
    name: str,
    kind: str,
    index: int,
    in_ch: int,
    out_ch: int,
    kernel: int,
    in_res: int,
    out_res: int,
    groups: int = 1,
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
    bn: bool = True,
) -> LayerCost:
    macs = out_res * out_res * (in_ch // groups) * out_ch * kernel * kernel
    params = (in_ch // groups) * out_ch * kernel * kernel + (2 * out_ch if bn else 0)
    return LayerCost(
        name=name,
        kind=kind,
        index=index,
        macs=float(macs),
        params=float(params),
        input_bytes=float(in_res * in_res * in_ch * bytes_per_element),
        output_bytes=float(out_res * out_res * out_ch * bytes_per_element),
        weight_bytes=float(params * bytes_per_element),
    )


def _merge(name: str, kind: str, index: int, parts: list[LayerCost]) -> LayerCost:
    return LayerCost(
        name=name,
        kind=kind,
        index=index,
        macs=sum(p.macs for p in parts),
        params=sum(p.params for p in parts),
        input_bytes=sum(p.input_bytes for p in parts),
        output_bytes=sum(p.output_bytes for p in parts),
        weight_bytes=sum(p.weight_bytes for p in parts),
    )


def _mbconv_cost(
    spec: LayerSpec,
    include_se: bool,
    bytes_per_element: float,
) -> LayerCost:
    in_ch, out_ch = spec.in_channels, spec.out_channels
    mid = in_ch * spec.expand
    in_res, out_res = spec.in_resolution, spec.out_resolution
    parts: list[LayerCost] = []
    if spec.expand > 1:
        parts.append(
            _conv_cost("expand", "sub", 0, in_ch, mid, 1, in_res, in_res,
                       bytes_per_element=bytes_per_element)
        )
    parts.append(
        _conv_cost(
            "depthwise", "sub", 0, mid, mid, spec.kernel, in_res, out_res,
            groups=mid, bytes_per_element=bytes_per_element,
        )
    )
    if include_se:
        se_ch = max(1, mid // SE_REDUCTION)
        se_macs = 2.0 * mid * se_ch + mid  # squeeze FC + excite FC + rescale
        se_params = 2.0 * mid * se_ch + mid + se_ch
        parts.append(
            LayerCost(
                "se", "sub", 0, se_macs, se_params,
                input_bytes=float(mid * bytes_per_element),
                output_bytes=float(mid * bytes_per_element),
                weight_bytes=float(se_params * bytes_per_element),
            )
        )
    parts.append(
        _conv_cost("project", "sub", 0, mid, out_ch, 1, out_res, out_res,
                   bytes_per_element=bytes_per_element)
    )
    return _merge(f"mbconv{spec.index}", "mbconv", spec.index, parts)


def estimate_cost_reference(
    config: BackboneConfig,
    include_se: bool = True,
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
) -> NetworkCost:
    """Lower a backbone config into its per-layer cost profile."""
    cost = NetworkCost(config_key=config.key)
    for spec in config.layers():
        if spec.kind == "stem":
            cost.layers.append(
                _conv_cost("stem", "stem", 0, spec.in_channels, spec.out_channels,
                           spec.kernel, spec.in_resolution, spec.out_resolution,
                           bytes_per_element=bytes_per_element)
            )
        elif spec.kind == "mbconv":
            cost.layers.append(_mbconv_cost(spec, include_se, bytes_per_element))
        elif spec.kind == "head":
            cost.layers.append(
                _conv_cost("head", "head", 0, spec.in_channels, spec.out_channels,
                           1, spec.in_resolution, spec.out_resolution,
                           bytes_per_element=bytes_per_element)
            )
        elif spec.kind == "classifier":
            macs = float(spec.in_channels * spec.out_channels)
            params = float(spec.in_channels * spec.out_channels + spec.out_channels)
            cost.layers.append(
                LayerCost(
                    "classifier", "classifier", 0, macs, params,
                    input_bytes=float(spec.in_channels * bytes_per_element),
                    output_bytes=float(spec.out_channels * bytes_per_element),
                    weight_bytes=float(params * bytes_per_element),
                )
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown layer kind {spec.kind!r}")
    return cost


def exit_branch_cost_reference(
    in_channels: int,
    resolution: int,
    num_classes: int,
    branch_width: int | None = None,
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
) -> LayerCost:
    """Cost of the paper's exit branch at a given attachment point.

    The branch is one conv-BN-activation block followed by global pooling and
    a classifier (paper §IV-B1).  ``branch_width`` defaults to the input
    channel count.
    """
    width = branch_width or in_channels
    conv = _conv_cost("exit_conv", "sub", 0, in_channels, width, 3,
                      resolution, resolution, bytes_per_element=bytes_per_element)
    fc_macs = float(width * num_classes)
    fc_params = float(width * num_classes + num_classes)
    fc = LayerCost(
        "exit_fc", "sub", 0, fc_macs, fc_params,
        input_bytes=float(width * bytes_per_element),
        output_bytes=float(num_classes * bytes_per_element),
        weight_bytes=float(fc_params * bytes_per_element),
    )
    return _merge("exit_branch", "exit", 0, [conv, fc])
