"""Deterministic random weights for functional network execution.

The selection problem never looks at weight *values* (costs depend only on
tensor shapes, paper section 2.2), but the functional runtime needs concrete
kernels and fully-connected matrices to execute a network.  ``WeightStore``
generates them deterministically from a seed and the layer name, so two
executors built with the same seed produce bit-identical weights — which is
what lets the integration tests compare a PBQP-selected execution against the
all-SUM2D reference execution of the same network.
"""

from __future__ import annotations

import threading
import zlib
from typing import Dict, Tuple

import numpy as np

from repro.graph.layer import ConvLayer, FullyConnectedLayer
from repro.graph.network import Network


class WeightStore:
    """Deterministic per-layer weight generator and cache."""

    def __init__(self, network: Network, seed: int = 0, scale: float = 0.1) -> None:
        self.network = network
        self.seed = seed
        self.scale = scale
        self._cache: Dict[str, Tuple[np.ndarray, ...]] = {}
        self._shapes = network.infer_shapes()
        # One store may back executors on several threads (a Session shares
        # it across every plan of a network): the first materialize
        # synthesizes, concurrent ones wait for it instead of repeating it.
        self._materialize_lock = threading.Lock()

    def _rng_for(self, layer_name: str) -> np.random.Generator:
        digest = zlib.crc32(layer_name.encode("utf-8"))
        return np.random.default_rng((self.seed << 32) ^ digest)

    def conv_weights(self, layer_name: str) -> np.ndarray:
        """Kernel tensor ``(M, C/groups, K, K)`` for a convolution layer."""
        if layer_name in self._cache:
            return self._cache[layer_name][0]
        layer = self.network.layer(layer_name)
        if not isinstance(layer, ConvLayer):
            raise TypeError(f"{layer_name!r} is not a convolution layer")
        (producer,) = self.network.inputs_of(layer_name)
        scenario = layer.scenario(self._shapes[producer])
        rng = self._rng_for(layer_name)
        kernel = (self.scale * rng.standard_normal(scenario.kernel_shape)).astype(np.float32)
        self._cache[layer_name] = (kernel,)
        return kernel

    def fc_weights(self, layer_name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Weight matrix and bias vector for a fully-connected layer."""
        if layer_name in self._cache:
            cached = self._cache[layer_name]
            return cached[0], cached[1]
        layer = self.network.layer(layer_name)
        if not isinstance(layer, FullyConnectedLayer):
            raise TypeError(f"{layer_name!r} is not a fully-connected layer")
        (producer,) = self.network.inputs_of(layer_name)
        c, h, w = self._shapes[producer]
        rng = self._rng_for(layer_name)
        weights = (self.scale * rng.standard_normal((layer.out_features, c * h * w))).astype(
            np.float32
        )
        bias = (self.scale * rng.standard_normal(layer.out_features)).astype(np.float32)
        self._cache[layer_name] = (weights, bias)
        return weights, bias

    def materialize(self) -> None:
        """Synthesize every convolution and fully-connected weight now.

        The executor calls this before its first layer timer starts, so
        measured layer times hold compute only, never weight generation.
        A store already materialized synthesizes nothing.
        """
        with self._materialize_lock:
            for layer in self.network.layers():
                if isinstance(layer, ConvLayer):
                    self.conv_weights(layer.name)
                elif isinstance(layer, FullyConnectedLayer):
                    self.fc_weights(layer.name)
