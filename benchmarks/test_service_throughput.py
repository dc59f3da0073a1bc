"""Batched encoder inference against per-window inference.

The access-control server encodes each session's windows one at a time
(``KeySeedPipeline.imu_keyseed``/``rfid_keyseed``); hyperparameter
studies and ``batch_seed_pairs`` stack many windows through one
forward pass (``imu_keyseeds``/``rfid_keyseeds``).  This check pins
that the stacked pass is the same computation, not an approximation.
"""

from __future__ import annotations

import numpy as np


def _windows(n, rng):
    """Synthetic but shape/range-valid sensor windows."""
    pairs = []
    for _ in range(n):
        a_matrix = rng.normal(size=(200, 3))
        r_matrix = np.stack(
            [
                rng.uniform(-np.pi, np.pi, 400),
                np.abs(rng.normal(size=400)) + 0.5,
            ],
            axis=1,
        )
        pairs.append((a_matrix, r_matrix))
    return pairs


def test_batched_results_match_per_request(pipeline):
    """Batched inference is the same computation, not an approximation."""
    rng = np.random.default_rng(31_002)
    pairs = _windows(8, rng)
    for single, batched in zip(
        [pipeline.imu_keyseed(a) for a, _ in pairs],
        pipeline.imu_keyseeds([a for a, _ in pairs]),
    ):
        # Identical up to float reduction order; quantization makes any
        # residual difference visible as seed bit flips.
        assert single.mismatch_rate(batched) <= 0.05
    for single, batched in zip(
        [pipeline.rfid_keyseed(r) for _, r in pairs],
        pipeline.rfid_keyseeds([r for _, r in pairs]),
    ):
        assert single.mismatch_rate(batched) <= 0.05

