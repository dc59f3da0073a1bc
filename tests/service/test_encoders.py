"""The server's encode stage against the pipeline's batch API.

Each worker calls ``KeySeedPipeline.imu_keyseed``/``rfid_keyseed`` on
its own thread, and all workers share one pair of encoder networks.
These tests pin that the seeds the server hands to key agreement are
bit-identical to a batch-of-one pass (``imu_keyseeds([a])[0]``) and
that concurrent inference on the shared networks gives the same seeds
as serial calls.
"""

import sys
import threading

from repro.core.pipeline import KeySeedPipeline
from repro.service import AccessRequest, ServiceConfig, WaveKeyAccessServer

from tests.service.test_server import fixed_acquire, ok_outcome

SEEDS = range(8)


def serve(bundle, workers, wrap_pipeline=None):
    """Run one session per entry of ``SEEDS`` and return
    ``{rng_seed: (S_M bytes, S_R bytes)}`` as the server encoded them."""
    encoded = {}
    lock = threading.Lock()

    def recording_agreement(rng_seed):
        def agree(seed_m, seed_r, **kwargs):
            with lock:
                encoded[rng_seed] = (seed_m.to_bytes(), seed_r.to_bytes())
            return ok_outcome(kwargs["clock"])

        return agree

    server = WaveKeyAccessServer(
        bundle, ServiceConfig(workers=workers), acquire_fn=fixed_acquire
    )
    if wrap_pipeline is not None:
        wrap_pipeline(server.pipeline)
    with server:
        tickets = [
            server.submit(AccessRequest(
                rng_seed=s, agreement_fn=recording_agreement(s)
            ))
            for s in SEEDS
        ]
        records = [t.result(timeout=60) for t in tickets]
    assert all(r.success for r in records)
    return encoded


def test_server_seeds_match_the_batch_of_one_path(default_bundle):
    encoded = serve(default_bundle, workers=1)
    pipeline = KeySeedPipeline(default_bundle)
    for rng_seed in SEEDS:
        request = AccessRequest(rng_seed=rng_seed)
        a_matrix, r_matrix = fixed_acquire(request, None)
        assert encoded[rng_seed] == (
            pipeline.imu_keyseeds([a_matrix])[0].to_bytes(),
            pipeline.rfid_keyseeds([r_matrix])[0].to_bytes(),
        )


def test_concurrent_worker_encodes_match_serial(default_bundle):
    """Four workers enter each encoder together on distinct windows."""
    workers = 4

    def gate_encoders(pipeline):
        # Every call waits until all four workers are inside the same
        # encoder, so the forwards on the shared network overlap.
        for name in ("imu_keyseed", "rfid_keyseed"):
            barrier = threading.Barrier(workers, timeout=30)

            def gated(window, encode=getattr(pipeline, name),
                      barrier=barrier):
                barrier.wait()
                return encode(window)

            setattr(pipeline, name, gated)

    # A short switch interval makes the threads interleave inside the
    # forward passes rather than run them back to back.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        concurrent = serve(default_bundle, workers, gate_encoders)
    finally:
        sys.setswitchinterval(interval)
    serial = serve(default_bundle, workers=1)
    assert concurrent == serial
    assert set(serial) == set(SEEDS)
    # distinct windows really produced distinct seeds
    assert len({seeds for seeds in serial.values()}) == len(SEEDS)
