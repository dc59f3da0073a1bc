"""Per-layer measurements for the traced run.

Spans are recorded by this file around calls into each layer; nothing
under ``src/`` is instrumented for the benchmark.  Three kinds of
numbers come from here:

* an in-process replay of a workload's sessions that calls the layer
  functions in the order the server calls them (acquire, encode, the
  Fig. 4 OT messages, reconciliation), once untraced and once traced;
* micro-benchmarks of single layer calls on fixed inputs (group
  exponentiation, codec frames, the access record layer and key store);
* a fresh interpreter that times ``import repro.cli``, the bundle load
  and the first fixed-base exponentiation (comb table) of each group.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np


class Spans:
    """In-memory span recorder: name, start, end, parent, session."""

    def __init__(self):
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, session: Optional[int] = None):
        parent = self._stack[-1] if self._stack else None
        if session is None and parent is not None:
            session = self.records[parent]["session"]
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "session": session}
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def mean_self_ms(self) -> Dict[str, float]:
        """Mean self time per span name: duration minus child spans."""
        child_s = [0.0] * len(self.records)
        for rec in self.records:
            if rec["parent"] is not None:
                child_s[rec["parent"]] += rec["end"] - rec["start"]
        by_name: Dict[str, List[float]] = {}
        for rec, children in zip(self.records, child_s):
            by_name.setdefault(rec["name"], []).append(
                rec["end"] - rec["start"] - children
            )
        return {name: 1000.0 * statistics.fmean(values)
                for name, values in by_name.items()}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


class NoSpans:
    """The untraced twin of :class:`Spans`."""

    def span(self, name: str, session: Optional[int] = None):
        return contextlib.nullcontext()


class Replayer:
    """Replays sessions in-process in the server's call order.

    Mirrors ``WaveKeyAccessServer`` defaults (first volunteer, fourth
    mobile device, first tag and environment, default geometry) and the
    seed derivations of the server and of ``WaveKeyNetClient``.  The OT
    material pool is off, so ``ot.announce`` includes fixed-base work.
    """

    def __init__(self, group_name: str, max_attempts: int = 3):
        from repro.core import KeySeedPipeline
        from repro.core.pretrained import load_default_bundle
        from repro.crypto.group import resolve_group
        from repro.gesture import default_volunteers
        from repro.imu import default_mobile_devices
        from repro.protocol import KeyAgreementConfig
        from repro.rfid import (
            ChannelGeometry, default_environments, default_tags,
        )

        bundle = load_default_bundle()
        self.pipeline = KeySeedPipeline(bundle)
        self.config = KeyAgreementConfig(
            eta=bundle.eta, group=resolve_group(group_name)
        )
        self.max_attempts = max_attempts
        self.volunteer = default_volunteers()[0]
        self.device = default_mobile_devices()[3]
        self.tag = default_tags()[0]
        self.environment = default_environments()[0]
        self.geometry = ChannelGeometry()

    def session(self, seed: int, spans) -> None:
        """One session: up to ``max_attempts`` gestures until the keys
        reconcile."""
        from repro.datasets.generation import generate_sample
        from repro.errors import KeyAgreementFailure, SimulationError
        from repro.gesture import sample_gesture
        from repro.protocol.agreement import AgreementParty
        from repro.utils.rng import child_rng

        with spans.span("session", seed):
            for attempt in range(1, self.max_attempts + 1):
                with spans.span("attempt"):
                    rng = child_rng(seed, "attempt", attempt)
                    acquire_rng = child_rng(rng, "acquire")
                    try:
                        with spans.span("acquire.gesture"):
                            trajectory = sample_gesture(
                                self.volunteer,
                                child_rng(acquire_rng, "gesture"),
                            )
                        with spans.span("acquire.sample"):
                            sample = generate_sample(
                                trajectory, self.device, self.tag,
                                self.environment, dynamic=False,
                                geometry=self.geometry,
                                rng=child_rng(acquire_rng, "sample"),
                            )
                    except SimulationError:
                        continue
                    with spans.span("encode.imu"):
                        seed_m = self.pipeline.imu_keyseed(sample.a_matrix)
                    with spans.span("encode.rf"):
                        seed_r = self.pipeline.rfid_keyseed(sample.r_matrix)
                    mobile = AgreementParty(
                        "mobile", seed_m, self.config,
                        rng=child_rng(seed, "net-client", attempt),
                        own_sequences_first=True,
                    )
                    server = AgreementParty(
                        "server", seed_r, self.config,
                        rng=child_rng(child_rng(rng, "agreement"), "party"),
                        own_sequences_first=False,
                    )
                    with spans.span("ot.announce"):
                        announce_m = mobile.craft_announce()
                        announce_s = server.craft_announce()
                    with spans.span("ot.respond"):
                        response_m = mobile.craft_response(announce_s)
                        response_s = server.craft_response(announce_m)
                    with spans.span("ot.ciphertexts"):
                        cipher_m = mobile.craft_ciphertexts(response_s)
                        cipher_s = server.craft_ciphertexts(response_m)
                    with spans.span("ot.assemble"):
                        mobile.receive_ciphertexts(cipher_s)
                        server.receive_ciphertexts(cipher_m)
                        mobile.build_preliminary_key()
                        server.build_preliminary_key()
                    with spans.span("reconcile"):
                        try:
                            challenge = mobile.craft_challenge()
                            mobile.verify_confirmation(
                                server.answer_challenge(challenge)
                            )
                        except KeyAgreementFailure:
                            continue
                return


def replay(group_name: str, seeds: List[int], budget_s: float,
           spans: Spans) -> Dict[str, float]:
    """Untraced then traced replay of the same sessions.

    The untraced pass takes sessions from ``seeds`` until ``budget_s``
    is spent (at least one); the traced pass repeats exactly those.
    Returns the layers' mean self times and ``trace.overhead``.
    """
    replayer = Replayer(group_name)
    replayer.session(seeds[-1], NoSpans())  # warm: comb tables, caches
    untraced: List[int] = []
    started = time.perf_counter()
    for seed in seeds[:-1]:
        untraced.append(seed)
        replayer.session(seed, NoSpans())
        if time.perf_counter() - started >= budget_s:
            break
    untraced_s = time.perf_counter() - started
    started = time.perf_counter()
    for seed in untraced:
        replayer.session(seed, spans)
    traced_s = time.perf_counter() - started
    self_ms = spans.mean_self_ms()
    out = {f"{name}_ms": self_ms[name] for name in LAYER_SPANS}
    out["trace.overhead"] = traced_s / untraced_s
    return out


#: Replay spans reported as ``<name>_ms`` (mean self time per call).
LAYER_SPANS = (
    "acquire.gesture", "acquire.sample", "encode.imu", "encode.rf",
    "ot.announce", "ot.respond", "ot.ciphertexts", "ot.assemble",
    "reconcile",
)


def _mean_us(fn, items: List, repeats: int = 5) -> float:
    """Median over ``repeats`` passes of the mean µs per call."""
    passes = []
    for _ in range(repeats):
        started = time.perf_counter()
        for item in items:
            fn(item)
        passes.append((time.perf_counter() - started) / len(items))
    return 1e6 * statistics.median(passes)


def micro(group_name: str) -> Dict[str, float]:
    """Single-layer calls on fixed inputs."""
    from repro.access.channel import encode_op
    from repro.access.records import (
        CLIENT, SERVER, RecordChannel, derive_channel_keys,
    )
    from repro.access.store import KeyStore
    from repro.core import KeySeedPipeline
    from repro.core.pretrained import load_default_bundle
    from repro.crypto.group import resolve_group
    from repro.net.codec import ResumeRequest, decode_payload, encode_message
    from repro.protocol import KeyAgreementConfig
    from repro.protocol.agreement import AgreementParty
    from repro.utils.bits import BitSequence

    rng = np.random.default_rng(20240611)
    out: Dict[str, float] = {}
    for name in ("modp512", "curve25519"):
        group = resolve_group(name)
        exponents = [group.random_exponent(rng) for _ in range(20)]
        group.power(exponents[0])
        out[f"crypto.power_us.{name}"] = _mean_us(group.power, exponents, 3)
        base = group.power(exponents[-1])
        out[f"crypto.exp_us.{name}"] = _mean_us(
            lambda e: group.exp(base, e), exponents[:10], 3
        )

    bundle = load_default_bundle()
    seed_length = KeySeedPipeline(bundle).seed_length
    config = KeyAgreementConfig(eta=bundle.eta,
                                group=resolve_group(group_name))
    announce = AgreementParty(
        "mobile", BitSequence.random(seed_length, rng), config, rng=7,
    ).craft_announce()

    secret = bytes(range(32))
    nonce_c, nonce_s = bytes(16), bytes(range(16, 32))
    keys = derive_channel_keys(secret, nonce_c, nonce_s)
    plaintext = encode_op("query", target="door")
    record = RecordChannel(keys, CLIENT).seal(plaintext)
    resume = ResumeRequest(sender="mobile", ticket_id="a" * 32,
                           client_nonce=nonce_c)
    for label, message, n in (("OTAnnounce", announce, 20),
                              ("RecordFrame", record, 400),
                              ("ResumeRequest", resume, 400)):
        frame = encode_message(message)
        out[f"codec.encode_us.{label}"] = _mean_us(
            encode_message, [message] * n)
        out[f"codec.decode_us.{label}"] = _mean_us(
            decode_payload, [frame] * n)

    out["access.derive_keys_us"] = _mean_us(
        lambda _: derive_channel_keys(secret, nonce_c, nonce_s),
        [None] * 200)
    sender = RecordChannel(keys, CLIENT)
    out["access.seal_us"] = _mean_us(sender.seal, [plaintext] * 200)
    # Records open only in sequence, so each pass needs its own stream.
    passes = []
    for _ in range(5):
        sealed = list(map(RecordChannel(keys, CLIENT).seal,
                          [plaintext] * 200))
        receiver = RecordChannel(keys, SERVER)
        passes.append(_mean_us(receiver.open_record, sealed, 1))
    out["access.open_us"] = statistics.median(passes)
    store = KeyStore()
    ids = [store.issue(secret, f"mobile-{i}").ticket_id for i in range(8)]
    out["access.store_resume_us"] = _mean_us(store.resume, ids * 50)
    return out


_SETUP_SCRIPT = r"""
import json, time
t = time.perf_counter(); import repro.cli
out = {"setup.import_s": time.perf_counter() - t}
from repro.core.pretrained import load_default_bundle
t = time.perf_counter(); load_default_bundle()
out["setup.bundle_load_s"] = time.perf_counter() - t
from repro.crypto.group import resolve_group
for name in ("modp512", "curve25519"):
    group = resolve_group(name)
    t = time.perf_counter(); group.power(12345)
    out["setup.comb_s." + name] = time.perf_counter() - t
print(json.dumps(out))
"""


def setup_costs(root: str) -> Dict[str, float]:
    """Cold-start costs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT], cwd=root, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])
