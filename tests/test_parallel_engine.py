"""Run-loop and message guarantees that outlived the parallel engine.

The multi-process engine is retired (``repro.bench.parallel`` is a
docstring-only module; EXPERIMENTS.md, "Parallel engine: the measurement
that retired it"), but two properties it was tested alongside still hold
for the one serial event loop and the sweep pool that runs deployments
side by side:

* gc-state restoration around :meth:`Simulation.run`, on success and on
  failure, and
* pickling of :class:`CachedEncodable` messages, whose memoized caches
  travel with the message.
"""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.consensus.messages import Prepare
from repro.errors import SimulationError
from repro.net.simulator import Simulation
from repro.types import replica_id


class TestGcRestoration:
    """The run loop turns the collector off and must hand it back in the
    state it found it, on success and on failure alike."""

    @staticmethod
    def _run_small_deployment():
        from repro import Deployment, ExperimentConfig

        Deployment(ExperimentConfig(
            protocol="geobft", num_clusters=1, replicas_per_cluster=4,
            batch_size=50, duration=0.4, warmup=0.1, seed=1,
            record_count=2_000, fast_crypto=True)).run()

    def test_serial_run_restores_enabled_gc(self):
        assert gc.isenabled()
        self._run_small_deployment()
        assert gc.isenabled()

    def test_serial_run_preserves_disabled_gc(self):
        # A caller that already disabled gc (e.g. an outer benchmark
        # harness) must not have it re-enabled behind its back.
        gc.disable()
        try:
            self._run_small_deployment()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_serial_run_restores_gc_on_failure(self):
        sim = Simulation(seed=1)

        def boom() -> None:
            raise SimulationError("injected")

        sim.schedule(0.01, boom)
        assert gc.isenabled()
        with pytest.raises(SimulationError):
            sim.run(until=0.1)
        assert gc.isenabled()


class TestMessagePickling:
    """Frozen slotted messages pickle (and copy) with their memoized
    caches, restored through ``object.__setattr__``."""

    def test_cached_encodable_caches_survive_pickling(self):
        message = Prepare(1, 0, 7, b"\x01" * 32, replica_id(1, 2))
        # Warm every cache slot the way the hot path does.
        encoded = message.encoded()
        digest = message.payload_digest()
        size = message.size_bytes()

        clone = pickle.loads(pickle.dumps(message))
        # The digest memo itself travelled: it is not re-derived.
        assert object.__getattribute__(clone,
                                       "_payload_digest_cache") == digest
        assert clone.encoded() == encoded
        assert clone.payload_digest() == digest
        assert clone.size_bytes() == size

    def test_unwarmed_message_pickles_without_caches(self):
        message = Prepare(1, 0, 7, b"\x02" * 32, replica_id(1, 3))
        clone = pickle.loads(pickle.dumps(message))
        assert clone.payload() == message.payload()
