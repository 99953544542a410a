"""Unit behaviour of the perf layer: caches, fingerprints, config."""

import pytest

from repro import (
    MIXTRAL_8X7B,
    SYSTEM_REGISTRY,
    ExperimentSpec,
    ParallelStrategy,
    StepCostModel,
    h800_node,
    perf,
)
from repro.graph import scheduler as graph_scheduler
from repro.kernels import fused
from repro.runtime.workload import make_workload
from repro.serve import ServeScenario, TraceSpec
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.systems import Comet, MegatronCutlass, Tutel

CLUSTER = h800_node()
STRATEGY = ParallelStrategy(1, 8)


def _workload(tokens=1024, seed=0):
    return make_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, tokens, seed=seed)


class TestBoundedCache:
    def test_hit_miss_counters(self):
        cache = perf.BoundedCache(maxsize=4, name="t")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.misses == 1 and cache.hits == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_lru_eviction_is_bounded(self):
        cache = perf.BoundedCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b (least recently used)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_clear_resets_counters(self):
        cache = perf.BoundedCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == cache.evictions == 0

    def test_rejects_none_and_bad_maxsize(self):
        with pytest.raises(ValueError):
            perf.BoundedCache(maxsize=0)
        with pytest.raises(ValueError):
            perf.BoundedCache(maxsize=1).put("k", None)


class TestFingerprints:
    def test_workload_fingerprint_deterministic(self):
        assert _workload().fingerprint() == _workload().fingerprint()

    def test_workload_fingerprint_sensitive_to_inputs(self):
        base = _workload().fingerprint()
        assert _workload(tokens=2048).fingerprint() != base
        assert _workload(seed=1).fingerprint() != base

    def test_system_fingerprint_covers_knobs(self):
        assert Comet().fingerprint() == Comet().fingerprint()
        assert Comet().fingerprint() != Comet(reschedule=False).fingerprint()
        assert Comet().fingerprint() != Comet(fixed_nc=8).fingerprint()
        assert Tutel().fingerprint() != MegatronCutlass().fingerprint()

    def test_backward_variant_fingerprint_differs(self):
        system = Tutel()
        assert system.fingerprint() != system.backward_variant().fingerprint()

    def test_state_token_scopes_adaptive_comet(self):
        # Adaptive COMET's timing depends on instance history: each
        # instance gets its own token.  Non-adaptive variants are pure.
        assert Comet().timing_state_token() != Comet().timing_state_token()
        assert Comet(fixed_nc=8).timing_state_token() is None
        assert Comet(adaptive=False).timing_state_token() is None
        assert Tutel().timing_state_token() is None


class TestTimingCache:
    def test_cached_time_layer_hits_and_counts(self):
        perf.clear_caches()
        workload = _workload()
        system = MegatronCutlass()
        first = perf.cached_time_layer(system, workload)
        second = perf.cached_time_layer(MegatronCutlass(), workload)
        assert first == second
        assert perf.TIMING_CACHE.hits >= 1
        assert perf.time_layer_calls() == 1

    def test_disabled_config_bypasses_cache(self):
        perf.clear_caches()
        workload = _workload()
        with perf.disabled():
            perf.cached_time_layer(MegatronCutlass(), workload)
            perf.cached_time_layer(MegatronCutlass(), workload)
        assert len(perf.TIMING_CACHE) == 0
        assert perf.time_layer_calls() == 2

    def test_shared_workload_returns_same_object(self):
        perf.clear_caches()
        a = perf.shared_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, 1024)
        b = perf.shared_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, 1024)
        assert a is b
        assert perf.WORKLOAD_CACHE.hits == 1


class TestReferenceSwitch:
    """``perf.disabled()`` sets the one switch, ``CONFIG.reference``:
    every tier runs its reference path and no cache fills."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_reference_paths_run(self, monkeypatch):
        layer0 = self._count(monkeypatch, fused, "layer0_makespan_reference")
        des = self._count(monkeypatch, ContinuousBatchingScheduler, "_run_des")
        lists = self._count(monkeypatch, graph_scheduler, "list_schedule")
        serve = ServeScenario(
            config=MIXTRAL_8X7B,
            cluster=CLUSTER,
            strategy=STRATEGY,
            trace=TraceSpec(kind="poisson", rps=50.0, duration_s=0.5, seed=0),
        )
        grid = ExperimentSpec.grid(
            models=MIXTRAL_8X7B,
            clusters=CLUSTER,
            strategies=(1, 8),
            tokens=1024,
            overlap_policies=("per_layer", "shortcut"),
            stragglers=(None, 1.5),
            systems="comet",
        )

        def run():
            grid.run(level="model")
            serve.run_system(Comet())

        perf.clear_caches()
        run()
        assert not layer0 and not des and not lists
        perf.clear_caches()
        with perf.disabled():
            run()
        assert layer0 and des and lists
        assert len(perf.GRAPH_CACHE) == 0
        assert len(perf.GRAPH_BATCH_CACHE) == 0
        assert len(perf.TIMING_CACHE) == 0

    def test_comet_simulates_every_rank(self, monkeypatch):
        # Under TP8 every rank's layer1 kernel is the same, so the
        # production path runs it once where the reference runs it on
        # all eight ranks.
        workload = make_workload(
            MIXTRAL_8X7B, CLUSTER, ParallelStrategy(8, 1), 1024
        )
        calls = self._count(monkeypatch, Comet, "_run_layer1_kernel")
        Comet().time_layer(workload)
        fast = len(calls)
        calls.clear()
        with perf.disabled():
            Comet().time_layer(workload)
        assert len(calls) - fast == workload.world_size - 1

    def test_switch_restored_after_nesting_and_errors(self):
        assert not perf.CONFIG.reference
        with perf.disabled():
            with perf.disabled():
                assert perf.CONFIG.reference
            assert perf.CONFIG.reference
        assert not perf.CONFIG.reference
        with pytest.raises(RuntimeError):
            with perf.disabled():
                raise RuntimeError("boom")
        assert not perf.CONFIG.reference

    def test_config_has_one_field(self):
        assert list(vars(perf.PerfConfig())) == ["reference"]
        assert not hasattr(perf, "configure")


class TestStepCostModelCache:
    def test_step_cache_bounded_with_stats_and_clear(self):
        perf.clear_caches()
        model = StepCostModel(
            SYSTEM_REGISTRY.create("megatron-cutlass"),
            MIXTRAL_8X7B,
            CLUSTER,
            STRATEGY,
            bucket_tokens=256,
        )
        cost = model.step_us(100, 20)
        assert model.step_us(90, 30) == cost  # same bucket -> memoised
        stats = model.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["maxsize"] > 0
        model.clear()
        assert model.cache_stats()["hits"] == 0
        assert model.step_us(100, 20) == cost  # recomputed identically

    def test_workload_shared_across_systems(self):
        """Every system prices the identical bucket geometry (the old
        module-level workload cache contract, now bounded in repro.perf)."""
        perf.clear_caches()
        kwargs = dict(
            config=MIXTRAL_8X7B,
            cluster=CLUSTER,
            strategy=STRATEGY,
            bucket_tokens=256,
        )
        a = StepCostModel(SYSTEM_REGISTRY.create("comet"), **kwargs)
        b = StepCostModel(SYSTEM_REGISTRY.create("tutel"), **kwargs)
        assert a._workload(512) is b._workload(512)

    def test_cache_stats_shape(self):
        stats = perf.cache_stats()
        assert set(stats) == {
            "timing",
            "workload",
            "graph",
            "graph_batch",
            "step-cost",
        }
        for doc in stats.values():
            assert {"hits", "misses", "evictions", "size", "maxsize"} <= set(doc)


class TestCacheConcurrencyHammer:
    """Eviction-race hardening: every cache operation is atomic.

    Eight threads hammer one small cache (every put evicts) while a
    reader polls stats; afterwards — and at every sampled instant — the
    counters must be coherent: non-negative, size bounded by maxsize,
    and hit_rate in [0, 1].  A second hammer drives the real grid
    entry point and asserts the ResultSets are byte-identical to the
    serial run.
    """

    THREADS = 8

    def test_bounded_cache_hammer(self):
        import threading

        cache = perf.BoundedCache(maxsize=4, name="hammer")
        samples = []
        stop = threading.Event()

        def writer(tid):
            for i in range(400):
                key = (tid * 7 + i) % 32
                value = cache.get(key)
                if value is None:
                    cache.put(key, key + 1)
                else:
                    assert value == key + 1

        def reader():
            while not stop.is_set():
                samples.append((cache.stats(), len(cache)))

        threads = [
            threading.Thread(target=writer, args=(tid,))
            for tid in range(self.THREADS)
        ]
        poll = threading.Thread(target=reader)
        poll.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        poll.join()

        final = cache.stats()
        samples.append((final, len(cache)))
        for stats, size in samples:
            assert stats["hits"] >= 0
            assert stats["misses"] >= 0
            assert stats["evictions"] >= 0
            assert 0 <= stats["size"] <= stats["maxsize"]
            assert 0.0 <= stats["hit_rate"] <= 1.0
            assert 0 <= size <= stats["maxsize"]
        assert final["hits"] + final["misses"] == self.THREADS * 400

    def test_timing_cache_hammer_under_eviction(self):
        """A tiny TimingCache forces the popitem loop on nearly every
        put; concurrent time_layer calls must stay correct and the
        counters coherent."""
        import threading

        cache = perf.TimingCache(maxsize=2, name="hammer-timing")
        workloads = [_workload(tokens=1024 * (1 + i)) for i in range(4)]
        system = Comet()
        expected = {
            w.fingerprint(): system.time_layer(w) for w in workloads
        }
        errors = []

        def worker(tid):
            try:
                for i in range(30):
                    workload = workloads[(tid + i) % len(workloads)]
                    timing = cache.time_layer(system, workload)
                    assert timing == expected[workload.fingerprint()]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["evictions"] >= 1  # the hammer really evicted
        assert stats["size"] <= 2
        assert min(
            stats["hits"], stats["misses"], stats["evictions"],
            stats["time_layer_calls"],
        ) >= 0

    def test_grid_byte_identical_with_8_workers(self):
        """The full ExperimentSpec path: 8 worker threads sharing the
        global caches must reproduce the serial export byte for byte."""
        from repro import ExperimentSpec

        spec = ExperimentSpec.grid(
            models="mixtral", clusters="h800", strategies="sweep",
            tokens=(1024, 2048), seeds=(0, 1),
            systems=("comet", "tutel", "megatron-cutlass"),
        )
        perf.clear_caches()
        serial = spec.run()
        perf.clear_caches()
        threaded = spec.run(workers=self.THREADS)
        assert threaded.to_csv() == serial.to_csv()
        assert threaded.to_json() == serial.to_json()
        for name, stats in perf.cache_stats().items():
            assert stats["hits"] >= 0 and stats["misses"] >= 0, name
            assert stats["evictions"] >= 0
            assert 0 <= stats["size"] <= stats["maxsize"]
