"""Tests for the parallel sweep runner (``repro.runner``).

The contract under test: execution mode (serial, batched fan-out over
a process pool, cache) can never change a result.  Seeds derive from
the run seed and the unit spec only, results are keyed by the spec
hash, and a host without multiprocessing still completes every unit.
"""

import pytest

from repro.analysis import (DmsdSteadyState, NoDvfsSteadyState,
                            RmsdSteadyState, run_sweep, sweep_units)
from repro.noc import GHZ, SimBudget
from repro.runner import (ExecutionContext, UnitCache, WorkUnit,
                          default_jobs, derive_unit_seed, unit_generator)
from repro.runner import executor as executor_mod
from repro.traffic import PatternTraffic, make_pattern

TINY_BUDGET = SimBudget(200, 500, 1500)


@pytest.fixture
def factory(tiny_config):
    mesh = tiny_config.make_mesh()
    pattern = make_pattern("uniform", mesh)
    return lambda rate: PatternTraffic(pattern, rate)


def make_units(config, factory, rates=(0.05, 0.1, 0.15), seed=7,
               strategy=None):
    return sweep_units(config, factory, list(rates),
                       strategy or NoDvfsSteadyState(), TINY_BUDGET, seed)


def result_fingerprint(unit_result):
    """Everything that should be schedule-independent."""
    r = unit_result.result
    return (unit_result.policy, unit_result.x, unit_result.freq_hz,
            unit_result.seed, r.mean_latency_cycles, r.mean_delay_ns,
            r.p99_delay_ns, r.measured_created, r.measured_delivered,
            r.accepted_node_rate, r.backlog_delta_flits)


class TestSeedDerivation:
    def test_deterministic(self):
        assert (derive_unit_seed(3, "ab" * 32)
                == derive_unit_seed(3, "ab" * 32))

    def test_varies_with_run_seed_and_digest(self):
        assert derive_unit_seed(3, "ab" * 32) != derive_unit_seed(4, "ab" * 32)
        assert derive_unit_seed(3, "ab" * 32) != derive_unit_seed(3, "cd" * 32)

    def test_generator_streams_differ(self):
        a = unit_generator(1, "ab" * 32).random(4)
        b = unit_generator(1, "cd" * 32).random(4)
        assert (a != b).any()

    def test_unit_seed_stable_across_orderings(self, tiny_config, factory):
        forward = make_units(tiny_config, factory)
        backward = make_units(tiny_config, factory)[::-1]
        seeds_fwd = {u.x: u.seed() for u in forward}
        seeds_bwd = {u.x: u.seed() for u in backward}
        assert seeds_fwd == seeds_bwd

    def test_unit_seeds_pairwise_distinct(self, tiny_config, factory):
        units = make_units(tiny_config, factory)
        seeds = [u.seed() for u in units]
        assert len(set(seeds)) == len(seeds)

    def test_digest_ignores_object_identity(self, tiny_config):
        """Two separately built but equal specs share one digest."""
        def build():
            mesh = tiny_config.make_mesh()
            traffic = PatternTraffic(make_pattern("uniform", mesh), 0.1)
            return WorkUnit("rmsd", 0.1, tiny_config, traffic,
                            RmsdSteadyState(0.4), TINY_BUDGET, 7)
        assert build().digest() == build().digest()

    def test_digest_sees_strategy_params(self, tiny_config, factory):
        a = make_units(tiny_config, factory, rates=(0.1,),
                       strategy=RmsdSteadyState(0.4))[0]
        b = make_units(tiny_config, factory, rates=(0.1,),
                       strategy=RmsdSteadyState(0.5))[0]
        assert a.digest() != b.digest()

    def test_digest_sees_run_seed(self, tiny_config, factory):
        a = make_units(tiny_config, factory, rates=(0.1,), seed=1)[0]
        b = make_units(tiny_config, factory, rates=(0.1,), seed=2)[0]
        assert a.digest() != b.digest()


class TestSerialParallelEquivalence:
    def test_identical_results(self, tiny_config, factory):
        units = make_units(tiny_config, factory)
        serial = ExecutionContext(jobs=1, cache=None).runner.run(units)
        parallel = ExecutionContext(jobs=3, cache=None).runner.run(units)
        assert ([result_fingerprint(r) for r in serial]
                == [result_fingerprint(r) for r in parallel])

    def test_order_preserved(self, tiny_config, factory):
        units = make_units(tiny_config, factory)
        out = ExecutionContext(jobs=3, cache=None).runner.run(units)
        assert [r.x for r in out] == [u.x for u in units]

    def test_submission_order_irrelevant(self, tiny_config, factory):
        units = make_units(tiny_config, factory)
        fwd = ExecutionContext(jobs=1, cache=None).runner.run(units)
        bwd = ExecutionContext(jobs=1, cache=None).runner.run(units[::-1])
        assert ([result_fingerprint(r) for r in fwd]
                == [result_fingerprint(r) for r in bwd][::-1])

    def test_run_sweep_equivalence_with_dmsd(self, tiny_config, factory):
        """The full sweep API, with the multi-simulation DMSD search."""
        strat = DmsdSteadyState(target_delay_ns=40.0, iterations=4,
                                search_budget=TINY_BUDGET)
        xs = [0.05, 0.15]
        serial = run_sweep(tiny_config, factory, xs, strat, TINY_BUDGET,
                           seed=9, context=ExecutionContext(
                               backend="serial", jobs=1, cache=None))
        parallel = run_sweep(tiny_config, factory, xs, strat, TINY_BUDGET,
                             seed=9, context=ExecutionContext(
                                 backend="batched", jobs=2, cache=None))
        assert ([(p.freq_hz, p.delay_ns, p.latency_cycles)
                 for p in serial.points]
                == [(p.freq_hz, p.delay_ns, p.latency_cycles)
                    for p in parallel.points])


class TestCache:
    def test_second_run_is_served_from_cache(self, tiny_config, factory):
        cache = UnitCache()
        runner = ExecutionContext(jobs=1, cache=cache).runner
        units = make_units(tiny_config, factory)
        first = runner.run(units)
        second = runner.run(units)
        assert not any(r.from_cache for r in first)
        assert all(r.from_cache for r in second)
        assert ([result_fingerprint(r) for r in first]
                == [result_fingerprint(r) for r in second])
        assert runner.last_report.cache_hits == len(units)
        assert runner.last_report.executed == 0

    def test_hit_miss_accounting(self, tiny_config, factory):
        cache = UnitCache()
        runner = ExecutionContext(jobs=1, cache=cache).runner
        units = make_units(tiny_config, factory)
        runner.run(units)
        assert cache.stats.misses == len(units)
        assert cache.stats.hits == 0
        runner.run(units)
        assert cache.stats.hits == len(units)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert len(cache) == len(units)

    def test_duplicate_units_in_one_batch_run_once(self, tiny_config,
                                                   factory):
        cache = UnitCache()
        runner = ExecutionContext(jobs=1, cache=cache).runner
        units = make_units(tiny_config, factory, rates=(0.1, 0.1, 0.1))
        out = runner.run(units)
        assert runner.last_report.executed == 1
        assert len({result_fingerprint(r) for r in out}) == 1

    def test_shared_across_equal_specs(self, tiny_config):
        """A rebuilt-but-equal unit hits the cache (cross-figure reuse)."""
        cache = UnitCache()
        runner = ExecutionContext(jobs=1, cache=cache).runner

        def units():
            mesh = tiny_config.make_mesh()
            pattern = make_pattern("uniform", mesh)
            return make_units(tiny_config,
                              lambda r: PatternTraffic(pattern, r))
        runner.run(units())
        again = runner.run(units())
        assert all(r.from_cache for r in again)

    def test_no_cache_runner_reruns(self, tiny_config, factory):
        runner = ExecutionContext(jobs=1, cache=None).runner
        units = make_units(tiny_config, factory, rates=(0.05,))
        runner.run(units)
        runner.run(units)
        assert runner.totals.executed == 2
        assert runner.totals.cache_hits == 0

    def test_clear_resets(self, tiny_config, factory):
        cache = UnitCache()
        runner = ExecutionContext(jobs=1, cache=cache).runner
        runner.run(make_units(tiny_config, factory, rates=(0.05,)))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0


class TestSerialFallback:
    def test_jobs_1_never_uses_a_pool(self, tiny_config, factory,
                                      monkeypatch):
        def boom(*a, **k):
            raise AssertionError("jobs=1 must not create a pool")
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", boom)
        runner = ExecutionContext(jobs=1, cache=None).runner
        out = runner.run(make_units(tiny_config, factory))
        assert len(out) == 3
        assert runner.last_report.parallel is False

    def test_falls_back_when_pool_unavailable(self, tiny_config, factory,
                                              monkeypatch):
        """No multiprocessing on the host: same results, serially."""
        def no_pool(*a, **k):
            raise OSError("no semaphores here")
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", no_pool)
        units = make_units(tiny_config, factory)
        degraded = ExecutionContext(jobs=4, cache=None).runner
        out = degraded.run(units)
        assert degraded.last_report.parallel is False
        clean = ExecutionContext(jobs=1, cache=None).runner.run(units)
        assert ([result_fingerprint(r) for r in out]
                == [result_fingerprint(r) for r in clean])

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            ExecutionContext(jobs=-1, cache=None).runner
        assert (ExecutionContext(jobs=0, cache=None).runner.context.jobs
                == default_jobs())


class TestReporting:
    def test_report_accounting(self, tiny_config, factory):
        runner = ExecutionContext(jobs=1, cache=UnitCache()).runner
        units = make_units(tiny_config, factory)
        runner.run(units)
        rep = runner.last_report
        assert rep.total_units == 3
        assert rep.executed == 3
        assert rep.cache_hits == 0
        assert rep.elapsed_s > 0
        assert rep.busy_s > 0
        assert rep.units_per_s > 0
        assert "3 units" in rep.render()
        assert runner.totals.total_units == 3

    def test_progress_callback_sees_every_unit(self, tiny_config, factory):
        seen = []
        runner = ExecutionContext(
            jobs=1, cache=None,
            progress=lambda done, total, res: seen.append(
                (done, total, res.x))).runner
        runner.run(make_units(tiny_config, factory))
        assert [s[0] for s in seen] == [1, 2, 3]
        assert all(s[1] == 3 for s in seen)
