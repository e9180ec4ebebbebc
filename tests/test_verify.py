"""Tests for the repro.verify sanitizer layer.

Three groups:

* kernel-sanitizer unit tests driving the invariants directly
  (deadlock, lock-order inversion, double release, leaked holds,
  past events);
* seeded-bug integration tests: deliberately broken controllers
  (monkeypatched duplicate acks, lost parity folds, over-fencing) must
  each raise :class:`InvariantViolation` naming the right invariant;
* zero-interference acceptance: an armed run produces the *same*
  ``FioResult`` as an unarmed run of the identical seed.
"""

import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.raid.locks import StripeLockManager
from repro.sim import CapacityResource, Environment
from repro.verify import InvariantViolation, KernelSanitizer, Verifier, VerifyConfig

KB = 1024


def armed_env():
    env = Environment()
    return env, KernelSanitizer(env)


class TestKernelSanitizer:
    def test_past_event_scheduling(self):
        env, sanitizer = armed_env()
        with pytest.raises(InvariantViolation) as exc:
            env._schedule(env.event(), delay=-5)
        assert exc.value.invariant == "past-event"

    def test_deadlock_reported_with_wait_graph(self):
        env, sanitizer = armed_env()
        locks = StripeLockManager(env)
        sanitizer.watch_locks(locks)

        def leaker():
            yield locks.acquire(7)
            # terminates holding stripe 7

        def waiter():
            yield locks.acquire(7)

        env.process(leaker(), name="leaker")
        env.process(waiter(), name="stuck")
        with pytest.raises(InvariantViolation) as exc:
            env.run()
        assert exc.value.invariant == "deadlock"
        assert "stuck" in exc.value.detail and "stripe 7" in exc.value.detail

    def test_deadlock_on_starved_until_event(self):
        env, sanitizer = armed_env()
        locks = StripeLockManager(env)
        sanitizer.watch_locks(locks)

        def leaker():
            yield locks.acquire(1)

        def waiter():
            yield locks.acquire(1)

        env.process(leaker(), name="leaker")
        stuck = env.process(waiter(), name="stuck")
        with pytest.raises(InvariantViolation) as exc:
            env.run(until=stuck)
        assert exc.value.invariant == "deadlock"

    def test_lock_order_inversion(self):
        env, sanitizer = armed_env()
        locks = StripeLockManager(env)
        sanitizer.watch_locks(locks)

        def forward():
            yield locks.acquire(0)
            yield locks.acquire(1)  # establishes order 0 -> 1
            locks.release(1)
            locks.release(0)

        def inverted():
            yield env.timeout(10)
            yield locks.acquire(1)
            yield locks.acquire(0)  # inversion: holds 1, wants 0
            locks.release(0)
            locks.release(1)

        env.process(forward(), name="forward")
        env.process(inverted(), name="inverted")
        with pytest.raises(InvariantViolation) as exc:
            env.run()
        assert exc.value.invariant == "lock-order-inversion"
        assert "inverted" in exc.value.detail

    def test_consistent_order_is_clean(self):
        env, sanitizer = armed_env()
        locks = StripeLockManager(env)
        sanitizer.watch_locks(locks)

        def job(name):
            yield locks.acquire(0)
            yield locks.acquire(1)
            yield env.timeout(5)
            locks.release(1)
            locks.release(0)

        env.process(job("a"), name="a")
        env.process(job("b"), name="b")
        env.run()
        assert sanitizer.violations == []
        sanitizer.check_quiescent()

    def test_double_release(self):
        env, sanitizer = armed_env()
        locks = StripeLockManager(env)
        sanitizer.watch_locks(locks)
        with pytest.raises(InvariantViolation) as exc:
            locks.release(3)
        assert exc.value.invariant == "double-release"

    def test_leaked_lock_hold(self):
        env, sanitizer = armed_env()
        locks = StripeLockManager(env)
        sanitizer.watch_locks(locks)

        def leaker():
            yield locks.acquire(2)

        env.process(leaker(), name="leaker")
        with pytest.raises(InvariantViolation) as exc:
            env.run()
        assert exc.value.invariant == "leaked-hold"
        assert "leaker" in exc.value.detail

    def test_leaked_resource_slot(self):
        env, sanitizer = armed_env()
        resource = CapacityResource(env, capacity=2, name="slots")
        sanitizer.watch_resource(resource)

        def leaker():
            yield resource.request()

        env.process(leaker(), name="leaker")
        with pytest.raises(InvariantViolation) as exc:
            env.run()
        assert exc.value.invariant == "leaked-hold"
        assert "slots" in exc.value.detail

    def test_clean_resource_usage_is_quiescent(self):
        env, sanitizer = armed_env()
        resource = CapacityResource(env, capacity=1, name="slots")
        sanitizer.watch_resource(resource)

        def user():
            yield resource.request()
            yield env.timeout(10)
            resource.release()

        env.process(user(), name="u1")
        env.process(user(), name="u2")
        env.run()
        assert sanitizer.violations == []
        sanitizer.check_quiescent()

    def test_armed_run_same_event_order(self):
        # the sanitized run loop must dispatch identically to the stock one
        def trace_run(env):
            order = []

            def ticker(tag, period):
                for _ in range(5):
                    yield env.timeout(period)
                    order.append((tag, env.now))

            env.process(ticker("a", 3), name="a")
            env.process(ticker("b", 5), name="b")
            env.run()
            return order

        plain = trace_run(Environment())
        env = Environment()
        KernelSanitizer(env)
        assert trace_run(env) == plain

    def test_armed_run_until_timer_runs_to_its_horizon(self):
        # an undispatched timer passed as ``until`` is the horizon it
        # denotes, armed or not
        env, sanitizer = armed_env()
        fired = []

        def ticker():
            for delay in (4, 6):
                yield env.timeout(delay)
                fired.append(env.now)

        env.process(ticker())
        env.run(until=env.timeout(10))
        assert env.now == 10
        assert fired == [4, 10]


def build_armed_draid(drives=4, stripes=8, chunk=4 * KB, verify=True):
    from repro.draid.host import DraidArray

    env = Environment()
    config = ClusterConfig(
        num_servers=drives,
        functional_capacity=stripes * chunk,
        verify=VerifyConfig() if verify else None,
    )
    cluster = build_cluster(env, config)
    geometry = RaidGeometry(RaidLevel.RAID5, drives, chunk)
    return env, cluster, DraidArray(cluster, geometry)


class TestSeededBugs:
    """Deliberately broken controllers must trip the right invariant."""

    def test_duplicate_ack_detected(self, monkeypatch):
        from repro.draid.bdev import DraidBdevServer

        env, cluster, array = build_armed_draid()
        orig = DraidBdevServer._complete

        def double_complete(self, origin, cid, kind, **kwargs):
            orig(self, origin, cid, kind, **kwargs)
            orig(self, origin, cid, kind, **kwargs)  # the bug: a second ack

        monkeypatch.setattr(DraidBdevServer, "_complete", double_complete)
        with pytest.raises(InvariantViolation) as exc:
            env.run(until=array.write(0, 4 * KB, b"\x5a" * 4 * KB))
        assert exc.value.invariant == "duplicate-completion"
        assert exc.value.cid is not None

    def test_lost_parity_fold_detected(self, monkeypatch):
        from repro.draid.bdev import DraidBdevServer

        env, cluster, array = build_armed_draid()
        orig = DraidBdevServer._maybe_finish_parity

        def eager_finish(self, key):
            # the bug: acknowledge the parity write as soon as the Parity
            # command arrives, without waiting for the promised partials
            state = self._parity_states.get(key)
            if state is not None and state.cmd is not None and state.wait_num:
                state.received = state.wait_num
            yield from orig(self, key)

        monkeypatch.setattr(DraidBdevServer, "_maybe_finish_parity", eager_finish)
        # a sub-stripe write drives the RMW path: data servers forward
        # partials that the parity server is supposed to fold
        with pytest.raises(InvariantViolation) as exc:
            env.run(until=array.write(0, 4 * KB, b"\xa5" * 4 * KB))
        assert exc.value.invariant == "premature-parity-completion"

    def test_fencing_beyond_parity_detected(self):
        env, cluster, array = build_armed_draid()
        # simulate a fencing decision gone wrong: two members fenced on a
        # RAID-5 geometry that tolerates one
        array.failed.update({0, 1})
        with pytest.raises(InvariantViolation) as exc:
            cluster.verify.check_fence(array)
        assert exc.value.invariant == "fencing-beyond-parity"

    def test_cid_reuse_detected(self):
        env, cluster, array = build_armed_draid()
        checker = cluster.verify.protocol
        checker.on_register(99, {"write": 2}, [0, 1])
        with pytest.raises(InvariantViolation) as exc:
            checker.on_register(99, {"write": 2}, [0, 1])
        assert exc.value.invariant == "cid-reuse"

    def test_clean_workload_is_violation_free(self):
        env, cluster, array = build_armed_draid()
        payload = bytes(range(256)) * 16
        env.run(until=array.write(0, 4 * KB, payload))
        data = env.run(until=array.read(0, 4 * KB))
        assert bytes(data) == payload
        assert cluster.verify.violations == []
        assert cluster.verify.protocol.checked_messages > 0
        cluster.verify.check_quiescent()


class TestProtocolCheckerUnits:
    def make_checker(self):
        from repro.verify.protocol import ProtocolChecker

        return ProtocolChecker(Environment())

    def test_late_completion_is_accounted_not_violated(self):
        checker = self.make_checker()

        class Comp:
            cid, kind, ok, trace = 7, "write", True, None

        checker.on_host_completion(0, Comp())  # never registered
        assert checker.late_completions == 1
        assert checker.violations == []

    def test_host_duplicate_completion(self):
        checker = self.make_checker()

        class Comp:
            cid, kind, ok, trace = 5, "write", True, None

        checker.on_register(5, {"write": 2}, [0, 1])
        checker.on_host_completion(0, Comp())
        checker.on_host_completion(1, Comp())  # different member: fine
        with pytest.raises(InvariantViolation) as exc:
            checker.on_host_completion(0, Comp())
        assert exc.value.invariant == "duplicate-completion"

    def test_parity_completion_requires_all_folds(self):
        checker = self.make_checker()
        checker.on_parity_cmd(server=3, cid=11, key=11, wait_num=2)
        checker.on_parity_fold(server=3, key=11)
        with pytest.raises(InvariantViolation) as exc:
            checker.on_server_completion(3, 11, "parity", ok=True)
        assert exc.value.invariant == "premature-parity-completion"
        assert "1/2" in exc.value.detail

    def test_parity_completion_clean_after_folds(self):
        checker = self.make_checker()
        checker.on_parity_cmd(server=3, cid=11, key=11, wait_num=2)
        checker.on_parity_fold(server=3, key=11)
        checker.on_parity_fold(server=3, key=11)
        checker.on_server_completion(3, 11, "parity", ok=True)
        assert checker.violations == []

    def test_unsolicited_parity_ack(self):
        checker = self.make_checker()
        with pytest.raises(InvariantViolation) as exc:
            checker.on_server_completion(0, 42, "parity", ok=True)
        assert exc.value.invariant == "premature-parity-completion"

    def test_server_crash_forgives_pending_folds(self):
        checker = self.make_checker()
        checker.on_parity_cmd(server=1, cid=8, key=8, wait_num=3)
        checker.on_server_crash(1)
        # post-crash retry under a fresh cid completes cleanly
        checker.on_parity_cmd(server=1, cid=9, key=9, wait_num=1)
        checker.on_parity_fold(server=1, key=9)
        checker.on_server_completion(1, 9, "parity", ok=True)
        assert checker.violations == []

    def test_nvmeof_duplicate_completion(self):
        checker = self.make_checker()
        checker.on_nvmeof_completion("bdev0", 3, ok=True)
        with pytest.raises(InvariantViolation) as exc:
            checker.on_nvmeof_completion("bdev0", 3, ok=True)
        assert exc.value.invariant == "duplicate-completion"


class TestZeroInterference:
    """Arming the verifier must not change simulated outcomes."""

    @pytest.mark.parametrize("system", ["md", "spdk", "draid"])
    def test_armed_fio_result_equals_unarmed(self, system):
        from repro.faults.chaos import _make_controller
        from repro.workloads.fio import FioWorkload

        def run(verify: bool):
            env = Environment()
            # timing mode: FioWorkload issues payload-less I/O
            config = ClusterConfig(
                num_servers=4,
                verify=VerifyConfig() if verify else None,
            )
            cluster = build_cluster(env, config)
            geometry = RaidGeometry(RaidLevel.RAID5, 4, 4 * KB)
            array = _make_controller(system, cluster, geometry)
            workload = FioWorkload(
                array, io_size=4 * KB, read_fraction=0.5, queue_depth=4,
                capacity=16 * 3 * 4 * KB, seed=77,
            )
            return workload.run(warmup_ns=500_000, measure_ns=3_000_000)

        assert run(verify=True) == run(verify=False)

    def test_verify_config_arms_hub(self):
        env = Environment()
        cluster = build_cluster(
            env, ClusterConfig(num_servers=4, verify=VerifyConfig())
        )
        assert isinstance(cluster.verify, Verifier)
        assert cluster.verify.kernel is not None
        assert cluster.verify.protocol is not None
        assert env.run.__self__ is cluster.verify.kernel

    def test_partial_arming(self):
        env = Environment()
        cluster = build_cluster(
            env,
            ClusterConfig(
                num_servers=4, verify=VerifyConfig(kernel=False, protocol=True)
            ),
        )
        assert cluster.verify.kernel is None
        assert cluster.verify.protocol is not None
