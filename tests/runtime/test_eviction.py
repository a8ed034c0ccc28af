"""Completion-driven session eviction in ProtocolRuntime.

A long-lived endpoint (proactive renewal, the presignature forge) opens
sessions forever; without eviction every finished DKG's machine, timer
mappings and routing entry accumulate for the life of the process.
With ``evict_completed=True`` a session is dropped the moment its
machine reports a non-None ``completed`` — but its recorded outputs
must survive, because results are read after the run.
"""

from __future__ import annotations

import gc

from repro.dkg import DkgConfig, run_dkg
from repro.runtime.core import Env
from repro.runtime.effects import Output, SetTimer
from repro.runtime.events import MessageReceived, OperatorInput
from repro.runtime.runtime import ProtocolRuntime
from repro.runtime.sessions import DkgSessionSpec, run_dkg_sessions
from repro.sim.network import ConstantDelay

from tests.helpers import default_test_group


class _Done:
    """Output payload with a wire-style kind tag."""

    kind = "test.done"


class _OneShot:
    """Completes (and outputs) on its first event; arms a timer first."""

    def __init__(self, node_id: int = 1):
        self.node_id = node_id
        self.completed = None

    def step(self, event, env: Env):
        if isinstance(event, OperatorInput):
            # First poke: arm a timer that must be purged at eviction.
            return [SetTimer(10.0, "cleanup", env.new_timer_id())]
        self.completed = env.now()
        return [Output(_Done())]


class _EnvStub:
    def __init__(self):
        self._ids = iter(range(1, 100))

    def now(self) -> float:
        return 1.0

    def new_timer_id(self) -> int:
        return next(self._ids)


class TestEviction:
    def _runtime_with_finished_session(self) -> ProtocolRuntime:
        runtime = ProtocolRuntime(1, evict_completed=True)
        runtime.open_session("job", _OneShot())
        env = _EnvStub()
        runtime.step(OperatorInput(object()), env)  # arms the timer
        assert runtime._timers  # the session holds live timer state
        runtime.step(MessageReceived(2, object()), env)  # completes
        return runtime

    def test_completed_session_is_dropped(self) -> None:
        runtime = self._runtime_with_finished_session()
        assert "job" not in runtime.sessions
        assert runtime.sessions_completed == 1

    def test_outputs_survive_eviction(self) -> None:
        runtime = self._runtime_with_finished_session()
        outputs = runtime.outputs_of("job")
        assert len(outputs) == 1
        assert outputs[0].kind == "test.done"

    def test_timers_purged_at_eviction(self) -> None:
        runtime = self._runtime_with_finished_session()
        assert runtime._timers == {}
        assert runtime._by_inner == {}

    def test_default_session_reassigned(self) -> None:
        runtime = ProtocolRuntime(1, evict_completed=True)
        runtime.open_session("job", _OneShot())
        runtime.open_session("survivor", _OneShot())
        assert runtime.default_session == "job"
        env = _EnvStub()
        runtime.step(
            MessageReceived(2, object()), env
        )  # default routes to "job"; completes and evicts it
        assert runtime.default_session == "survivor"

    def test_disabled_by_default(self) -> None:
        runtime = ProtocolRuntime(1)
        runtime.open_session("job", _OneShot())
        runtime.step(MessageReceived(2, object()), _EnvStub())
        assert "job" in runtime.sessions
        assert runtime.sessions_completed == 0


class TestMultiplexedDkgStillCompletes:
    def test_run_dkg_sessions_evicts_but_returns_results(self) -> None:
        # The presignature forge path: concurrent nonce DKGs over one
        # endpoint set, evicted as they finish, results swept afterwards.
        specs = [
            DkgSessionSpec(
                session=f"nonce-{k}", config=DkgConfig(n=4, t=1), tau=k
            )
            for k in range(2)
        ]
        results = run_dkg_sessions(
            specs, seed=11, delay_model=ConstantDelay(0.0)
        )
        for spec in specs:
            assert results[spec.session].succeeded


class TestFinishedWorldIsFreed:
    """A finished DKG holds about a megabyte of integers behind so few
    container objects that the cycle collector's thresholds do not see
    it, so a world that is only freed by a full collection piles up
    across back-to-back DKGs (the benchmark's ``peak_rss_mb``).  Nothing
    a completed run leaves behind may need the collector."""

    @staticmethod
    def _cyclic_garbage_of(run) -> int:
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    def test_run_dkg(self) -> None:
        config = DkgConfig(n=4, t=1, group=default_test_group())
        assert self._cyclic_garbage_of(lambda: run_dkg(config, seed=3)) == 0

    def test_run_dkg_sessions(self) -> None:
        config = DkgConfig(n=4, t=1, group=default_test_group())
        specs = [DkgSessionSpec(f"s{k}", config, tau=k) for k in range(2)]
        assert self._cyclic_garbage_of(lambda: run_dkg_sessions(specs, seed=3)) == 0
