"""Real-socket worlds: n runtime endpoints, any number of sessions.

:class:`TcpWorld` spawns one :class:`~repro.net.host.NodeHost` per
member index (each a :class:`~repro.runtime.runtime.ProtocolRuntime`
on its own server socket with its own timers and metrics tap) and runs
stages of named protocol sessions over those endpoints: a DKG, four
concurrent presignature DKGs, a proactive renewal phase and a
group-modification agreement can all interleave on the same n
sockets, every message wrapped in the
:class:`~repro.runtime.envelope.SessionEnvelope` wire frame.  The byte
streams are real: every protocol message is serialized by
:mod:`repro.net.wire`, crosses a kernel socket, and is decoded on the
far side.  A stage is one call, as in
:class:`~repro.deployment.SimWorld`: :meth:`TcpWorld.run_stage` from
synchronous code, or ``await`` :meth:`TcpWorld.stage` inside a running
event loop.

:class:`LocalCluster` is a :class:`TcpWorld` running one ``dkg``
session, and :func:`run_local_cluster` its one-call wrapper.

Fault injection mirrors the simulator's scenarios at the transport
level:

* added latency / partitions — pass any
  :class:`~repro.sim.network.DelayModel` (including
  :class:`~repro.sim.network.PartitionDelay`) as ``delay_model``;
* message loss healed by retransmission —
  :class:`~repro.net.transport.DropRetryLink`;
* crash (+ optional later recovery) — a stage's ``crash_plan``, the
  simulator's ``(at, node, up_after)`` entries
  (:func:`~repro.sim.adversary.check_crash_plan`) timed from the
  stage's start and run as wall-clock events against the live hosts
  (a crash takes down the endpoint, and with it *every* session on
  it).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Coroutine

from repro.deployment import (
    DKG_SESSION,
    AgreementView,
    Stage,
    dkg_machines,
    dkg_pki,
)
from repro.dkg.config import DkgConfig
from repro.dkg.messages import DkgCompletedOutput, DkgStartInput
from repro.net.host import NodeHost
from repro.net.peers import PeerRegistry
from repro.net.transport import DEFAULT_TIME_SCALE, AsyncioTransport
from repro.runtime.runtime import ProtocolRuntime
from repro.sim.adversary import CrashPlan, check_crash_plan
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel

COMPLETED_KIND = "dkg.out.completed"
# Protocol time units without a send that end a synchronous TCP stage.
QUIET_UNITS = 10.0


class TcpWorld:
    """n asyncio runtime endpoints on localhost, running stages of
    multiplexed sessions.

    ``group`` is the world's: every endpoint frames, and meters, each
    message under it.  Driven from synchronous code (a lifecycle's
    stages, one after another), the world runs on one private event
    loop, made at its first use and closed by :meth:`close` (python
    3.10 has no :class:`asyncio.Runner`); inside a running loop,
    ``await`` :meth:`stage` and :meth:`stop` instead.
    """

    def __init__(
        self,
        group: Any,
        members: Any,
        seed: int,
        *,
        timeout: float = 60.0,
        delay_model: DelayModel | None = None,
        time_scale: float = DEFAULT_TIME_SCALE,
        host: str = "127.0.0.1",
    ):
        self.members = sorted(members)
        self.seed = seed
        self.group = group
        self.timeout = timeout
        self.delay_model = delay_model
        self.time_scale = time_scale
        self.host_address = host
        self.metrics = Metrics()
        self.registry = PeerRegistry()
        self.hosts: dict[int, NodeHost] = {}
        self.crashed: set[int] = set()
        self.errors: list[Exception] = []
        self._faults: set[asyncio.Task] = set()
        self._world_loop: asyncio.AbstractEventLoop | None = None
        self._started = False
        for i in self.members:
            self._build_host(i)

    def _build_host(self, index: int) -> NodeHost:
        transport = AsyncioTransport(
            index,
            self.registry,
            self.members,
            seed=self.seed,
            metrics=self.metrics,
            delay_model=self.delay_model,
            time_scale=self.time_scale,
            group=self.group,
            host=self.host_address,
        )
        host = NodeHost(ProtocolRuntime(index), transport)
        self.hosts[index] = host
        return host

    def _sync(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run ``coro`` to completion on the world's private loop."""
        if self._world_loop is None:
            self._world_loop = asyncio.new_event_loop()
        return self._world_loop.run_until_complete(coro)

    # -- membership (§6.2: joiners get their own endpoint) ---------------------

    async def add_member(self, index: int) -> NodeHost:
        """Bring up an endpoint for a joining node (started if the
        world already runs).  Every existing endpoint's membership
        view is extended too, so Broadcast effects and ``Env.members``
        include the joiner from now on (protocol-level membership —
        which sharings count, what the thresholds are — still comes
        from each session's config, per §6)."""
        if index in self.hosts:
            raise ValueError(f"node {index} already has an endpoint")
        self.members = sorted(self.members + [index])
        for host in self.hosts.values():
            host.transport.members = list(self.members)
        host = self._build_host(index)
        if self._started:
            await host.start()
        return host

    def join(self, index: int) -> None:
        """Bring up a joining node's endpoint (a no-op for a known one)."""
        if index not in self.hosts:
            self._sync(self.add_member(index))

    # -- sessions --------------------------------------------------------------

    def open_session(self, session: str, nodes: dict[int, Any]) -> None:
        """Open protocol session ``session`` with ``nodes`` mapping a
        member index to its state machine for this instance."""
        for index, node in nodes.items():
            self.hosts[index].open_session(session, node)

    def inject(self, session: str, index: int, payload: Any) -> bool:
        """Operator input to one session at one node; False if dropped."""
        return self.hosts[index].inject(payload, session=session)

    def _outputs(self, sessions: Stage, kind: str) -> dict[str, dict[int, Any]]:
        """Each session's first ``kind`` output per node, so far."""
        found: dict[str, dict[int, Any]] = {}
        for session in sessions:
            found[session] = {}
            for i, host in self.hosts.items():
                outputs = host.outputs_of_kind(kind, session=session)
                if outputs:
                    found[session][i] = outputs[0].payload
        return found

    async def stage(
        self,
        sessions: Stage,
        kind: str,
        expected: set[int] | None = None,
        *,
        starts: dict[int, float] | None = None,
        crash_plan: CrashPlan = (),
        delay_model: DelayModel | None = None,
        until: float | None = None,
    ) -> tuple[dict[str, dict[int, Any]], Metrics]:
        """As :meth:`repro.deployment.SimWorld.run_stage`, returning
        once every session's ``expected`` nodes (default: its machines'
        nodes) that are up and that the crash plan leaves up have a
        ``kind`` output, or after ``until`` time units or
        :attr:`timeout` seconds."""
        await self.start()
        loop = asyncio.get_running_loop()
        up = self.finally_up(crash_plan)
        self.metrics = metrics = Metrics()
        for host in self.hosts.values():
            host.transport.metrics = metrics
            host.transport.delay_model = delay_model or self.delay_model
        for session, (nodes, _) in sessions.items():
            self.open_session(session, nodes)
        for session, (_, inputs) in sessions.items():
            for index, payload in inputs.items():
                at = (starts or {}).get(index, 0.0) * self.time_scale
                loop.call_later(at, self.inject, session, index, payload)
        for entry in crash_plan:
            task = asyncio.ensure_future(self._play(*entry))
            self._faults.add(task)
            task.add_done_callback(self._faults.discard)
        wait = self.timeout if until is None else until * self.time_scale
        waits = [
            self.hosts[i].wait_for_output(kind, session=session)
            for session, (nodes, _) in sessions.items()
            for i in sorted((set(nodes) if expected is None else expected) & up)
        ]
        try:
            await asyncio.wait_for(asyncio.gather(*waits), min(wait, self.timeout))
        except asyncio.TimeoutError:
            pass  # partial result; the caller inspects completeness
        return self._outputs(sessions, kind), metrics

    def run_stage(
        self, sessions: Stage, kind: str, expected: set[int] | None = None, **stage
    ) -> tuple[dict[str, dict[int, Any]], Metrics]:
        """:meth:`stage` on the world's loop, then the tail a following
        stage needs: the crash plan has played out and no endpoint has
        sent for :data:`QUIET_UNITS` time units (a simulated stage's
        empty queue), or :attr:`timeout` seconds have passed."""

        async def settled() -> tuple[dict[str, dict[int, Any]], Metrics]:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.timeout
            _, metrics = await self.stage(sessions, kind, expected, **stage)
            await self.settle_crash_plan()
            sent = -1
            while sent != metrics.messages_total and loop.time() < deadline:
                sent = metrics.messages_total
                await asyncio.sleep(QUIET_UNITS * self.time_scale)
            return self._outputs(sessions, kind), metrics

        return self._sync(settled())

    # -- fault injection -------------------------------------------------------

    async def _play(self, at: float, node: int, up_after: float | None) -> None:
        """One crash-plan entry, ``at`` protocol time units from now."""
        await asyncio.sleep(at * self.time_scale)
        self.hosts[node].crash()
        self.crashed.add(node)
        self.metrics.record_crash()
        if up_after is None:
            return
        await asyncio.sleep(up_after * self.time_scale)
        try:
            await self.hosts[node].recover()
        except Exception as exc:
            # The node stays in `crashed`: a failed rebind is a real
            # fault, surfaced on the result rather than lost in a task.
            self.errors.append(exc)
            return
        self.crashed.discard(node)
        self.metrics.record_recovery()

    async def settle_crash_plan(self, timeout: float = 30.0) -> None:
        """Wait until every planned crash and recovery has run (a
        protocol can outrace its crash plan; a following stage wants
        the plan played out)."""
        if self._faults:
            await asyncio.wait(set(self._faults), timeout=timeout)

    def finally_up(self, crash_plan: CrashPlan = ()) -> set[int]:
        """Nodes the paper's liveness clause obligates to finish a stage
        under ``crash_plan``: every member neither down now nor left
        down by the plan."""
        down = {node for _, node, up_after in crash_plan if up_after is None}
        return set(self.hosts) - self.crashed - down

    def collect_errors(self) -> list[Exception]:
        errors = list(self.errors)
        for host in self.hosts.values():
            errors.extend(host.transport.errors)
        return errors

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        for hst in self.hosts.values():
            await hst.start()
        self._started = True

    async def stop(self) -> None:
        for task in list(self._faults):
            task.cancel()
        if self._faults:
            await asyncio.gather(*self._faults, return_exceptions=True)
        await asyncio.gather(
            *(hst.stop() for hst in self.hosts.values()),
            return_exceptions=True,
        )

    def close(self) -> None:
        """Stop every endpoint, then the world's private loop."""
        loop, self._world_loop = self._world_loop, None
        if loop is not None:
            try:
                if self._started:
                    loop.run_until_complete(self.stop())
            finally:
                loop.close()

    async def __aenter__(self) -> "TcpWorld":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()


@dataclass
class ClusterResult(AgreementView):
    """Outcome of one real-network DKG session."""

    config: DkgConfig
    seed: int
    completions: dict[int, DkgCompletedOutput]
    metrics: Metrics
    wall_seconds: float
    crashed: set[int] = field(default_factory=set)
    expected: set[int] = field(default_factory=set)
    errors: list[Exception] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Every honest, finally-up node completed; no handler errors;
        and all completions agree (Definition 4.1 agreement)."""
        return (
            not self.errors
            and self.expected <= set(self.completions)
            and self.agrees
        )


class LocalCluster(TcpWorld):
    """A :class:`TcpWorld` for one DKG: session ``dkg``, whose machines
    (:attr:`nodes`) are built here and opened by :meth:`run_dkg`."""

    def __init__(
        self,
        config: DkgConfig,
        seed: int = 0,
        tau: int = 0,
        *,
        delay_model: DelayModel | None = None,
        time_scale: float = DEFAULT_TIME_SCALE,
        host: str = "127.0.0.1",
        secrets: dict[int, int] | None = None,
        node_factory: Callable[..., Any] | None = None,
    ):
        super().__init__(
            config.group,
            config.vss().indices,
            seed,
            delay_model=delay_model,
            time_scale=time_scale,
            host=host,
        )
        self.config = config
        self.tau = tau
        self.nodes = dkg_machines(
            config,
            dkg_pki(config, seed),
            config.vss().indices,
            tau=tau,
            secrets=secrets,
            node_factory=node_factory,
        )

    async def run_dkg(
        self, timeout: float = 60.0, crash_plan: CrashPlan = ()
    ) -> ClusterResult:
        """Run the DKG as one stage under ``crash_plan`` (checked by
        :func:`~repro.sim.adversary.check_crash_plan` before anything
        starts), returning once every node the plan leaves up has
        completed; ``timeout`` in wall seconds."""
        crash_plan = check_crash_plan(
            crash_plan,
            self.config.f,
            self.config.d_budget,
            members=self.hosts,
            down=self.crashed,
        )
        await self.start()
        loop = asyncio.get_running_loop()
        t_start = loop.time()
        self.timeout = timeout
        expected = self.finally_up(crash_plan)
        inputs = {i: DkgStartInput(self.tau) for i in self.nodes}
        outputs, metrics = await self.stage(
            {DKG_SESSION: (self.nodes, inputs)}, COMPLETED_KIND, crash_plan=crash_plan
        )
        return ClusterResult(
            config=self.config,
            seed=self.seed,
            completions=outputs[DKG_SESSION],
            metrics=metrics,
            wall_seconds=loop.time() - t_start,
            crashed=set(self.crashed),
            expected=expected,
            errors=self.collect_errors(),
        )


def run_local_cluster(
    config: DkgConfig,
    seed: int = 0,
    tau: int = 0,
    *,
    delay_model: DelayModel | None = None,
    time_scale: float = DEFAULT_TIME_SCALE,
    crash_plan: CrashPlan = (),
    timeout: float = 60.0,
) -> ClusterResult:
    """Synchronous convenience wrapper: spawn, run one DKG under
    ``crash_plan`` (as :meth:`LocalCluster.run_dkg`), tear down."""

    async def _run() -> ClusterResult:
        cluster = LocalCluster(
            config,
            seed=seed,
            tau=tau,
            delay_model=delay_model,
            time_scale=time_scale,
        )
        try:
            return await cluster.run_dkg(timeout=timeout, crash_plan=crash_plan)
        finally:
            await cluster.stop()

    return asyncio.run(_run())
