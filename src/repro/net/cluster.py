"""Real-socket clusters: n runtime endpoints, any number of sessions.

:class:`SessionCluster` is the generic orchestrator — it spawns one
:class:`~repro.net.host.NodeHost` per member index (each a
:class:`~repro.runtime.runtime.ProtocolRuntime` on its own server
socket with its own timers and metrics tap) and multiplexes named
protocol sessions over those endpoints: a DKG, four concurrent
presignature DKGs, a proactive renewal phase and a group-modification
agreement can all interleave on the same n sockets, every message
wrapped in the :class:`~repro.runtime.envelope.SessionEnvelope` wire
frame.  The byte streams are real: every protocol message is
serialized by :mod:`repro.net.wire`, crosses a kernel socket, and is
decoded on the far side.

:class:`LocalCluster` keeps the historic one-DKG-per-cluster surface
on top of it.

Fault injection mirrors the simulator's scenarios at the transport
level:

* added latency / partitions — pass any
  :class:`~repro.sim.network.DelayModel` (including
  :class:`~repro.sim.network.PartitionDelay`) as ``delay_model``;
* message loss healed by retransmission —
  :class:`~repro.net.transport.DropRetryLink`;
* crash (+ optional later recovery) — :meth:`SessionCluster.crash`
  entries, executed as wall-clock events against the live hosts (a
  crash takes down the endpoint, and with it *every* session on it).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.deployment import DKG_SESSION, AgreementView, dkg_machines, dkg_pki
from repro.dkg.config import DkgConfig
from repro.dkg.messages import DkgCompletedOutput, DkgStartInput
from repro.net.host import NodeHost
from repro.net.peers import PeerRegistry
from repro.net.transport import DEFAULT_TIME_SCALE, AsyncioTransport
from repro.runtime.runtime import ProtocolRuntime
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel

COMPLETED_KIND = "dkg.out.completed"


class SessionCluster:
    """n asyncio runtime endpoints multiplexing protocol sessions."""

    def __init__(
        self,
        members: list[int],
        *,
        seed: int = 0,
        group: Any = None,
        codec: Any = None,
        delay_model: DelayModel | None = None,
        time_scale: float = DEFAULT_TIME_SCALE,
        host: str = "127.0.0.1",
    ):
        self.members = sorted(members)
        self.seed = seed
        self.group = group
        self.codec = codec
        self.delay_model = delay_model
        self.time_scale = time_scale
        self.host_address = host
        self.metrics = Metrics()
        self.registry = PeerRegistry()
        self.hosts: dict[int, NodeHost] = {}
        self.crashed: set[int] = set()
        self.errors: list[Exception] = []
        self._crash_plan: list[tuple[int, float, float | None]] = []
        self._fault_handles: list[asyncio.TimerHandle] = []
        self._recover_tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0: float | None = None
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
            codec=self.codec,
            host=self.host_address,
        )
        host = NodeHost(ProtocolRuntime(index), transport)
        self.hosts[index] = host
        return host

    # -- membership (§6.2: joiners get their own endpoint) ---------------------

    async def add_member(self, index: int) -> NodeHost:
        """Bring up an endpoint for a joining node (started if the
        cluster already runs).  Every existing endpoint's membership
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

    # -- sessions --------------------------------------------------------------

    def open_session(self, session: str, nodes: dict[int, Any]) -> None:
        """Open protocol session ``session`` with ``nodes`` mapping a
        member index to its state machine for this instance."""
        for index, node in nodes.items():
            self.hosts[index].open_session(session, node)

    def inject(self, session: str, index: int, payload: Any) -> bool:
        """Operator input to one session at one node; False if dropped."""
        return self.hosts[index].inject(payload, session=session)

    def inject_all(self, session: str, payload: Any) -> dict[int, bool]:
        """Operator input to every node hosting ``session``."""
        return {
            i: self.inject(session, i, payload)
            for i, host in sorted(self.hosts.items())
            if session in host.runtime.sessions
        }

    async def run_session(
        self,
        session: str,
        nodes: dict[int, Any],
        inputs: dict[int, Any],
        kind: str,
        expected: set[int],
        timeout: float = 60.0,
    ) -> dict[int, Any]:
        """Open ``session``, inject each ``inputs`` entry at its node, and
        wait for ``kind`` outputs from ``expected`` (see
        :meth:`wait_session_outputs`)."""
        self.open_session(session, nodes)
        for index, payload in inputs.items():
            self.inject(session, index, payload)
        return await self.wait_session_outputs(session, kind, expected, timeout)

    async def wait_session_outputs(
        self,
        session: str,
        kind: str,
        nodes: set[int],
        timeout: float = 60.0,
    ) -> dict[int, Any]:
        """Wait until every node in ``nodes`` emitted a ``kind`` output
        within ``session`` (or the wall-clock timeout passes); returns
        whatever arrived."""
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(
                        self.hosts[i].wait_for_output(kind, session=session)
                        for i in sorted(nodes)
                    )
                ),
                timeout,
            )
        except asyncio.TimeoutError:
            pass  # partial result; the caller inspects completeness
        found: dict[int, Any] = {}
        for i, host in self.hosts.items():
            outputs = host.outputs_of_kind(kind, session=session)
            if outputs:
                found[i] = outputs[0].payload
        return found

    # -- fault injection -------------------------------------------------------

    def elapsed_units(self) -> float:
        """Protocol time units since cluster start (0 before start)."""
        if self._loop is None or self._t0 is None:
            return 0.0
        return (self._loop.time() - self._t0) / self.time_scale

    def schedule_crashes_from_now(
        self, entries: list[tuple[int, float, float | None]]
    ) -> None:
        """Register crash-plan entries whose ``at`` is relative to *this
        moment* rather than cluster start — how the lifecycle runners
        aim a fault at one specific protocol phase."""
        now_units = self.elapsed_units()
        for node, at, up_after in entries:
            self.crash(node, now_units + at, up_after)

    def crash(self, node: int, at: float, up_after: float | None = None) -> None:
        """Crash ``node`` at time ``at`` (protocol units); if
        ``up_after`` is given, recover it that much later — the same
        shape as the simulator adversary's crash plan.  Entries added
        after :meth:`start` are scheduled immediately."""
        if node not in self.hosts:
            raise KeyError(f"unknown node {node}")
        entry = (node, at, up_after)
        self._crash_plan.append(entry)
        if self._started and self._loop is not None:
            self._schedule_entry(self._loop, entry)

    def _schedule_faults(self, loop: asyncio.AbstractEventLoop) -> None:
        for entry in self._crash_plan:
            self._schedule_entry(loop, entry)

    def _schedule_entry(
        self, loop: asyncio.AbstractEventLoop, entry: tuple[int, float, float | None]
    ) -> None:
        # ``at`` is absolute protocol time from cluster start (the
        # simulator crash plan's semantics), so entries registered
        # after start() are scheduled against the elapsed clock.
        node, at, up_after = entry
        elapsed = loop.time() - self._t0 if self._t0 is not None else 0.0
        self._fault_handles.append(
            loop.call_later(
                max(0.0, at * self.time_scale - elapsed), self._crash_now, node
            )
        )
        if up_after is not None:
            self._fault_handles.append(
                loop.call_later(
                    max(0.0, (at + up_after) * self.time_scale - elapsed),
                    self._recover_now,
                    node,
                )
            )

    def _crash_now(self, node: int) -> None:
        self.hosts[node].crash()
        self.crashed.add(node)
        self.metrics.record_crash()

    def _recover_now(self, node: int) -> None:
        task = asyncio.ensure_future(self._do_recover(node))
        self._recover_tasks.add(task)
        task.add_done_callback(self._recover_tasks.discard)

    async def _do_recover(self, node: int) -> None:
        try:
            await self.hosts[node].recover()
        except Exception as exc:
            # The node stays in `crashed`: a failed rebind is a real
            # fault, surfaced on the result rather than lost in a task.
            self.errors.append(exc)
            return
        self.crashed.discard(node)
        self.metrics.record_recovery()

    async def settle_recoveries(self, timeout: float = 30.0) -> None:
        """Wait until every planned crash-and-recover entry has actually
        run (a protocol can outrace its fault plan; smokes and tests
        want the recovery to have happened before teardown)."""
        planned = {node for node, _at, up in self._crash_plan if up is not None}
        if not planned or self._loop is None:
            return
        deadline = self._loop.time() + timeout
        while self._loop.time() < deadline:
            latest = max(
                (h.when() for h in self._fault_handles), default=0.0
            )
            if (
                self._loop.time() >= latest
                and not self._recover_tasks
                and not planned & self.crashed
            ):
                return
            await asyncio.sleep(0.02)

    def finally_up(self) -> set[int]:
        """Nodes the paper's liveness clause obligates to finish: every
        member not left crashed by the fault plan."""
        down = {
            node
            for node, _at, up_after in self._crash_plan
            if up_after is None
        }
        return {i for i in self.hosts if i not in down}

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
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self._schedule_faults(self._loop)
        self._started = True

    async def stop(self) -> None:
        for handle in self._fault_handles:
            handle.cancel()
        self._fault_handles.clear()
        for task in list(self._recover_tasks):
            task.cancel()
        if self._recover_tasks:
            await asyncio.gather(*self._recover_tasks, return_exceptions=True)
        await asyncio.gather(
            *(hst.stop() for hst in self.hosts.values()),
            return_exceptions=True,
        )

    async def __aenter__(self) -> "SessionCluster":
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


class LocalCluster(SessionCluster):
    """n asyncio hosts on localhost running one DKG session.

    The historic single-protocol surface: the DKG rides as the
    runtime's default session, so this class is now a thin veneer over
    :class:`SessionCluster` (and additional sessions can still be
    opened beside the DKG).
    """

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
        super().__init__(
            config.vss().indices,
            seed=seed,
            group=config.group,
            codec=config.codec,
            delay_model=delay_model,
            time_scale=time_scale,
            host=host,
        )
        self.open_session(DKG_SESSION, self.nodes)

    # -- the protocol run ------------------------------------------------------

    async def run_dkg(self, timeout: float = 60.0) -> ClusterResult:
        """Drive one DKG to completion; ``timeout`` in wall seconds."""
        await self.start()
        loop = asyncio.get_running_loop()
        t_start = loop.time()
        self.inject_all(DKG_SESSION, DkgStartInput(self.tau))
        expected = self.finally_up()
        completions = await self.wait_session_outputs(
            DKG_SESSION, COMPLETED_KIND, expected, timeout
        )
        wall = loop.time() - t_start
        return ClusterResult(
            config=self.config,
            seed=self.seed,
            completions=completions,
            metrics=self.metrics,
            wall_seconds=wall,
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
    crash_plan: list[tuple[int, float, float | None]] | None = None,
    timeout: float = 60.0,
) -> ClusterResult:
    """Synchronous convenience wrapper: spawn, run one DKG, tear down.

    ``crash_plan`` entries are ``(node, at, up_after-or-None)`` in
    protocol time units, exactly like the simulator adversary's.
    """

    async def _run() -> ClusterResult:
        cluster = LocalCluster(
            config,
            seed=seed,
            tau=tau,
            delay_model=delay_model,
            time_scale=time_scale,
        )
        for node, at, up_after in crash_plan or []:
            cluster.crash(node, at, up_after)
        try:
            return await cluster.run_dkg(timeout=timeout)
        finally:
            await cluster.stop()

    return asyncio.run(_run())
