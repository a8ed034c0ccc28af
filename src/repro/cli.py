"""Command-line interface: run protocol sessions from a shell.

Examples::

    python -m repro dkg --n 10 --t 3 --seed 7
    python -m repro vss --n 7 --t 2 --secret 42 --reconstruct
    python -m repro renew --n 7 --t 2 --phases 3
    python -m repro renew --n 5 --t 1 --transport tcp --crash 3@2+25
    python -m repro groupmod --n 5 --t 1 --transport tcp
    python -m repro resilience --t 2 --f 1
    python -m repro cluster --n 7 --t 2 --seed 7        # real asyncio TCP
    python -m repro cluster --n 7 --t 2 --f 1 --crash 7@2
    python -m repro serve --n 7 --t 2 --port 7710       # threshold service
    python -m repro serve --n 7 --t 2 --port 7710 --metrics-port 9100
    python -m repro ops --port 7710                     # live metrics snapshot
    python -m repro loadgen --port 7710 --clients 32 --requests 4
    python -m repro dkg --n 7 --t 2 --trace-out run.jsonl   # flight recorder
    python -m repro replay run.jsonl                    # bit-identical re-run
    python -m repro trace run.jsonl                     # latency/flow analysis
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from repro.crypto.backend import element_hex
from repro.crypto.groups import BACKENDS, group_by_name
from repro.dkg import DkgConfig, run_dkg
from repro.proactive import ProactiveSystem
from repro.sim.adversary import Adversary
from repro.vss import VssConfig, run_vss


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=7, help="number of nodes")
    parser.add_argument("--t", type=int, default=2, help="Byzantine threshold")
    parser.add_argument("--f", type=int, default=0, help="crash limit")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--group", default="toy",
        help="modp parameters: toy/small/medium/large, or the RFC 5114 "
             "constants rfc5114-1024-160 / rfc5114-2048-256",
    )
    parser.add_argument(
        "--backend", default="modp", choices=BACKENDS,
        help="group backend: modp Schnorr subgroups (sized by --group) "
             "or the secp256k1 elliptic curve",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )


def _group(args: argparse.Namespace):
    """Resolve --backend/--group: the curve backend has one fixed
    parameter set, the modp backend is sized by --group."""
    if args.backend == "secp256k1":
        return group_by_name("secp256k1")
    return group_by_name(args.group)


def _emit(args: argparse.Namespace, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE.jsonl",
        help="record a full-payload flight-recorder capture to this "
             "file (replayable with `repro replay`, analyzable with "
             "`repro trace`)",
    )


@contextmanager
def _flight_recorder(
    args: argparse.Namespace,
    cmd: str,
    *,
    transport: str,
    config=None,
    group=None,
    **extra,
):
    """Install a payload-mode JsonlTraceSink for the wrapped run.

    The confirmation note goes to stderr: stdout may be machine-read
    ``--json`` output (the CI smoke pipes it through ``json.load``).
    """
    if getattr(args, "trace_out", None) is None:
        yield None
        return
    from repro.obs import trace as obs_trace
    from repro.obs.replay import capture_meta

    if config is not None:
        group = config.group
        meta = capture_meta(cmd, config, args.seed, transport, **extra)
    else:
        meta = {
            "cmd": cmd,
            "transport": transport,
            "seed": args.seed,
            "group": group.name,
            **extra,
        }
    sink = obs_trace.JsonlTraceSink(
        args.trace_out, payloads=True, group=group, meta=meta, mode="w"
    )
    previous = obs_trace.set_trace_sink(sink)
    try:
        yield sink
    finally:
        obs_trace.set_trace_sink(previous)
        sink.close()
        print(
            f"trace: {sink.recorded} spans captured to {args.trace_out} "
            f"(transcript {sink.transcript})",
            file=sys.stderr,
        )


def cmd_dkg(args: argparse.Namespace) -> int:
    config = DkgConfig(
        n=args.n, t=args.t, f=args.f,
        group=_group(args),
    )
    with _flight_recorder(args, "dkg", transport="sim", config=config, tau=0):
        result = run_dkg(config, seed=args.seed, reconstruct=args.reconstruct)
    payload = {
        "succeeded": result.succeeded,
        "q_set": list(result.q_set),
        "public_key": element_hex(config.group, result.public_key),
        "completed_nodes": result.completed_nodes,
        "completion_time": result.last_completion_time,
        "leader_changes": result.metrics.leader_changes,
        "messages": result.metrics.messages_total,
        "bytes": result.metrics.bytes_total,
    }
    if args.reconstruct:
        payload["reconstructed"] = {
            str(i): hex(v) for i, v in result.protocol_reconstructions.items()
        }
    _emit(args, payload)
    return 0 if result.succeeded else 1


def cmd_vss(args: argparse.Namespace) -> int:
    config = VssConfig(
        n=args.n, t=args.t, f=args.f,
        group=_group(args),
    )
    result = run_vss(
        config,
        secret=args.secret,
        seed=args.seed,
        reconstruct=args.reconstruct,
    )
    payload = {
        "completed_nodes": result.completed_nodes,
        "messages": result.metrics.messages_total,
        "bytes": result.metrics.bytes_total,
        "public_key": element_hex(
            config.group, result.agreed_commitment().public_key()
        )
        if result.shares else None,
    }
    if args.reconstruct:
        payload["reconstructions"] = {
            str(i): v for i, v in result.reconstructions.items()
        }
    _emit(args, payload)
    return 0 if len(result.completed_nodes) == args.n else 1


def _tcp_delay_model(args: argparse.Namespace):
    from repro.sim.network import UniformDelay

    if getattr(args, "latency", 0.0) > 0:
        return UniformDelay(0.5 * args.latency, 1.5 * args.latency)
    return None


def cmd_renew(args: argparse.Namespace) -> int:
    config = DkgConfig(
        n=args.n, t=args.t, f=args.f,
        group=_group(args),
    )
    if args.transport == "tcp":
        from repro.net.proactive import run_renewal_cluster

        with _flight_recorder(
            args, "renew", transport="tcp", config=config, phases=args.phases
        ):
            result = run_renewal_cluster(
                config,
                seed=args.seed,
                phases=args.phases,
                delay_model=_tcp_delay_model(args),
                time_scale=args.time_scale,
                crash_plan=args.crash,
                timeout=args.timeout,
            )
        _emit(
            args,
            {
                "transport": "asyncio-tcp",
                "succeeded": result.succeeded,
                "public_key": element_hex(config.group, result.public_key),
                "phases": [
                    {
                        "phase": p.phase,
                        "session": p.session,
                        "renewed_nodes": p.renewed_nodes,
                        "public_key_stable": p.public_key_stable,
                        "wall_seconds": round(p.wall_seconds, 4),
                    }
                    for p in result.phases
                ],
                "crashes": result.metrics.crashes,
                "recoveries": result.metrics.recoveries,
                "secret_invariant": result.secret_invariant,
                "messages": result.metrics.messages_total,
                "bytes": result.metrics.bytes_total,
            },
        )
        return 0 if result.succeeded else 1
    # Sim renewal spins up a fresh simulation per phase, so its capture
    # is analysis-only (`repro trace`); replay needs the tcp transport.
    with _flight_recorder(
        args, "renew", transport="sim", config=config, phases=args.phases
    ):
        system = ProactiveSystem(config, seed=args.seed)
        system.bootstrap()
        secret_before = system.reconstruct()
        phases = []
        for _ in range(args.phases):
            report = system.renew()
            phases.append(
                {
                    "phase": report.phase,
                    "messages": report.metrics.messages_total,
                    "public_key_stable": report.public_key == system.public_key,
                }
            )
    _emit(
        args,
        {
            "transport": "sim",
            "public_key": element_hex(config.group, system.public_key),
            "phases": phases,
            "secret_invariant": system.reconstruct() == secret_before,
        },
    )
    return 0


def cmd_groupmod(args: argparse.Namespace) -> int:
    """§6 lifecycle: agree on an add proposal, deliver the joiner its
    share — simulated or over real asyncio TCP sockets."""
    config = DkgConfig(
        n=args.n, t=args.t, f=args.f,
        group=_group(args),
    )
    new_node = args.new_node if args.new_node is not None else args.n + 1
    if args.transport == "tcp":
        from repro.net.groupmod import run_groupmod_cluster

        with _flight_recorder(
            args, "groupmod", transport="tcp", config=config, new_node=new_node
        ):
            result = run_groupmod_cluster(
                config,
                seed=args.seed,
                new_node=new_node,
                delay_model=_tcp_delay_model(args),
                time_scale=args.time_scale,
                crash_plan=args.crash,
                timeout=args.timeout,
            )
        _emit(
            args,
            {
                "transport": "asyncio-tcp",
                "succeeded": result.succeeded,
                "new_node": result.new_node,
                "agreement_nodes": result.agreement_nodes,
                "share_verified": result.share_verified,
                "secret_invariant": result.secret_invariant,
                "crashes": result.metrics.crashes,
                "recoveries": result.metrics.recoveries,
                "public_key": element_hex(config.group, result.public_key),
                "wall_seconds": round(result.wall_seconds, 4),
                "messages": result.metrics.messages_total,
                "bytes": result.metrics.bytes_total,
            },
        )
        return 0 if result.succeeded else 1
    from repro.groupmod import GroupManager
    from repro.groupmod.messages import ModProposal

    # Sim groupmod simulates each stage separately; capture is
    # analysis-only, like sim renewal.
    with _flight_recorder(
        args, "groupmod", transport="sim", config=config, new_node=new_node
    ):
        manager = GroupManager(config, seed=args.seed)
        manager.bootstrap()
        secret_before = manager.reconstruct()
        report = manager.agree(
            {min(manager.members): ModProposal("add", new_node)}
        )
        addition = manager.add_node(new_node)
    _emit(
        args,
        {
            "transport": "sim",
            "new_node": new_node,
            "agreed_proposals": len(report.common_queue()),
            "members": list(manager.members),
            "share_delivered": addition.share is not None,
            "secret_invariant": manager.reconstruct() == secret_before,
            "public_key": element_hex(config.group, manager.public_key),
        },
    )
    return 0 if addition.share is not None else 1


def _parse_crash(spec: str) -> tuple[int, float, float | None]:
    """Parse NODE@AT[+UP]: crash NODE at time AT, recover UP later."""
    try:
        node_part, _, time_part = spec.partition("@")
        at_part, plus, up_part = time_part.partition("+")
        node = int(node_part)
        at = float(at_part)
        up_after = float(up_part) if plus else None
        return node, at, up_after
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad crash spec {spec!r} (want NODE@AT or NODE@AT+UP)"
        ) from exc


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run one DKG over real asyncio TCP sockets on localhost."""
    from repro.net import DropRetryLink, run_local_cluster

    config = DkgConfig(
        n=args.n, t=args.t, f=args.f,
        group=_group(args),
    )
    delay_model = _tcp_delay_model(args)
    if args.drop > 0:
        delay_model = DropRetryLink(
            base=delay_model, drop_probability=args.drop
        )
    with _flight_recorder(args, "cluster", transport="tcp", config=config, tau=0):
        result = run_local_cluster(
            config,
            seed=args.seed,
            delay_model=delay_model,
            time_scale=args.time_scale,
            crash_plan=args.crash,
            timeout=args.timeout,
        )
    payload = {
        "transport": "asyncio-tcp",
        "succeeded": result.succeeded,
        "completed_nodes": result.completed_nodes,
        "crashed_nodes": sorted(result.crashed),
        "wall_seconds": round(result.wall_seconds, 4),
        "messages": result.metrics.messages_total,
        "bytes": result.metrics.bytes_total,
    }
    if result.completions:
        payload["q_set"] = list(result.q_set)
        payload["public_key"] = element_hex(config.group, result.public_key)
    _emit(args, payload)
    return 0 if result.succeeded else 1


def cmd_resilience(args: argparse.Namespace) -> int:
    """Probe the n >= 3t + 2f + 1 boundary for the given (t, f)."""
    from repro import quorum

    bound = quorum.resilience_bound(args.t, args.f)
    results = {}
    for n in (bound, bound - 1):
        if n < 1:
            continue
        config = DkgConfig(
            n=n, t=args.t, f=args.f,
            group=_group(args),
            enforce_resilience=False,
        )
        byz = frozenset(range(n - args.t + 1, n + 1)) if args.t else frozenset()
        adv = Adversary(t=args.t, f=args.f, byzantine=byz)
        from repro.sim.node import ProtocolNode

        res = run_dkg(
            config, seed=args.seed, adversary=adv,
            node_factory=lambda i, c, k, ca: ProtocolNode(i) if i in byz else None,
            until=2000.0, max_events=None,
        )
        honest = [i for i in range(1, n + 1) if i not in byz]
        results[n] = all(res.nodes[i].completed is not None for i in honest)
    _emit(args, {"bound": bound, "success_by_n": results})
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the client-facing threshold service on a TCP port."""
    import asyncio

    from repro.service import ServiceConfig, ServiceFrontend, ThresholdService

    config = ServiceConfig(
        n=args.n,
        t=args.t,
        f=args.f,
        group=_group(args),
        seed=args.seed,
        pool_target=args.pool,
        pool_low_watermark=args.low_watermark,
    )

    async def _main() -> dict:
        service = ThresholdService(config)
        await service.start()
        frontend = ServiceFrontend(
            service, host=args.host, port=args.port, max_queue=args.max_queue
        )
        await frontend.start()
        metrics_server = None
        if args.metrics_port is not None:
            from repro.obs.http import MetricsHttpServer

            metrics_server = MetricsHttpServer(
                host=args.host, port=args.metrics_port
            )
            await metrics_server.start()
            print(
                f"metrics on http://{metrics_server.host}:"
                f"{metrics_server.port}/metrics",
                flush=True,
            )
        loop = asyncio.get_running_loop()
        started = loop.time()
        for node, at, up_after in args.crash:
            loop.call_later(at, service.crash_node, node)
            if up_after is not None:
                loop.call_later(at + up_after, service.recover_node, node)
        print(
            f"serving n={args.n} t={args.t} pool={args.pool} "
            f"on {frontend.host}:{frontend.port}",
            flush=True,
        )
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        finally:
            if metrics_server is not None:
                await metrics_server.stop()
            await frontend.stop()
            await service.stop()
        return {
            "address": f"{frontend.host}:{frontend.port}",
            "metrics_address": (
                f"{metrics_server.host}:{metrics_server.port}"
                if metrics_server is not None
                else None
            ),
            "uptime_seconds": round(loop.time() - started, 2),
            "served": service.served,
            "failed": service.failed,
            "busy_rejections": frontend.rejected_busy,
            "connections": frontend.connections_total,
            "presigs_forged": service.pool.forged,
            "presigs_invalidated": service.pool.invalidated,
            "public_key": element_hex(config.group, service.public_key),
        }

    try:
        # Service traffic is client-driven, so the capture is
        # analysis-only (`repro trace`), not replayable.
        with _flight_recorder(
            args, "serve", transport="tcp", group=config.group,
            n=args.n, t=args.t, f=args.f,
        ):
            summary = asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        return 0
    _emit(args, summary)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute a flight-recorder capture and verify its transcript."""
    from repro.obs.replay import ReplayError, TruncatedCaptureError, replay_file

    try:
        result = replay_file(args.capture)
    except (ReplayError, OSError) as exc:
        # A structured, machine-readable failure: the fuzzer's
        # reproducer-emit path makes truncated/partial JSONL captures a
        # reachable state, and scripts drive this command with --json.
        error = {
            "error": type(exc).__name__,
            "message": str(exc),
            "capture": args.capture,
            "truncated": isinstance(exc, TruncatedCaptureError),
        }
        print(json.dumps(error, indent=2), file=sys.stderr)
        return 2
    _emit(args, result.as_dict())
    return 0 if result.matched else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Fuzz protocol schedules: mutate, replay, assert invariants."""
    from repro.fuzz import FuzzRunner, Schedule, generate_capture, load_schedule
    from repro.obs.replay import ReplayError

    if args.smoke:
        # The bounded CI/acceptance shape: smallest resilient
        # deployment, capped mutation count, fast tcp phases.
        args.n, args.t, args.f = 4, 1, 0
        args.max_ops = min(args.max_ops, 6)
        args.phases = 1
    try:
        if args.reproduce is not None:
            base = load_schedule(args.reproduce)
            runner = FuzzRunner(
                base,
                max_ops=args.max_ops,
                reproducer_dir=args.reproducers,
            )
            verdict = runner.reproduce(base)
            _emit(args, verdict)
            return 0 if verdict["matched"] else 1
        if args.capture is not None:
            base = load_schedule(args.capture)
        else:
            capture = generate_capture(
                args.protocol,
                n=args.n,
                t=args.t,
                f=args.f,
                seed=args.seed,
                group=_group(args),
                phases=args.phases,
            )
            base = Schedule.from_capture(capture)
        runner = FuzzRunner(
            base,
            protocol=args.protocol,
            max_ops=args.max_ops,
            reproducer_dir=args.reproducers,
        )
        report = runner.run(
            args.seeds,
            first_seed=args.first_seed,
            self_check=not args.no_self_check,
        )
    except (ReplayError, OSError, ValueError) as exc:
        print(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)}, indent=2
            ),
            file=sys.stderr,
        )
        return 2
    document = report.as_dict()
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
    _emit(args, document)
    return 0 if report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Analyze a capture: phase latencies, flow matrix, critical path."""
    from repro.obs.analysis import analyze_file
    from repro.obs.replay import ReplayError

    try:
        report = analyze_file(args.capture)
    except (ReplayError, OSError) as exc:
        print(f"trace analysis failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, default=str))
        return 0
    meta = report.meta
    print(
        f"capture: cmd={meta.get('cmd')} transport={meta.get('transport')} "
        f"group={meta.get('group')} seed={meta.get('seed')} "
        f"spans={report.spans}"
    )
    if report.thresholds:
        th = report.thresholds
        print(
            f"thresholds: n={th['n']} t={th['t']} f={th['f']} "
            f"echo={th['echo']} ready={th['ready']} output={th['output']}"
        )
    print("phases:")
    for phase in report.phases:
        lat = phase.latencies()
        print(
            f"  {phase.session}: spans={phase.spans} outputs={phase.outputs} "
            f"send->echo={lat['send_to_echo']} "
            f"echo->ready={lat['echo_to_ready']} "
            f"ready->output={lat['ready_to_output']} "
            f"total={lat['send_to_output']}"
        )
    print("flow (node x message kind):")
    for node, kinds in sorted(report.flow.items()):
        row = " ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
        print(f"  node {node}: {row}")
    print(f"critical path ({len(report.critical_path)} steps):")
    for step in report.critical_path:
        print(
            f"  t={step.t:10.4f} node={step.node} "
            f"session={step.session} {step.event}"
        )
    if report.step_durations:
        print("step durations (seconds):")
        for event, stats in report.step_durations.items():
            print(
                f"  {event}: n={stats['count']} p50={stats['p50']:.6f} "
                f"p90={stats['p90']:.6f} p99={stats['p99']:.6f}"
            )
    return 0


def cmd_ops(args: argparse.Namespace) -> int:
    """Fetch a running service's live observability snapshot."""
    import asyncio

    from repro.service.loadgen import ServiceClient

    async def _fetch() -> dict:
        client = await ServiceClient.connect(
            args.host, args.port, attempts=args.attempts
        )
        try:
            return await client.ops()
        finally:
            await client.close()

    try:
        snapshot = asyncio.run(_fetch())
    except (ConnectionError, RuntimeError, OSError) as exc:
        print(f"ops query failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(snapshot, indent=2, default=str))
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running service with concurrent closed-loop clients."""
    from repro.service import run_loadgen

    report = run_loadgen(
        args.host,
        args.port,
        clients=args.clients,
        requests_per_client=args.requests,
        op=args.op,
        payload_bytes=args.payload_bytes,
        expect_backend=args.backend,
    )
    _emit(args, report.as_dict())
    if report.invalid_signatures:
        return 2
    return 0 if report.completed > 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated runs of the Kate-Goldberg asynchronous DKG stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dkg = sub.add_parser("dkg", help="run one DKG session")
    _common_args(p_dkg)
    p_dkg.add_argument("--reconstruct", action="store_true",
                       help="also run protocol Rec afterwards")
    _trace_arg(p_dkg)
    p_dkg.set_defaults(func=cmd_dkg)

    p_vss = sub.add_parser("vss", help="run one HybridVSS sharing")
    _common_args(p_vss)
    p_vss.add_argument("--secret", type=int, default=None)
    p_vss.add_argument("--reconstruct", action="store_true")
    p_vss.set_defaults(func=cmd_vss)

    def _transport_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--transport", default="sim", choices=("sim", "tcp"),
            help="execution backend: deterministic simulation or real "
                 "asyncio TCP sockets on localhost",
        )
        parser.add_argument(
            "--time-scale", type=float, default=0.02,
            help="[tcp] wall seconds per protocol time unit",
        )
        parser.add_argument(
            "--latency", type=float, default=0.0,
            help="[tcp] mean injected link latency in time units",
        )
        parser.add_argument(
            "--crash", type=_parse_crash, action="append", default=[],
            metavar="NODE@AT[+UP]",
            help="[tcp] crash NODE at time AT into the phase (recover UP "
                 "units later); repeatable",
        )
        parser.add_argument(
            "--timeout", type=float, default=60.0,
            help="[tcp] wall-clock seconds to wait per protocol stage",
        )

    p_renew = sub.add_parser("renew", help="bootstrap + proactive renewal")
    _common_args(p_renew)
    p_renew.add_argument("--phases", type=int, default=2)
    _transport_args(p_renew)
    _trace_arg(p_renew)
    p_renew.set_defaults(func=cmd_renew)

    p_gm = sub.add_parser(
        "groupmod",
        help="§6 group modification: agree on an add proposal and "
             "deliver the joiner its share",
    )
    _common_args(p_gm)
    p_gm.add_argument(
        "--new-node", type=int, default=None,
        help="index of the joining node (default: n + 1)",
    )
    _transport_args(p_gm)
    _trace_arg(p_gm)
    p_gm.set_defaults(func=cmd_groupmod)

    p_res = sub.add_parser(
        "resilience", help="probe the 3t+2f+1 boundary for given t, f"
    )
    _common_args(p_res)
    p_res.set_defaults(func=cmd_resilience)

    p_cluster = sub.add_parser(
        "cluster", help="run one DKG over real asyncio TCP on localhost"
    )
    _common_args(p_cluster)
    p_cluster.add_argument(
        "--time-scale", type=float, default=0.02,
        help="wall seconds per protocol time unit (timers and delays)",
    )
    p_cluster.add_argument(
        "--latency", type=float, default=0.0,
        help="mean injected link latency in time units (0 = raw sockets)",
    )
    p_cluster.add_argument(
        "--drop", type=float, default=0.0,
        help="per-message drop probability, healed by retransmission",
    )
    p_cluster.add_argument(
        "--crash", type=_parse_crash, action="append", default=[],
        metavar="NODE@AT[+UP]",
        help="crash NODE at time AT (recover UP units later); repeatable",
    )
    p_cluster.add_argument(
        "--timeout", type=float, default=60.0,
        help="wall-clock seconds to wait for completion",
    )
    _trace_arg(p_cluster)
    p_cluster.set_defaults(func=cmd_cluster)

    p_serve = sub.add_parser(
        "serve", help="run the client-facing threshold service over TCP"
    )
    _common_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7710, help="listen port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--pool", type=int, default=16,
        help="presignature pool target (0 disables the pool)",
    )
    p_serve.add_argument(
        "--low-watermark", type=int, default=None,
        help="refill trigger level (default: half the pool target)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=256,
        help="bounded request queue size (backpressure beyond it)",
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="also serve the live metrics registry over HTTP on this "
             "port (0 = ephemeral; /metrics, /metrics.json, /healthz)",
    )
    p_serve.add_argument(
        "--duration", type=float, default=0.0,
        help="seconds to serve before exiting (0 = until interrupted)",
    )
    p_serve.add_argument(
        "--crash", type=_parse_crash, action="append", default=[],
        metavar="NODE@AT[+UP]",
        help="crash NODE after AT seconds (recover UP later); repeatable",
    )
    _trace_arg(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_replay = sub.add_parser(
        "replay",
        help="re-execute a flight-recorder capture in the sim driver "
             "and verify the transcript hash",
    )
    p_replay.add_argument("capture", help="capture file from --trace-out")
    p_replay.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_replay.set_defaults(func=cmd_replay)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="mutate captured schedules deterministically and assert "
             "the paper's safety invariants over every mutant",
    )
    _common_args(p_fuzz)
    p_fuzz.add_argument(
        "--protocol", default="dkg", choices=("dkg", "renew", "groupmod"),
        help="protocol whose schedules to fuzz (renew/groupmod generate "
             "their base capture over local TCP)",
    )
    p_fuzz.add_argument(
        "--seeds", type=int, default=50,
        help="number of mutation seeds to run; every failure prints its "
             "seed, and the same (capture, seed) reproduces bit-identically",
    )
    p_fuzz.add_argument(
        "--first-seed", type=int, default=0,
        help="start of the seed range (shard long campaigns across jobs)",
    )
    p_fuzz.add_argument(
        "--max-ops", type=int, default=8,
        help="mutation operators per seed (budgets still cap crashes "
             "at f and Byzantine senders at t)",
    )
    p_fuzz.add_argument(
        "--phases", type=int, default=1,
        help="[renew] renewal phases in the generated base capture",
    )
    p_fuzz.add_argument(
        "--smoke", action="store_true",
        help="bounded CI shape: n=4 t=1 f=0, at most 6 ops per seed",
    )
    p_fuzz.add_argument(
        "--capture", default=None, metavar="FILE.jsonl",
        help="fuzz this recorded capture instead of generating one "
             "(must be replayable: sim dkg or tcp renew/groupmod)",
    )
    p_fuzz.add_argument(
        "--reproduce", default=None, metavar="FILE.jsonl",
        help="re-run a reproducer emitted by a failing campaign and "
             "verify it reaches the recorded verdict",
    )
    p_fuzz.add_argument(
        "--report", default=None, metavar="FILE.json",
        help="also write the JSON campaign report to this file",
    )
    p_fuzz.add_argument(
        "--reproducers", default=None, metavar="DIR",
        help="emit shrunk failure reproducers into this directory",
    )
    p_fuzz.add_argument(
        "--no-self-check", action="store_true",
        help="skip the planted-bug verifier self-check",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_trace = sub.add_parser(
        "trace",
        help="analyze a capture: phase latencies, flow matrix, "
             "critical path, step-duration percentiles",
    )
    p_trace.add_argument("capture", help="capture file from --trace-out")
    p_trace.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_trace.set_defaults(func=cmd_trace)

    p_ops = sub.add_parser(
        "ops", help="dump a running service's live metrics snapshot"
    )
    p_ops.add_argument("--host", default="127.0.0.1")
    p_ops.add_argument("--port", type=int, default=7710)
    p_ops.add_argument(
        "--attempts", type=int, default=4,
        help="connection attempts before giving up",
    )
    p_ops.set_defaults(func=cmd_ops)

    p_loadgen = sub.add_parser(
        "loadgen", help="generate client load against a running service"
    )
    p_loadgen.add_argument("--host", default="127.0.0.1")
    p_loadgen.add_argument("--port", type=int, default=7710)
    p_loadgen.add_argument(
        "--clients", type=int, default=8, help="concurrent connections"
    )
    p_loadgen.add_argument(
        "--requests", type=int, default=10, help="requests per client"
    )
    p_loadgen.add_argument(
        "--op", default="sign",
        choices=("sign", "status"),
        help="operation to issue",
    )
    p_loadgen.add_argument("--payload-bytes", type=int, default=16)
    p_loadgen.add_argument(
        "--backend", default=None, choices=BACKENDS,
        help="fail unless the service runs this group backend",
    )
    p_loadgen.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_loadgen.set_defaults(func=cmd_loadgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "transport", None) == "sim" and getattr(args, "crash", None):
        # The sim lifecycles take no wall-clock crash plan.
        parser.error("--crash needs --transport tcp")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
