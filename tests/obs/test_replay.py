"""Record/replay round trips: captured runs re-execute bit-identically.

Each test records a live run with a payload-mode sink — over real
asyncio TCP sockets or the discrete-event simulator — then replays the
capture through fresh machines in the sim driver and checks the
reproduced ``transcript_hash`` against the one the recorder wrote at
close.  The configs are built on the suite-wide ``group`` fixture, so
the CI curve lane exercises the same round trips on secp256k1.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.dkg import DkgConfig, run_dkg
from repro.net.cluster import TcpWorld
from repro.obs.replay import (
    ReplayError,
    capture_meta,
    load_capture,
    replay_capture,
    replay_file,
)
from repro.obs.trace import JsonlTraceSink, set_trace_sink


def _renew(config, seed, **world) -> None:
    """Bootstrap and two renewals, as ``repro renew --phases 2`` runs."""
    from repro.proactive import ProactiveSystem

    with ProactiveSystem(config, seed=seed, **world) as system:
        system.bootstrap()
        system.renew()
        system.renew()
        assert system.world.collect_errors() == []


def _groupmod(config, seed, crash_plan=None, **world) -> None:
    """Agree on and add node n + 1, as ``repro groupmod`` runs."""
    from repro.groupmod import GroupManager, ModProposal

    joiner = config.n + 1
    with GroupManager(config, seed=seed, **world) as manager:
        manager.bootstrap()
        manager.agree({1: ModProposal("add", joiner)})
        manager.add_node(joiner, crash_plan=crash_plan)
        assert manager.world.collect_errors() == []


def _record(tmp_path, name, meta, group, run):
    """Run ``run()`` under a payload-mode recorder; returns (path, sink,
    run's result)."""
    path = tmp_path / name
    sink = JsonlTraceSink(path, payloads=True, group=group, meta=meta, mode="w")
    previous = set_trace_sink(sink)
    try:
        result = run()
    finally:
        set_trace_sink(previous)
        sink.close()
    return path, sink, result


class TestTcpReplay:
    def test_dkg_over_tcp_replays_identically(self, group, tmp_path) -> None:
        from repro.net.cluster import run_local_cluster

        config = DkgConfig(n=4, t=1, group=group)
        path, sink, result = _record(
            tmp_path,
            "dkg.jsonl",
            capture_meta("cluster", config, 3, "tcp", tau=0),
            group,
            lambda: run_local_cluster(
                config, seed=3, time_scale=0.01, timeout=60.0
            ),
        )
        assert result.succeeded
        replay = replay_file(path)
        assert replay.recorded_hash == sink.transcript
        assert replay.matched, (replay.recorded_hash, replay.replayed_hash)
        assert replay.outputs > 0 and replay.spans > 0

    def test_renewal_phases_replay_with_state_chaining(
        self, group, tmp_path
    ) -> None:
        config = DkgConfig(n=4, t=1, group=group)
        path, sink, _ = _record(
            tmp_path,
            "renew.jsonl",
            capture_meta("renew", config, 5, "tcp", phases=2),
            group,
            lambda: _renew(config, 5, world=TcpWorld, time_scale=0.01),
        )
        replay = replay_file(path)
        # The renew-2 machines were rebuilt from *replayed* renew-1
        # outputs; a hash match certifies the whole chain.
        assert replay.matched

    def test_groupmod_with_crash_recover_replays(self, group, tmp_path) -> None:
        from repro.sim.network import UniformDelay

        config = DkgConfig(n=6, t=1, f=1, group=group)
        path, sink, _ = _record(
            tmp_path,
            "groupmod.jsonl",
            capture_meta("groupmod", config, 9, "tcp", new_node=7),
            group,
            lambda: _groupmod(
                config,
                9,
                crash_plan=[(2.0, 2, 25.0)],
                world=TcpWorld,
                delay_model=UniformDelay(1.0, 3.0),
                time_scale=0.01,
            ),
        )
        capture = load_capture(path)
        # The mid-protocol fault is part of the transcript...
        events = {s.get("data", {}).get("type") for s in capture.spans}
        assert "crash" in events and "recover" in events
        # ...and the joiner's session opens with the grown membership.
        opens = [r for r in capture.records if r.get("record") == "open"]
        assert any(r["node"] == 7 and 7 in r["members"] for r in opens)
        assert replay_capture(capture).matched

    def test_replay_is_idempotent(self, group, tmp_path) -> None:
        from repro.net.cluster import run_local_cluster

        config = DkgConfig(n=4, t=1, group=group)
        path, _sink, _result = _record(
            tmp_path,
            "twice.jsonl",
            capture_meta("cluster", config, 11, "tcp", tau=0),
            group,
            lambda: run_local_cluster(
                config, seed=11, time_scale=0.01, timeout=60.0
            ),
        )
        first = replay_file(path)
        second = replay_file(path)
        assert first.matched and second.matched
        assert first.replayed_hash == second.replayed_hash


class TestSimReplay:
    def test_sim_dkg_replays_identically(self, group, tmp_path) -> None:
        config = DkgConfig(n=4, t=1, group=group)
        path, sink, result = _record(
            tmp_path,
            "sim.jsonl",
            capture_meta("dkg", config, 7, "sim", tau=0),
            group,
            lambda: run_dkg(config, seed=7),
        )
        assert result.succeeded
        replay = replay_file(path)
        assert replay.matched

    def test_sim_dkg_with_reconstruct_replays(self, group, tmp_path) -> None:
        config = DkgConfig(n=4, t=1, group=group)
        path, _sink, result = _record(
            tmp_path,
            "rec.jsonl",
            capture_meta("dkg", config, 7, "sim", tau=0),
            group,
            lambda: run_dkg(config, seed=7, reconstruct=True),
        )
        assert result.succeeded
        # The second-stage Rec inputs are operator spans in the same
        # capture, so they replay with everything else.
        assert replay_file(path).matched


class TestSimLifecycleReplay:
    """The simulated lifecycles record session opens as the TCP hosts
    do, so their captures replay through the same world-building."""

    def test_sim_renew_replays_identically(self, group, tmp_path) -> None:
        config = DkgConfig(n=4, t=1, group=group)
        path, sink, _ = _record(
            tmp_path,
            "renew.jsonl",
            capture_meta("renew", config, 5, "sim", phases=2),
            group,
            lambda: _renew(config, 5),
        )
        replay = replay_file(path)
        assert replay.recorded_hash == sink.transcript
        assert replay.matched

    def test_sim_groupmod_replays_identically(self, group, tmp_path) -> None:
        config = DkgConfig(n=6, t=1, f=1, group=group)
        path, sink, _ = _record(
            tmp_path,
            "groupmod.jsonl",
            capture_meta("groupmod", config, 9, "sim", new_node=7),
            group,
            lambda: _groupmod(config, 9, crash_plan=[(2.0, 2, 25.0)]),
        )
        events = {s.get("data", {}).get("type") for s in load_capture(path).spans}
        assert "crash" in events and "recover" in events
        replay = replay_file(path)
        assert replay.recorded_hash == sink.transcript
        assert replay.matched


class TestReplayRejections:
    def test_label_only_capture_is_rejected(self, group, tmp_path) -> None:
        config = DkgConfig(n=4, t=1, group=group)
        path = tmp_path / "labels.jsonl"
        meta = capture_meta("dkg", config, 7, "sim", tau=0)
        # payloads=False: spans carry labels but no event data.
        sink = JsonlTraceSink(path, group=group, meta=meta, mode="w")
        previous = set_trace_sink(sink)
        try:
            run_dkg(config, seed=7)
        finally:
            set_trace_sink(previous)
            sink.close()
        with pytest.raises(ReplayError, match="label-only"):
            replay_file(path)

    def test_capture_without_meta_is_rejected(self) -> None:
        buffer = io.StringIO('{"node": 1, "event": "crash", "t": 0.0}\n')
        with pytest.raises(ReplayError, match="meta"):
            replay_capture(load_capture(buffer))

    def test_serve_capture_is_analysis_only(self, group) -> None:
        config = DkgConfig(n=4, t=1, group=group)
        meta = {"record": "meta", **capture_meta("serve", config, 0, "tcp")}
        buffer = io.StringIO(json.dumps(meta) + "\n")
        with pytest.raises(ReplayError, match="analysis-only"):
            replay_capture(load_capture(buffer))

    def test_garbage_line_is_rejected(self) -> None:
        buffer = io.StringIO("not json\n")
        with pytest.raises(ReplayError, match="not JSON"):
            load_capture(buffer)


class TestTruncatedCaptures:
    """Interrupted recordings fail loudly, not with a hash mismatch."""

    def _recorded_lines(self, group, tmp_path) -> list[str]:
        config = DkgConfig(n=4, t=1, group=group)
        path, _sink, result = _record(
            tmp_path,
            "full.jsonl",
            capture_meta("dkg", config, 7, "sim", tau=0),
            group,
            lambda: run_dkg(config, seed=7),
        )
        assert result.succeeded
        return path.read_text().splitlines()

    def test_missing_end_record_is_truncation(self, group, tmp_path) -> None:
        from repro.obs.replay import TruncatedCaptureError

        lines = self._recorded_lines(group, tmp_path)
        clipped = tmp_path / "no-end.jsonl"
        clipped.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TruncatedCaptureError, match="no end record"):
            replay_file(clipped)

    def test_partial_final_line_is_truncation(self, group, tmp_path) -> None:
        from repro.obs.replay import TruncatedCaptureError

        lines = self._recorded_lines(group, tmp_path)
        # A crash mid-write leaves half a JSON object on the last line.
        clipped = tmp_path / "partial.jsonl"
        clipped.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][: len(lines[-2]) // 2])
        with pytest.raises(TruncatedCaptureError, match="truncated"):
            load_capture(clipped)

    def test_garbage_middle_line_is_not_truncation(self) -> None:
        from repro.obs.replay import TruncatedCaptureError

        buffer = io.StringIO('not json\n{"record": "end"}\n')
        with pytest.raises(ReplayError, match="not JSON") as excinfo:
            load_capture(buffer)
        assert not isinstance(excinfo.value, TruncatedCaptureError)

    def test_undecodable_frame_raises_frame_decode_error(
        self, group, tmp_path
    ) -> None:
        from repro.obs.replay import FrameDecodeError, ReplayWorld

        lines = self._recorded_lines(group, tmp_path)
        world = ReplayWorld(load_capture(tmp_path / "full.jsonl"))
        with pytest.raises(FrameDecodeError, match="does not decode"):
            world.decode_frame("zz-not-hex")
        with pytest.raises(FrameDecodeError, match="does not decode"):
            world.decode_frame("00ff00ff")
        assert len(lines) > 3
