"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_dkg_command(self, capsys) -> None:
        code = main(["dkg", "--n", "4", "--t", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "succeeded: True" in out
        assert "public_key" in out

    def test_dkg_json_output(self, capsys) -> None:
        code = main(["dkg", "--n", "4", "--t", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["succeeded"] is True
        assert len(payload["q_set"]) == 2

    def test_dkg_with_reconstruct(self, capsys) -> None:
        code = main(["dkg", "--n", "4", "--t", "1", "--reconstruct", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(set(payload["reconstructed"].values())) == 1

    def test_vss_command(self, capsys) -> None:
        code = main(
            ["vss", "--n", "4", "--t", "1", "--secret", "42",
             "--reconstruct", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["completed_nodes"] == [1, 2, 3, 4]
        assert set(payload["reconstructions"].values()) == {42}

    def test_vss_hashed_codec_smaller(self, capsys, metered) -> None:
        # Echo and ready always travel as digests: the bytes reported
        # are those frames', below every message carrying the matrix.
        from repro.crypto.groups import group_by_name
        from repro.net import wire

        from tests.helpers import sent_frame

        main(["vss", "--n", "7", "--t", "2", "--json"])
        reported = json.loads(capsys.readouterr().out)["bytes"]
        group = group_by_name("toy")
        payloads = [payload for payload, _ in metered]
        assert reported == sum(len(sent_frame(p, group)) for p in payloads)
        assert reported < sum(len(wire.encode(p, group=group)) for p in payloads)
        with pytest.raises(SystemExit):
            main(["vss", "--n", "7", "--t", "2", "--hashed-codec"])

    def test_renew_command(self, capsys) -> None:
        code = main(
            ["renew", "--n", "4", "--t", "1", "--phases", "2", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["secret_invariant"] is True
        assert len(payload["phases"]) == 2
        assert all(p["public_key_stable"] for p in payload["phases"])

    def test_renew_tcp_transport(self, capsys) -> None:
        code = main(
            ["renew", "--n", "4", "--t", "1", "--phases", "1",
             "--transport", "tcp", "--time-scale", "0.005", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["transport"] == "asyncio-tcp"
        assert payload["succeeded"] is True
        assert payload["secret_invariant"] is True
        assert payload["phases"][0]["renewed_nodes"] == [1, 2, 3, 4]

    def test_groupmod_sim_command(self, capsys) -> None:
        code = main(["groupmod", "--n", "4", "--t", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["new_node"] == 5
        assert payload["share_delivered"] is True
        assert payload["secret_invariant"] is True

    def test_groupmod_tcp_transport(self, capsys) -> None:
        code = main(
            ["groupmod", "--n", "4", "--t", "1", "--transport", "tcp",
             "--time-scale", "0.005", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["succeeded"] is True
        assert payload["share_verified"] is True
        assert payload["agreement_nodes"] == [1, 2, 3, 4]

    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_renew_sim_rejects_crash(self, capsys, transport) -> None:
        # A plan that exceeds f (§2.2) must not print a green result,
        # in either world.
        argv = ["renew", "--n", "6", "--t", "1", "--f", "1", "--phases", "1"]
        for crash in ("3@2+25", "4@2+25", "5@2", "6@2"):
            argv += ["--crash", crash]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--transport", transport])
        assert exc.value.code == 2
        assert "exceeds f=1 simultaneous crashes" in capsys.readouterr().err

    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_groupmod_sim_rejects_crash(self, capsys, transport) -> None:
        argv = ["groupmod", "--n", "4", "--t", "1", "--f", "0"]
        for node in (1, 2, 3):
            argv += ["--crash", f"{node}@0"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--transport", transport])
        assert exc.value.code == 2
        assert "exceeds f=0 simultaneous crashes" in capsys.readouterr().err

    def test_resilience_command(self, capsys) -> None:
        code = main(["resilience", "--t", "1", "--f", "0", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["bound"] == 4
        assert payload["success_by_n"]["4"] is True
        assert payload["success_by_n"]["3"] is False

    def test_serve_and_loadgen_round_trip(self, capsys) -> None:
        import os
        import pathlib
        import socket
        import subprocess
        import sys

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--n", "4", "--t", "1",
             "--seed", "3", "--port", str(port), "--pool", "4",
             "--duration", "60"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            code = main(
                ["loadgen", "--port", str(port), "--clients", "2",
                 "--requests", "2", "--json"]
            )
        finally:
            server.terminate()
            server.wait(timeout=10)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["completed"] == 4
        assert payload["errors"] == 0
        assert payload["invalid_signatures"] == 0

    def test_serve_loadgen_parser_defaults(self) -> None:
        parser = build_parser()
        serve = parser.parse_args(["serve"])
        assert (serve.pool, serve.port, serve.duration) == (16, 7710, 0.0)
        loadgen = parser.parse_args(["loadgen", "--op", "status"])
        assert (loadgen.clients, loadgen.requests, loadgen.op) == (8, 10, "status")
        for retired in ("beacon", "dprf", "decrypt", "mix"):
            with pytest.raises(SystemExit):
                parser.parse_args(["loadgen", "--op", retired])
        with pytest.raises(SystemExit):
            parser.parse_args(["loadgen", "--op", "nope"])

    @pytest.mark.parametrize("command", ["dkg", "cluster", "replay", "serve"])
    def test_cores_is_rejected_on_every_verb(self, command) -> None:
        # The forge takes its width from the machine, not a flag.
        argv = [command, "--cores", "2"]
        if command == "replay":
            argv.append("capture.jsonl")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_parser_requires_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_group_rejected(self) -> None:
        with pytest.raises(KeyError):
            main(["dkg", "--n", "4", "--t", "1", "--group", "nope"])


class TestFuzzCli:
    def test_fuzz_smoke_campaign(self, capsys, tmp_path) -> None:
        code = main(
            ["fuzz", "--protocol", "dkg", "--seeds", "5", "--smoke",
             "--reproducers", str(tmp_path), "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["seeds"] == 5
        assert payload["mutations"] > 0
        assert payload["self_check"]["ok"] is True
        # The self-check's planted-fault reproducer must land on disk.
        assert payload["self_check"]["reproducer"] is not None

    def test_fuzz_report_file(self, capsys, tmp_path) -> None:
        report = tmp_path / "report.json"
        code = main(
            ["fuzz", "--seeds", "2", "--smoke", "--no-self-check",
             "--report", str(report), "--json"]
        )
        capsys.readouterr()
        assert code == 0
        document = json.loads(report.read_text())
        assert document["ok"] is True
        assert document["protocol"] == "dkg"

    def test_fuzz_missing_capture_is_structured_error(self, capsys) -> None:
        code = main(["fuzz", "--capture", "/nonexistent/capture.jsonl"])
        err = capsys.readouterr().err
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "FileNotFoundError"

    def test_fuzz_parser_defaults(self) -> None:
        parser = build_parser()
        args = parser.parse_args(["fuzz"])
        assert (args.protocol, args.seeds, args.max_ops) == ("dkg", 50, 8)
        with pytest.raises(SystemExit):
            parser.parse_args(["fuzz", "--protocol", "nope"])


class TestReplayCliErrors:
    def test_truncated_capture_structured_error(self, capsys, tmp_path) -> None:
        from repro.dkg.config import DkgConfig
        from repro.crypto.groups import toy_group
        from repro.obs.replay import capture_meta

        meta = {
            "record": "meta",
            **capture_meta(
                "dkg", DkgConfig(n=4, t=1, group=toy_group()), 0, "sim", tau=0
            ),
        }
        path = tmp_path / "truncated.jsonl"
        path.write_text(json.dumps(meta) + "\n")
        code = main(["replay", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "TruncatedCaptureError"
        assert payload["truncated"] is True
        assert payload["capture"] == str(path)

    def test_missing_capture_structured_error(self, capsys) -> None:
        code = main(["replay", "/nonexistent/capture.jsonl"])
        err = capsys.readouterr().err
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "FileNotFoundError"
        assert payload["truncated"] is False
