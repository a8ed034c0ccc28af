"""One way to build a deployment, and a protocol core with no codec.

Every lifecycle enrols its PKI and builds its simulator through
:mod:`repro.deployment`, so a PKI label or a simulation seed lives in
one module and a replayed session is built by the code that built the
live one.  These guards fail if a second construction site appears,
or if the frame format leaks back into the protocol machines.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _modules_matching(pattern: str) -> set[str]:
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if re.search(pattern, path.read_text(encoding="utf-8"))
    }


def test_pki_is_enrolled_in_one_module() -> None:
    enrolling = _modules_matching(r"CertificateAuthority\(|KeyStore\.enroll\(")
    assert enrolling == {"deployment.py"}


def test_simulation_is_built_only_by_the_sim_package_and_deployment() -> None:
    outside_sim = {
        module
        for module in _modules_matching(r"\bSimulation\(")
        if not module.startswith("sim/")
    }
    assert outside_sim == {"deployment.py"}


def test_retired_builders_are_gone() -> None:
    retired = r"build_dkg_deployment|bootstrap_dkg|DkgBootstrap|_DeploymentFactory"
    assert _modules_matching(rf"\b({retired})\b") == set()


CORE = ("vss", "dkg", "proactive", "groupmod")


class TestCodecFreeCore:
    """The protocol machines know nothing of frames: the transport that
    sends a message prices it, under the run's codec."""

    def test_core_does_not_import_the_network(self) -> None:
        importing = _modules_matching(
            r"(?m)^\s*(from repro\.net\b|import repro\.net\b|from repro import net\b)"
        )
        assert {m for m in importing if m.split("/")[0] in CORE} == set()

    def test_no_core_dataclass_has_a_size(self) -> None:
        sized = []
        for package in CORE:
            for path in sorted((SRC / package).glob("*.py")):
                module = importlib.import_module(f"repro.{package}.{path.stem}")
                for name, obj in vars(module).items():
                    if not isinstance(obj, type) or obj.__module__ != module.__name__:
                        continue
                    if "size" in getattr(obj, "__dataclass_fields__", {}):
                        sized.append(f"{module.__name__}.{name}")
        assert sized == []
