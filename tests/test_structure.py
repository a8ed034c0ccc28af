"""One way to build a deployment.

Every lifecycle enrols its PKI and builds its simulator through
:mod:`repro.deployment`, so a PKI label or a simulation seed lives in
one module and a replayed session is built by the code that built the
live one.  These guards fail if a second construction site appears.
"""

from __future__ import annotations

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
