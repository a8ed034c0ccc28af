"""The paper's complexity claims as closed-form reference functions.

Each function returns the *exact* count where the paper's text pins one
down (e.g. crash-free HybridVSS sends exactly ``n + 2n^2`` messages) or
the asymptotic envelope otherwise.  Benchmarks print measured counts
next to these so EXPERIMENTS.md can record paper-vs-measured rows, and
``fit_exponent`` estimates the empirical growth order of a measured
series for shape checks like "messages grow as n^2".
"""

from __future__ import annotations

import math
from collections.abc import Sequence

# Re-exported reference functions: the closed-form tables quote the
# same Fig. 1 formulas the protocols enforce, from the one shared
# module, so paper-vs-measured rows can never drift from the code.
from repro.quorum import echo_threshold, resilience_bound  # noqa: F401


# -- HybridVSS (§3, Efficiency Discussion) -------------------------------------


def vss_messages_crash_free(n: int) -> int:
    """Exact crash-free Sh message count: n sends + n^2 echoes + n^2 readies."""
    return n + 2 * n * n


def vss_bytes_crash_free_full(n: int, t: int, kappa_bytes: int) -> int:
    """O(kappa n^4) envelope were the matrix inline in every message:
    each of the ~2n^2 echo/ready messages would carry the (t+1)^2-entry
    matrix."""
    matrix = (t + 1) ** 2 * 2 * kappa_bytes  # elements are ~2 kappa bits
    return vss_messages_crash_free(n) * matrix


def vss_bytes_crash_free_hashed(n: int, t: int, kappa_bytes: int) -> int:
    """O(kappa n^3) envelope with hash compression, the form endpoints
    send: only the n sends carry the matrix; the 2n^2 votes carry a
    digest."""
    matrix = (t + 1) ** 2 * 2 * kappa_bytes
    return n * matrix + 2 * n * n * 32


def vss_recovery_messages(n: int) -> int:
    """Per-recovery overhead: O(n^2) from the recovering node (help
    broadcast + B replay) + O(n) from each helper."""
    return 2 * n * n


def vss_messages_with_crashes(n: int, t: int, d: int) -> int:
    """§3 bound with crashes: O(t d n^2)."""
    return (t + 1) * d * vss_messages_crash_free(n)


# -- DKG (§4, Efficiency) ----------------------------------------------------------


def dkg_messages_optimistic(n: int) -> int:
    """Exact crash-free optimistic count: n HybridVSS instances
    (n * (n + 2n^2)) plus the proposal broadcast (n sends + 2n^2 votes)."""
    return n * vss_messages_crash_free(n) + n + 2 * n * n


def dkg_messages_optimistic_bound(n: int, t: int, d: int) -> int:
    """§4: O(t d n^3) messages for the optimistic phase."""
    return (t + 1) * max(d, 1) * n**3


def dkg_messages_per_leader_change(n: int, t: int, d: int) -> int:
    """§4: each leader change involves O(t d n^2) messages."""
    return (t + 1) * max(d, 1) * n**2


def dkg_messages_worst_case(n: int, t: int, d: int) -> int:
    """§4 worst case: O(t d n^2 (n + d))."""
    return (t + 1) * max(d, 1) * n**2 * (n + max(d, 1))


# -- resilience (§2.2): echo_threshold / resilience_bound re-exported above ----


# -- empirical shape fitting ---------------------------------------------------------------


def fit_exponent(ns: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(n): the empirical
    polynomial order of a measured series.

    A measured message count growing as ~n^2 yields ~2.0 (lower-order
    terms push it slightly off; benches assert a tolerance window).
    """
    if len(ns) != len(ys) or len(ns) < 2:
        raise ValueError("need at least two (n, y) pairs")
    logn = [math.log(x) for x in ns]
    logy = [math.log(y) for y in ys]
    mean_x = sum(logn) / len(logn)
    mean_y = sum(logy) / len(logy)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(logn, logy))
    var = sum((x - mean_x) ** 2 for x in logn)
    if var == 0:
        raise ValueError("all n values identical")
    return cov / var


def ratio_table(
    ns: Sequence[int],
    measured: Sequence[float],
    predicted: Sequence[float],
) -> list[tuple[int, float, float, float]]:
    """Rows (n, measured, predicted, measured/predicted) for bench output."""
    return [
        (n, m, p, (m / p if p else math.inf))
        for n, m, p in zip(ns, measured, predicted)
    ]
