"""E1 — HybridVSS crash-free complexity (§3 Efficiency Discussion).

Paper claims:
* message complexity O(n^2) — exactly n + 2n^2 in the crash-free case;
* communication complexity O(kappa n^4) with full commitment matrices;
* O(kappa n^3) using the Cachin et al. hash compression.

The bench sweeps n and checks the growth orders via log-log
regression.  Runs send echo/ready with the commitment digest; the
inline-matrix comparison prices the same messages with every matrix
inline: the frames a payload-mode flight recorder captures for them.
"""

from __future__ import annotations

import io

from conftest import once

from repro.analysis import (
    Table,
    fit_exponent,
    vss_messages_crash_free,
)
from repro.crypto.groups import toy_group
from repro.net import wire
from repro.obs.replay import load_capture
from repro.obs.trace import JsonlTraceSink, set_trace_sink
from repro.vss import VssConfig, run_vss

NS = [7, 10, 13, 16, 19, 22]
G = toy_group()


def _inline_bytes(cfg: VssConfig):
    """Run the sharing under a flight recorder, whose frames carry every
    matrix inline; returns the run and its delivered messages' bytes."""
    capture = io.StringIO()
    sink = JsonlTraceSink(capture, payloads=True, group=G)
    previous = set_trace_sink(sink)
    try:
        res = run_vss(cfg, secret=1, seed=1)
    finally:
        set_trace_sink(previous)
        sink.close()
    spans = load_capture(io.StringIO(capture.getvalue())).spans
    return res, sum(
        len(span["data"]["frame"]) // 2
        for span in spans
        if span["data"]["type"] == "message"
    )


def _sweep(form: str):
    """``(n, t, messages, bytes)`` per n: the bytes the run metered
    (``form="digest"``), or its messages priced with every matrix
    inline (``form="inline"``)."""
    rows = []
    for n in NS:
        t = (n - 1) // 3
        cfg = VssConfig(n=n, t=t, group=G)
        if form == "inline":
            res, total = _inline_bytes(cfg)
        else:
            res = run_vss(cfg, secret=1, seed=1)
            total = res.metrics.bytes_total
        assert len(res.completed_nodes) == n
        rows.append((n, t, res.metrics.messages_total, total))
    return rows


def test_e1_message_complexity_quadratic(benchmark, save_table) -> None:
    rows = once(benchmark, lambda: _sweep("digest"))
    table = Table(
        "E1a: HybridVSS messages vs n (paper: exactly n + 2n^2)",
        ["n", "t", "measured msgs", "paper msgs", "ratio"],
    )
    for n, t, msgs, _ in rows:
        predicted = vss_messages_crash_free(n)
        table.add(n, t, msgs, predicted, msgs / predicted)
        assert msgs == predicted  # the count is exact, not just asymptotic
    save_table(table, "E1")
    exponent = fit_exponent([r[0] for r in rows], [r[2] for r in rows])
    assert 1.8 <= exponent <= 2.1, f"message growth ~n^{exponent:.2f}, want ~n^2"


def test_e1_bytes_full_matrix_quartic(benchmark, save_table) -> None:
    rows = once(benchmark, lambda: _sweep("inline"))
    table = Table(
        "E1b: HybridVSS bytes, every matrix inline (paper: O(kappa n^4))",
        ["n", "t", "measured bytes", "fitted order"],
    )
    exponent = fit_exponent([r[0] for r in rows], [r[3] for r in rows])
    for n, t, _, total in rows:
        table.add(n, t, total, f"n^{exponent:.2f}")
    save_table(table, "E1")
    # t ~ n/3, so bytes ~ n^2 msgs * n^2 matrix = n^4.
    assert 3.3 <= exponent <= 4.2, f"byte growth ~n^{exponent:.2f}, want ~n^4"


def test_e1_bytes_hashed_codec_cubic(benchmark, save_table) -> None:
    full = _sweep("inline")
    hashed = once(benchmark, lambda: _sweep("digest"))
    table = Table(
        "E1c: digest-form echo/ready (paper: O(kappa n^3)); savings vs inline",
        ["n", "full bytes", "hashed bytes", "savings factor"],
    )
    for (n, _, _, fb), (_, _, _, hb) in zip(full, hashed):
        table.add(n, fb, hb, fb / hb)
        assert hb < fb
    save_table(table, "E1")
    # Savings must *grow* with n (quartic vs cubic asymptotics).
    savings = [fb / hb for (_, _, _, fb), (_, _, _, hb) in zip(full, hashed)]
    assert savings[-1] > savings[0]
    # Exact frame accounting for the measured bytes: n sends carrying
    # the matrix (named group, side, entries) and a row polynomial, and
    # 2n^2 votes carrying its digest and a point (a ready one more byte,
    # its absent signature).  At toy element sizes the quadratic digest
    # term still dominates the cubic matrix term, so the asymptotic
    # order is checked on the closed form below.
    q_bytes = (G.q.bit_length() + 7) // 8
    framing = wire.HEADER_BYTES + 8  # header, session id
    echo = framing + 1 + 32 + G.scalar_bytes
    for n, t, _, hb in hashed:
        matrix = 2 + len(G.name) + 1 + (t + 1) ** 2 * G.element_bytes
        poly = 1 + 1 + q_bytes + 1 + (t + 1) * q_bytes
        assert hb == n * (framing + matrix + poly) + n * n * (2 * echo + 1)


def test_e1_asymptotic_orders_of_the_codec_model(benchmark, save_table) -> None:
    """The paper's O(kappa n^4) vs O(kappa n^3) split, checked on the
    analytic model at deployment scales (n up to 400) where the
    asymptotic term dominates regardless of element size."""
    from repro.analysis import vss_bytes_crash_free_full, vss_bytes_crash_free_hashed

    def orders():
        big_ns = [50, 100, 200, 400]
        full = [vss_bytes_crash_free_full(n, n // 3, 16) for n in big_ns]
        hashed = [vss_bytes_crash_free_hashed(n, n // 3, 16) for n in big_ns]
        return (
            big_ns,
            fit_exponent(big_ns, full),
            fit_exponent(big_ns, hashed),
        )

    big_ns, full_order, hashed_order = once(benchmark, orders)
    table = Table(
        "E1d: asymptotic byte orders of the two forms (model, large n)",
        ["form", "fitted order", "paper"],
    )
    table.add("full matrix", f"n^{full_order:.2f}", "O(kappa n^4)")
    table.add("hashed", f"n^{hashed_order:.2f}", "O(kappa n^3)")
    save_table(table, "E1")
    assert 3.7 <= full_order <= 4.1
    assert 2.7 <= hashed_order <= 3.1
