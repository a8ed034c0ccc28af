"""Cost model for general-bivariate AVSS (the E9 ablation).

The paper claims a *constant-factor* complexity reduction from using
symmetric bivariate polynomials (§3: "We achieve a constant-factor
reduction in the protocol complexities using symmetric bivariate
polynomials").  In Cachin et al.'s original AVSS the dealer's
polynomial is a general bivariate ``f``: node ``i`` receives BOTH its
row ``f(x, i)`` and column ``f(i, y)`` polynomials, and every echo and
ready message carries TWO points (one for each direction), because
``f(i, m) != f(m, i)`` in general.

We model that cost by running the symmetric protocol and adding, to
every metered message, the bytes the general scheme would carry on
top — a second polynomial in ``send``, a second point in
``echo``/``ready``.  The measured quantity (bytes on the wire, the
paper's communication complexity) is exactly what the constant-factor
claim concerns; protocol structure, counts and thresholds are
identical in the two schemes, so counts match by construction.
"""

from __future__ import annotations


def run_general_avss(config, secret=None, dealer=1, seed=0, **kwargs):
    """run_vss under the general-bivariate AVSS cost model."""
    from repro.vss.node import run_vss

    result = run_vss(config, secret=secret, dealer=dealer, seed=seed, **kwargs)
    scalar = config.group.scalar_bytes
    extra = {
        "vss.send": (config.t + 1) * scalar,  # the column polynomial f(i, y)
        "vss.echo": scalar,  # f(i, m) next to f(m, i)
        "vss.ready": scalar,
    }
    metrics = result.metrics
    for kind, per_message in extra.items():
        added = metrics.messages_by_kind[kind] * per_message
        metrics.bytes_by_kind[kind] += added
        metrics.bytes_total += added
    return result
