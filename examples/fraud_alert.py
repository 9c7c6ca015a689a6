#!/usr/bin/env python
"""Real-time linked-party screening on a payment stream.

The paper motivates on-line analytics with "financial fraud detection"
(§I) and the observation that payment networks are *add-only*: "a
payment that happened in the past is never truly reversed — instead a
new, second payment is created" (§I).  This example models that:

* Accounts are vertices; every payment is an edge-add event (Visa-style
  throughput, thousands of events/s).
* A small set of accounts is sanctioned/blacklisted.  Multi S-T
  Connectivity (Alg. 7) maintains, for every account, *which* sanctioned
  accounts it is linked to: an account is tainted when any chain of
  payments, in either direction, links it to a sanctioned one.
* A "When" trigger (§III-E) fires the moment a monitored merchant
  account becomes linked to any sanctioned account — while the stream
  is still flowing, not in a nightly batch.

The synthetic workload plants a laundering chain: sanctioned account ->
three mule hops -> merchant, interleaved into ordinary background
payments.  Run:  python examples/fraud_alert.py
"""

import numpy as np

from repro import (
    DynamicEngine,
    EngineConfig,
    MultiSTConnectivity,
    split_streams,
    throughput_report,
)
from repro.events.types import ADD

N_ACCOUNTS = 2_000
N_PAYMENTS = 12_000
RANKS = 8

SANCTIONED = [1_900, 1_901, 1_902]
MERCHANT = 7
MULES = [1_500, 1_501, 1_502]


def build_payment_stream(rng: np.random.Generator):
    """Background payments + a laundering chain buried mid-stream."""
    src = rng.integers(0, N_ACCOUNTS // 2, size=N_PAYMENTS, dtype=np.int64)
    dst = rng.integers(0, N_ACCOUNTS // 2, size=N_PAYMENTS, dtype=np.int64)
    dst = np.where(dst == src, (dst + 1) % (N_ACCOUNTS // 2), dst)
    amounts = rng.integers(1, 10_000, size=N_PAYMENTS, dtype=np.int64)
    # The chain: sanctioned -> mule1 -> mule2 -> mule3 -> merchant,
    # spread through the middle of the stream.
    chain = [
        (SANCTIONED[0], MULES[0]),
        (MULES[0], MULES[1]),
        (MULES[1], MULES[2]),
        (MULES[2], MERCHANT),
    ]
    positions = np.linspace(N_PAYMENTS * 0.4, N_PAYMENTS * 0.8, len(chain)).astype(int)
    for pos, (a, b) in zip(positions, chain):
        src[pos], dst[pos] = a, b
    return src, dst, amounts


def main() -> None:
    rng = np.random.default_rng(7)
    src, dst, amounts = build_payment_stream(rng)
    print(f"{N_PAYMENTS:,} payments between {N_ACCOUNTS:,} accounts, {RANKS} ranks")

    # Linked-party screening: a payment links payer and payee both ways.
    st = MultiSTConnectivity()
    engine = DynamicEngine([st], EngineConfig(n_ranks=RANKS))

    for acct in SANCTIONED:
        engine.init_program("st", acct, payload=st.register_source(acct))
    print(f"screening for links to sanctioned accounts {SANCTIONED}")

    alerts: list[tuple[int, float]] = []

    def on_alert(vertex: int, mask: int, vtime: float) -> None:
        tainted_by = st.sources_in(mask)
        alerts.append((vertex, vtime))
        print(
            f"  [ALERT] merchant account {vertex} is now linked to "
            f"sanctioned account(s) {tainted_by} at virtual t={vtime * 1e3:.3f}ms"
        )

    engine.add_trigger("st", lambda v, mask: mask != 0, on_alert, vertex=MERCHANT)

    engine.attach_streams(split_streams(src, dst, RANKS, weights=amounts, rng=rng))
    engine.run()

    assert alerts, "the planted laundering chain must be detected"
    print(f"\nalert latency: fired at {alerts[0][1] * 1e3:.3f}ms of "
          f"{engine.loop.max_time() * 1e3:.3f}ms total stream time")

    # Post-hoc audit: how widely did the taint spread?
    tainted = [v for v, mask in engine.state("st").items() if mask]
    print(f"accounts linked to sanctioned accounts: {len(tainted):,}")
    print("\n" + throughput_report(engine).summary())


if __name__ == "__main__":
    main()
