#!/usr/bin/env python3
"""Replica recovery from a peer's ledger.

Paper §3: "The immutable structure of the ledger also helps when
recovering replicas: tampering of its ledger by any replica can easily
be detected.  Hence, a recovering replica can simply read the ledger of
any replica it chooses and directly verify whether the ledger can be
trusted."

This demo crashes a replica mid-run, lets the system continue without
it, then recovers the crashed replica from a peer: audit the peer's
hash chain, adopt the blocks, and replay them to rebuild the exact
state every non-faulty replica holds.  It also shows the audit
*rejecting* a corrupted source.

Run with:  python examples/replica_recovery.py
"""

from repro import (Deployment, ExperimentConfig, Transaction,
                   recover_from_peer, replica_id)
from repro.errors import TamperedLedgerError
from repro.ledger.block import Block


def main() -> None:
    config = ExperimentConfig(
        protocol="geobft",
        num_clusters=2,
        replicas_per_cluster=4,
        batch_size=10,
        clients_per_cluster=1,
        client_outstanding=3,
        duration=3.0,
        warmup=0.5,
        record_count=1000,
        fast_crypto=True,
        seed=29,
    )
    deployment = Deployment(config)
    victim = replica_id(2, 4)
    deployment.sim.schedule(1.0, deployment.network.failures.crash, victim)
    result = deployment.run()
    print(result.describe())

    crashed = deployment.replicas[victim]
    peer = deployment.replicas[replica_id(2, 2)]
    print(f"\n{victim} crashed at t=1.0s with {crashed.ledger.height} "
          f"blocks; peer {peer.node_id} reached {peer.ledger.height}.")

    # --- recovery from an honest peer -------------------------------
    ledger, store = recover_from_peer(peer.ledger, config.record_count)
    print(f"recovered: audited and adopted {ledger.height} blocks from "
          f"{peer.node_id}")
    print(f"state digest matches peer: "
          f"{store.state_digest() == peer.store.state_digest()}")

    # --- a corrupted source is rejected ------------------------------
    saboteur = deployment.replicas[replica_id(2, 3)]
    original = saboteur.ledger.block(2)
    forged = Block(
        original.height, original.round_id, original.cluster_id,
        (Transaction("stolen-funds", "update", 0, "1e9"),),
        original.batch_digest, original.certificate,
        original.prev_hash,
    )
    saboteur.ledger.tamper_for_test(2, forged)
    try:
        recover_from_peer(saboteur.ledger, config.record_count)
        print("ERROR: tampered ledger was accepted!")
    except TamperedLedgerError as exc:
        print(f"tampered source rejected as expected: {exc}")
    finally:
        saboteur.ledger.tamper_for_test(2, original)


if __name__ == "__main__":
    main()
