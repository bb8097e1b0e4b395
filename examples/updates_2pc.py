"""Distributed updates: XQUF over XRPC with isolation and 2PC.

Demonstrates section 2.3 of the paper:

1. rule R_Fu — an updating call without isolation applies immediately;
2. rule R'_Fu — under ``declare option xrpc:isolation "repeatable"``,
   updates defer to a WS-AtomicTransaction-style two-phase commit across
   every participating peer;
3. atomicity — a write-write conflict at one peer aborts the whole
   distributed transaction, leaving all peers unchanged.

Run::

    python examples/updates_2pc.py
"""

from repro.errors import TransactionError
from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer

ACCOUNTS_MODULE = """
module namespace acc = "urn:accounts";

declare function acc:balance() as xs:string
{ string(doc("account.xml")/account/balance) };

declare updating function acc:set-balance($v as xs:string)
{ replace value of node doc("account.xml")/account/balance with $v };

declare updating function acc:log-transfer($note as xs:string)
{ insert node <entry>{$note}</entry> into doc("account.xml")/account/log };
"""


def make_bank(network: SimulatedNetwork, names: list[str]) -> list[XRPCPeer]:
    peers = []
    for name in names:
        peer = XRPCPeer(name, network)
        peer.registry.register_source(ACCOUNTS_MODULE, location="acc.xq")
        peer.store.register(
            "account.xml",
            "<account><balance>100</balance><log/></account>")
        peers.append(peer)
    return peers


def main() -> None:
    network = SimulatedNetwork()
    origin, bank_a, bank_b = make_bank(network, ["origin", "bankA", "bankB"])

    # --- 1. Immediate updates (rule R_Fu) --------------------------------
    result = origin.execute_query("""
    import module namespace acc = "urn:accounts" at "acc.xq";
    execute at {"xrpc://bankA"} { acc:set-balance("80") }
    """)
    print("After immediate update, bankA balance:",
          bank_a.store.get("account.xml").root_element
          .find("balance").string_value())
    print(f"  (plan: {result.plan} — a liftable verdict is final, so the "
          "updating call ships once, from the lifted plan)")

    # --- 2. Atomic distributed transfer (rule R'_Fu + 2PC) ---------------
    result = origin.execute_query("""
    import module namespace acc = "urn:accounts" at "acc.xq";
    declare option xrpc:isolation "repeatable";
    ( execute at {"xrpc://bankA"} { acc:set-balance("60") },
      execute at {"xrpc://bankB"} { acc:set-balance("120") },
      execute at {"xrpc://bankA"} { acc:log-transfer("sent 20 to B") },
      execute at {"xrpc://bankB"} { acc:log-transfer("received 20 from A") } )
    """)
    print("\nDistributed transfer committed via 2PC:",
          result.committed_2pc)
    print("  participants:", result.participants)
    for name, peer in (("bankA", bank_a), ("bankB", bank_b)):
        account = peer.store.get("account.xml").root_element
        print(f"  {name}: balance={account.find('balance').string_value()!r},"
              f" log entries={len(account.find('log').children)}")
    print("  bankA 2PC journal:",
          [action for action, _ in bank_a.isolation.log.records])

    # --- 3. Conflict: a competing commit aborts everything ---------------
    original_handle = bank_b.server.handle

    def interfering_handle(payload: str) -> str:
        response = original_handle(payload)
        if "set-balance" in payload:
            # Another transaction commits at bankB mid-flight.
            bank_b.store.register(
                "account.xml",
                "<account><balance>999</balance><log/></account>")
        return response

    network.register_peer("bankB", interfering_handle)

    try:
        origin.execute_query("""
        import module namespace acc = "urn:accounts" at "acc.xq";
        declare option xrpc:isolation "repeatable";
        ( execute at {"xrpc://bankA"} { acc:set-balance("0") },
          execute at {"xrpc://bankB"} { acc:set-balance("0") } )
        """)
    except TransactionError as exc:
        print("\nConflicting transaction correctly aborted:")
        print("  ", exc)
    balance_a = bank_a.store.get("account.xml").root_element \
        .find("balance").string_value()
    print(f"  bankA untouched by the aborted transaction: balance={balance_a}")


if __name__ == "__main__":
    main()
