"""Quickstart: the paper's film-database examples (Q1, Q2, Q3).

A local :class:`repro.session.Database` session first (the unified
prepare/execute surface with plan telemetry), then three XQuery peers
sharing a film module; the origin peer executes the paper's queries
over the simulated network, demonstrating single XRPC calls, Bulk RPC
from a for-loop, and multi-destination parallel dispatch — every query
routed lifted-plan-first through the same pipeline.

Run::

    python examples/quickstart.py
"""

from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.session import Database
from repro.workloads.films import FILM_MODULE, FILM_MODULE_LOCATION
from repro.xml.serializer import serialize_sequence


FILMS_Y = """<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
</films>"""

FILMS_Z = """<films>
<film><name>Sound Of Music</name><actor>Julie Andrews</actor></film>
<film><name>The Untouchables</name><actor>Sean Connery</actor></film>
</films>"""


def main() -> None:
    # --- Q0: a local session through the unified Database facade --------
    db = Database()
    db.register("filmDB.xml", FILMS_Y)
    by_name = db.prepare("doc('filmDB.xml')//film[name = $t]/actor/text()")
    print("Q0 (local session, prepared query):")
    for title in ("The Rock", "Green Card"):
        print(f"  {title}:", serialize_sequence(by_name.execute(t=title)))
    explain = by_name.last_explain
    print(f"  plan: {explain.plan}, "
          f"plan cache {'hit' if explain.cache_hit else 'miss'}; "
          f"stats: {db.stats().lifted_executions} lifted / "
          f"{db.stats().interpreter_executions} interpreted\n")

    # One in-process network; three peers (p0 originates, y and z serve).
    network = SimulatedNetwork()
    p0 = XRPCPeer("p0.example.org", network)
    peer_y = XRPCPeer("y.example.org", network)
    peer_z = XRPCPeer("z.example.org", network)

    # Deploy the film.xq module everywhere and the databases on y and z.
    for peer in (p0, peer_y, peer_z):
        peer.registry.register_source(FILM_MODULE,
                                      location=FILM_MODULE_LOCATION)
    peer_y.store.register("filmDB.xml", FILMS_Y)
    peer_z.store.register("filmDB.xml", FILMS_Z)

    # --- Q1: a single remote function application -----------------------
    q1 = f"""
    import module namespace f="films" at "{FILM_MODULE_LOCATION}";
    <films> {{
      execute at {{"xrpc://y.example.org"}}
      {{ f:filmsByActor("Sean Connery") }}
    }} </films>
    """
    result = p0.execute_query(q1)
    print("Q1 (single call):")
    print(" ", serialize_sequence(result.sequence))
    print(f"  messages sent: {result.messages_sent} "
          f"(plan: {result.plan})\n")

    # --- Q2: a call inside a for-loop => ONE bulk message ----------------
    q2 = f"""
    import module namespace f="films" at "{FILM_MODULE_LOCATION}";
    <films> {{
      for $actor in ("Julie Andrews", "Sean Connery")
      let $dst := "xrpc://y.example.org"
      return execute at {{$dst}} {{ f:filmsByActor($actor) }}
    }} </films>
    """
    result = p0.execute_query(q2)
    print("Q2 (loop over actors, one destination):")
    print(" ", serialize_sequence(result.sequence))
    print(f"  messages sent: {result.messages_sent} "
          f"(bulk RPC: {result.calls_shipped} calls in one message)\n")

    # --- Q3: two actors x two destinations => one bulk message per peer --
    q3 = f"""
    import module namespace f="films" at "{FILM_MODULE_LOCATION}";
    <films> {{
      for $actor in ("Julie Andrews", "Sean Connery")
      for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
      return execute at {{$dst}} {{ f:filmsByActor($actor) }}
    }} </films>
    """
    result = p0.execute_query(q3)
    print("Q3 (two actors x two peers):")
    print(" ", serialize_sequence(result.sequence))
    print(f"  messages sent: {result.messages_sent} "
          f"({result.calls_shipped} calls, one bulk message per peer)")

    # Element constructors lift, so Q1–Q3 already ran as the lifted
    # relational plan; a bare loop of remote calls is Figure 2 itself.
    q4 = f"""
    import module namespace f="films" at "{FILM_MODULE_LOCATION}";
    for $actor in ("Julie Andrews", "Sean Connery")
    return execute at {{"xrpc://y.example.org"}} {{ f:filmsByActor($actor) }}
    """
    result = p0.execute_query(q4)
    print("\nQ4 (bare loop, loop-lifted plan):")
    print(" ", serialize_sequence(result.sequence))
    print(f"  plan: {result.plan}, messages sent: {result.messages_sent}")


if __name__ == "__main__":
    main()
