"""Table 2 — XRPC performance: loop-lifted vs one-at-a-time RPC,
with and without the function cache (section 3.3).

The echoVoid function is called over XRPC inside a for-loop with
``$x`` iterations.  Four mechanisms × cache settings are measured on the
simulated network (virtual milliseconds), so the latency-amortisation
shape reproduces deterministically:

* one-at-a-time pays the full request round-trip per iteration;
* Bulk RPC sends one message regardless of ``$x``;
* a cold function cache charges the 130 ms module translation on the
  first request; a warm cache charges nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net import PeerCostModel, SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.workloads.modules import TEST_MODULE, TEST_MODULE_LOCATION


@dataclass
class Table2Row:
    mechanism: str        # "one-at-a-time" | "bulk"
    function_cache: bool
    iterations: int       # $x
    milliseconds: float


def _echo_query(iterations: int) -> str:
    return f"""
    import module namespace t="test" at "{TEST_MODULE_LOCATION}";
    for $i in (1 to {iterations})
    return execute at {{"xrpc://y.example.org"}} {{ t:echoVoid() }}
    """


class Table2Experiment:
    """Regenerates Table 2 on the simulated network."""

    def __init__(self, iterations: tuple[int, ...] = (1, 1000)) -> None:
        self.iterations = iterations

    def measure(self, mechanism: str, warm_cache: bool,
                iterations: int) -> float:
        """One cell of Table 2, in simulated milliseconds."""
        network = SimulatedNetwork()  # the calibrated default cost model
        origin = XRPCPeer("p0.example.org", network)
        server = XRPCPeer("y.example.org", network,
                          cost_model=PeerCostModel())
        for peer in (origin, server):
            peer.registry.register_source(TEST_MODULE,
                                          location=TEST_MODULE_LOCATION)
        query = _echo_query(iterations)
        one_at_a_time = mechanism == "one-at-a-time"
        if warm_cache:
            # Pre-warm: one throwaway request compiles the module, as in
            # the paper's "With Function Cache" column.
            origin.execute_query(_echo_query(1),
                                 force_one_at_a_time=one_at_a_time)
        result = origin.execute_query(query,
                                      force_one_at_a_time=one_at_a_time)
        assert result.sequence == []  # echoVoid returns ()
        expected_messages = 1 if mechanism == "bulk" else iterations
        assert result.messages_sent == expected_messages
        # The unified pipeline serves the bulk mechanism from the lifted
        # relational plan (the echo loop is inside the lifted core);
        # forcing one-at-a-time pins the interpreter.
        expected_plan = "lifted" if mechanism == "bulk" else "interpreter"
        assert result.explain().plan == expected_plan
        return result.elapsed_seconds * 1000.0

    def run(self) -> list[Table2Row]:
        rows: list[Table2Row] = []
        for warm_cache in (False, True):
            for mechanism in ("one-at-a-time", "bulk"):
                for iterations in self.iterations:
                    rows.append(Table2Row(
                        mechanism=mechanism,
                        function_cache=warm_cache,
                        iterations=iterations,
                        milliseconds=self.measure(
                            mechanism, warm_cache, iterations),
                    ))
        return rows

    @staticmethod
    def render(rows: list[Table2Row]) -> str:
        """Print the Table 2 grid the paper shows."""
        def cell(mechanism: str, cache: bool, iterations: int) -> float:
            for row in rows:
                if (row.mechanism, row.function_cache, row.iterations) == \
                        (mechanism, cache, iterations):
                    return row.milliseconds
            raise KeyError((mechanism, cache, iterations))

        xs_values = sorted({row.iterations for row in rows})
        lines = [
            "Table 2: XRPC Performance (msec): loop-lifted vs one-at-a-time;",
            "         function cache vs no function cache",
            "",
            "                 No Function Cache      With Function Cache",
            "              " + "".join(f"  $x={x:<8}" for x in xs_values)
            + "".join(f"  $x={x:<8}" for x in xs_values),
        ]
        for mechanism in ("one-at-a-time", "bulk"):
            cells = [cell(mechanism, False, x) for x in xs_values] + \
                    [cell(mechanism, True, x) for x in xs_values]
            lines.append(f"{mechanism:<14}" +
                         "".join(f"  {value:>9.1f}" for value in cells))
        return "\n".join(lines)
