"""The four workloads: what one cycle of ops is, and how each op's
output is checked.

Every workload is a closed loop of one client with one op in flight.
``setup`` builds everything from the seed (the program only ever sees
generated inputs) and runs one warm-up cycle so lazy indexes and plan
caches are built before timing.  ``cycle`` yields the ops of one cycle
lazily — an op may depend on what the previous op of the cycle did.
An op's ``run`` is what is timed; ``seen`` runs right after, untimed,
and reduces the output to what ``verify`` needs.  ``verify`` runs after
the timed regions and marks wrong ops by setting ``Record.error``.

Serializer and parser are reached as module attributes (``xml_out.…``)
so the tracer's wrappers, installed on those modules, see the harness's
own calls.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import repro.xml.parser as xml_in
import repro.xml.serializer as xml_out
from repro.net.http import HttpTransport, HttpXRPCServer
from repro.rpc import XRPCPeer
from repro.search.stats import SEARCH_STATS
from repro.session import Database
from repro.strategies.q7 import query_semijoin
from repro.workloads.modules import FUNCTIONS_B_LOCATION, FUNCTIONS_B_MODULE
from repro.workloads.xmark import (KEYWORD_SUITE, READ_SUITE, XMarkConfig,
                                   generate_auctions, generate_persons)
from repro.xdm.atomic import string

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_LOCATION = "http://example.org/bench.xq"
_IMPORT = f'import module namespace bn="urn:xrpc-e2e-bench" at "{BENCH_LOCATION}";\n'


def xmark(scale: int, seed: int) -> XMarkConfig:
    """×1 = 244 KB, ×5 = 1.2 MB, ×20 = 4.9 MB over both documents."""
    return XMarkConfig(persons=100 * scale, closed_auctions=600 * scale,
                       open_auctions=60 * scale, seed=seed)


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    seen: Callable[[object], dict]


@dataclass
class Record:
    cycle: int
    kind: str
    label: str
    #: The op's time at the reference host (``e2e_host``), which every
    #: metric is computed from, and as the wall clock measured it.
    ms: float = 0.0
    wall_ms: float = 0.0
    #: Why the op failed (exception or verifier verdict); a failed op is
    #: left out of every latency sample and of ``ops_per_s``.
    error: Optional[str] = None
    seen: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: Why this workload exists (one line; copied into BENCHMARK.json).
    why = ""
    #: Op kinds behind ``op_ms_p50``/``op_ms_p95`` and ``second_op_ms_p50``.
    headline = ""
    second = ""
    sizes: dict[str, dict] = {}
    #: Span names that must fire in the traced region, or the run fails.
    spans: tuple[str, ...] = ()

    def setup(self, seed: int, size: dict) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def cycle(self, index: int) -> Iterator[Op]:
        raise NotImplementedError

    def checkpoint(self, index: int, records: list[Record]) -> None:
        """Untimed work between cycles (differential checks)."""

    def verify(self, records: list[Record]) -> None:
        raise NotImplementedError

    def headline_ops(self, records: list[Record]) -> list[Record]:
        return [r for r in records if r.kind == self.headline]

    def second_ops(self, records: list[Record]) -> list[Record]:
        return [r for r in records if r.kind == self.second]

    def engines(self) -> list:
        return []

    def peer_stats(self):
        return None

    def side_runs(self, seed: int, size: dict, run_cycles) -> dict:
        """Extra traced-mode measurements as per-layer metric values."""
        return {}


# ---------------------------------------------------------------------------


class LocalRead(Workload):
    name = "local-read"
    why = ("22 READ_SUITE + 9 KEYWORD_SUITE queries on a 4.9 MB database: "
           "engine layers do all the work, every cache stays warm")
    headline = "query"      # all 31 queries pooled, as one user's query mix
    #: The second kind: the statically positional predicates, half of a
    #: pass's time and the kernels ROADMAP item 3(a) calls superlinear.
    #: Pooled, because one query has three samples a run and a 200 ms
    #: gen-2 pause lands on a 600 ms query most times it runs.
    POSITIONAL = tuple(name for name in READ_SUITE if "position" in name)
    sizes = {"full": {"scale": 20, "sweep": (1, 5), "sweep_passes": 3},
             "smoke": {"scale": 1, "sweep": (2,), "sweep_passes": 1}}
    spans = ("op.query", "engine.execute", "engine.compile",
             "engine.analyze", "pathfinder.lifted", "algebra.axis_step",
             "algebra.positional_filter", "search.contains", "xml.serialize")

    SUITE = {**READ_SUITE, **KEYWORD_SUITE}

    def setup(self, seed: int, size: dict) -> None:
        config = xmark(size["scale"], seed)
        self.documents = {"persons.xml": generate_persons(config),
                          "auctions.xml": generate_auctions(config)}
        self.database = Database()
        for uri, text in self.documents.items():
            self.database.register(uri, text)
        self.queries = {name: self.database.prepare(source)
                        for name, source in self.SUITE.items()}
        for op in self.cycle(0):
            op.run()

    def cycle(self, index: int) -> Iterator[Op]:
        for name, query in self.queries.items():
            yield Op(
                "query", name,
                lambda query=query:
                    xml_out.serialize_sequence(query.execute()),
                lambda text, query=query: {
                    "digest": digest(text), "bytes": len(text),
                    "plan": query.last_explain.plan})

    def verify(self, records: list[Record]) -> None:
        oracle = Database(try_lifted=False)
        for uri, text in self.documents.items():
            oracle.register(uri, text)
        expected = {
            name: digest(xml_out.serialize_sequence(oracle.execute(source)))
            for name, source in self.SUITE.items()}
        for record in records:
            if record.error is None \
                    and record.seen["digest"] != expected[record.label]:
                record.error = "differs from the tree interpreter"

    def second_ops(self, records: list[Record]) -> list[Record]:
        return [r for r in records if r.label in self.POSITIONAL]

    def engines(self) -> list:
        return [self.database.engine]

    def side_runs(self, seed: int, size: dict, run_cycles) -> dict:
        """Scale sweep: per-query medians at the smaller scales, for the
        log-log slope of latency over document size."""
        medians = {}
        for scale in size["sweep"]:
            small = LocalRead()
            small.setup(seed, {"scale": scale})
            medians[scale] = query_medians(
                run_cycles(small, size["sweep_passes"]))
        return {"sweep": medians}


def query_medians(records: list[Record]) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for record in records:
        if record.error is None:
            samples.setdefault(record.label, []).append(record.ms)
    return {label: statistics.median(ms) for label, ms in samples.items()}


# ---------------------------------------------------------------------------


class TwoPeers(Workload):
    """Peer A (persons.xml) originates; peer B (auctions.xml,
    account.xml) serves over loopback HTTP.  Only B needs a server:
    nothing in these workloads calls back into A."""

    def start_peers(self, seed: int, scale: int) -> None:
        config = xmark(scale, seed)
        with open(os.path.join(HERE, "bench.xq")) as source:
            bench_module = source.read()
        self.transport = HttpTransport()
        self.a = XRPCPeer("A", self.transport)
        self.b = XRPCPeer("B", self.transport)
        for peer in (self.a, self.b):
            peer.registry.register_source(bench_module,
                                          location=BENCH_LOCATION)
            peer.registry.register_source(FUNCTIONS_B_MODULE,
                                          location=FUNCTIONS_B_LOCATION)
        self.persons = generate_persons(config)
        self.auctions = generate_auctions(config)
        self.a.store.register("persons.xml", self.persons)
        self.b.store.register("auctions.xml", self.auctions)
        self.b.store.register("account.xml",
                              "<account><balance>0</balance></account>")
        # Late-bound handler: the tracer patches XRPCServer.handle on the
        # class after the server is up.
        self.server = HttpXRPCServer(
            lambda payload: self.b.server.handle(payload)).start()
        self.transport.register_endpoint("B", self.server.address)

    def teardown(self) -> None:
        # Closing the pooled connections first lets the server's
        # keep-alive handler thread see EOF and end.
        self.transport.close()
        self.server.stop()

    def engines(self) -> list:
        return [self.a.engine, self.b.engine]

    def peer_stats(self):
        return self.transport.peer_stats("B")

    def wire_bytes(self) -> int:
        stats = self.peer_stats()
        return stats.bytes_sent + stats.bytes_received

    @staticmethod
    def shipped(result) -> dict:
        return {"messages": result.messages_sent,
                "calls": result.calls_shipped, "plan": result.plan}


class RpcCalls(TwoPeers):
    name = "rpc-calls"
    why = ("small XRPC calls over loopback HTTP (void, 500-call Bulk RPC "
           "semijoin, 2PC write): per-message cost dominates, bytes do not")
    headline = "void"
    second = "semijoin"
    sizes = {"full": {"scale": 5, "voids": 16},
             "smoke": {"scale": 1, "voids": 4}}
    spans = ("op.void", "op.semijoin", "op.txn", "rpc.execute_query",
             "rpc.client_call", "rpc.txn_command", "rpc.server_handle",
             "rpc.run_function", "net.exchange", "soap.build_request",
             "soap.parse_request", "soap.build_response",
             "soap.parse_response", "xml.parse", "xquery.interpreter",
             "xquf.apply", "engine.compile", "engine.analyze")

    VOID = _IMPORT + 'execute at {"xrpc://B"} { bn:void() }'
    SEMIJOIN = query_semijoin("B")
    TXN = (_IMPORT + 'declare option xrpc:isolation "repeatable";\n'
           'declare variable $v external;\n'
           'execute at {"xrpc://B"} { bn:set-balance($v) }')
    #: The semijoin evaluated on one site, as the verifier's reference.
    LOCAL_JOIN = """
    for $p in doc("persons.xml")//person
    let $ca := doc("auctions.xml")//closed_auction
                   [./buyer/@person = string($p/@id)]
    return if (empty($ca)) then ()
           else <result>{$p, $ca/annotation}</result>
    """

    def setup(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.voids = size["voids"]
        self.persons_count = xmark(size["scale"], seed).persons
        self.start_peers(seed, size["scale"])
        for op in self.cycle(0):
            op.run()

    def balance(self) -> str:
        account = self.b.store.get("account.xml").root_element
        return account.find("balance").string_value()

    def cycle(self, index: int) -> Iterator[Op]:
        rng = random.Random(self.seed * 1_000_003 + index)
        for _ in range(2):
            for _ in range(self.voids // 2):
                yield Op(
                    "void", "void",
                    lambda: self.a.execute_query(self.VOID),
                    lambda result: {"items": len(result.sequence),
                                    **self.shipped(result)})
            yield Op(
                "semijoin", "semijoin",
                lambda: self.a.execute_query(self.SEMIJOIN),
                lambda result: {
                    "digest": digest(
                        xml_out.serialize_sequence(result.sequence)),
                    "items": len(result.sequence), **self.shipped(result)})
            value = str(rng.randrange(10 ** 6))
            yield Op(
                "txn", "txn",
                lambda value=value: self.a.execute_query(
                    self.TXN, variables={"v": [string(value)]}),
                lambda result, value=value: {
                    "committed": result.committed_2pc, "wrote": value,
                    "balance": self.balance(), **self.shipped(result)})

    def verify(self, records: list[Record]) -> None:
        reference = Database()
        reference.register("persons.xml", self.persons)
        reference.register("auctions.xml", self.auctions)
        joined = reference.execute(self.LOCAL_JOIN)
        expected = {
            "void": {"items": 0, "messages": 1, "calls": 1},
            "semijoin": {
                "digest": digest(xml_out.serialize_sequence(joined)),
                "items": len(joined), "messages": 1,
                "calls": self.persons_count},
            "txn": {"committed": True, "messages": 3},
        }
        for record in records:
            if record.error is not None:
                continue
            wanted = dict(expected[record.kind])
            if record.kind == "txn":
                wanted["balance"] = record.seen["wrote"]
            wrong = [key for key, value in wanted.items()
                     if record.seen[key] != value]
            if wrong:
                record.error = "wrong " + ", ".join(wrong)


class MessagePath(TwoPeers):
    name = "message-path"
    why = ("2 MB node payloads shipped one way per call: soap marshal, "
           "xml parse/serialize and socket copies dominate, engine idle")
    headline = "request"
    second = "response"
    sizes = {"full": {"scale": 5, "rows": 20000},
             "smoke": {"scale": 1, "rows": 1000}}
    spans = ("op.request", "op.response", "rpc.execute_query",
             "rpc.client_call", "rpc.server_handle", "rpc.run_function",
             "net.exchange", "soap.build_request", "soap.parse_request",
             "soap.build_response", "soap.parse_response", "xml.parse",
             "pathfinder.lifted")

    REQUEST = (_IMPORT + 'declare variable $payload external;\n'
               'execute at {"xrpc://B"} { bn:sink($payload) }')
    #: Equal-length words keep the payload's byte size the same on
    #: every seed, so op time and MB/s stay comparable across seeds.
    WORDS = ("auction vintage reserve shipped bidding catalog limited "
             "edition genuine antique").split()

    def setup(self, seed: int, size: dict) -> None:
        self.rows = size["rows"]
        self.start_peers(seed, size["scale"])
        rng = random.Random(seed)
        text = "<rows>" + "".join(
            f"<row>{index:08d} "
            f"{' '.join(rng.choice(self.WORDS) for _ in range(10))}</row>"
            for index in range(self.rows)) + "</rows>"
        self.b.store.register("rows.xml", text)
        # Pre-parsed at the originator: the timed request ships nodes,
        # it does not construct them.
        self.payload = list(xml_in.parse_document(text).root_element.children)
        self.response_query = (
            _IMPORT + f'execute at {{"xrpc://B"}} {{ bn:rows({self.rows}) }}')
        for op in self.cycle(0):
            op.run()
        self.mark = self.wire_bytes()

    def on_wire(self) -> int:
        total = self.wire_bytes()
        delta, self.mark = total - self.mark, total
        return delta

    def cycle(self, index: int) -> Iterator[Op]:
        yield Op(
            "request", "request",
            lambda: self.a.execute_query(
                self.REQUEST, variables={"payload": self.payload}),
            lambda result: {
                "wire_bytes": self.on_wire(),
                "count": [item.value for item in result.sequence],
                **self.shipped(result)})
        yield Op(
            "response", "response",
            lambda: self.a.execute_query(self.response_query),
            lambda result: {
                "wire_bytes": self.on_wire(),
                "digest": digest(xml_out.serialize_sequence(result.sequence)),
                **self.shipped(result)})

    def verify(self, records: list[Record]) -> None:
        stored = self.b.store.get("rows.xml").root_element.children
        expected = {
            "request": {"count": [self.rows], "messages": 1},
            "response": {"digest": digest(xml_out.serialize_sequence(stored)),
                         "messages": 1},
        }
        for record in records:
            if record.error is not None:
                continue
            wrong = [key for key, value in expected[record.kind].items()
                     if record.seen[key] != value]
            if wrong:
                record.error = "wrong " + ", ".join(wrong)


# ---------------------------------------------------------------------------


class UpdateMix(Workload):
    """One seeded XQUF write, then reads whose caches it just
    invalidated.  A model of the appended auctions says what each read
    must return; every ``check_every`` cycles the reads are also compared
    with a fresh ``Database`` re-registered from the serialized document.

    ``reads=("kw",)`` is the keyword probe: the same writes against a
    live term index, each followed by a lifted ``contains`` read.  At the
    commit that introduced this benchmark that read returns wrong results
    (and some appends raise), so it is measured beside the gated workload
    — which must not fail — and reported as ``search.kw_*``.
    """

    name = "update-mix"
    why = ("XQUF append/replace/delete on 1.2 MB, each followed by reads "
           "whose indexes it invalidated: the defeats-the-cache side")
    #: Appends alone, not all writes: replace/delete sit at 0.7 ms and
    #: appends at 1.0 ms, so the pooled median wanders with the seed's
    #: mix; and exactly one append in five exhausts the stride-32 key
    #: gap and respreads (~33 ms), which puts p90 inside that mode.
    headline = "append"
    second = "eq"
    sizes = {"full": {"scale": 5, "check_every": 20, "probe_cycles": 40,
                      "probe_check_every": 5},
             "smoke": {"scale": 1, "check_every": 2, "probe_cycles": 4,
                       "probe_check_every": 2}}
    spans = ("op.append", "op.eq", "op.scan", "engine.execute",
             "engine.compile", "engine.analyze", "pathfinder.lifted",
             "xquery.interpreter", "xquf.apply", "xdm.value_index",
             "algebra.axis_step", "xml.serialize")

    _VARS = "".join(f"declare variable ${name} external;\n"
                    for name in ("id", "price", "text"))
    APPEND = _VARS + """
    insert node <closed_auction><seller person="{concat('ns', $id)}"/>
      <buyer person="{concat('nb', $id)}"/><itemref item="{concat('ni', $id)}"/>
      <price>{$price}</price><date>01/01/2007</date>
      <annotation><description><text>{$text}</text></description></annotation>
    </closed_auction> as last into doc('auctions.xml')/site/closed_auctions
    """
    REPLACE = ("declare variable $buyer external;\n"
               "declare variable $price external;\n"
               "replace value of node doc('auctions.xml')"
               "//closed_auction[buyer/@person = $buyer]/price with $price")
    DELETE = ("declare variable $buyer external;\n"
              "delete node doc('auctions.xml')"
              "//closed_auction[buyer/@person = $buyer]")
    READS = {
        "eq": "declare variable $buyer external;\n"
              "doc('auctions.xml')//closed_auction"
              "[buyer/@person = $buyer]/price",
        "scan": "doc('auctions.xml')//closed_auction/price",
        "kw": "doc('auctions.xml')"
              "//closed_auction[contains(., 'vintage')]/price",
    }
    WORDS = "auction lot rare vintage mint shipping signed original".split()

    def __init__(self, reads: tuple[str, ...] = ("eq", "scan")) -> None:
        self.reads = reads

    def setup(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.check_every = size["check_every"]
        self.database = Database()
        self.database.register("auctions.xml",
                               generate_auctions(xmark(size["scale"], seed)))
        self.append, self.replace, self.delete = (
            self.database.prepare(source)
            for source in (self.APPEND, self.REPLACE, self.DELETE))
        self.queries = {kind: self.database.prepare(self.READS[kind])
                        for kind in self.reads}
        #: The model: (id, price) of every appended auction still there,
        #: in document order.
        self.live: list[tuple[str, str]] = []
        self.next_id = 0
        self.checked = 0        # first record not yet under a checkpoint
        # Warm-up is the reads alone (lazy indexes, and for the keyword
        # probe the term index); a warm-up write would move the model.
        for kind, query in self.queries.items():
            if kind == "eq":
                query.execute(buyer="person0")
            else:
                query.execute()

    def engines(self) -> list:
        return [self.database.engine]

    def _applied(self, change: Callable[[], object]) -> dict:
        change()        # the write went through: bring the model along
        return {"plan": self.database.engine.last_plan}

    def _write(self, rng: random.Random) -> Op:
        draw = rng.random()
        if len(self.live) < 2 or draw < 0.4:
            ident = str(self.next_id)
            self.next_id += 1
            price = f"{rng.randint(5, 500)}.00"
            text = " ".join(rng.choice(self.WORDS) for _ in range(12))
            return Op("append", "append",
                      lambda: self.append.execute(id=ident, price=price,
                                                  text=text),
                      lambda _: self._applied(
                          lambda: self.live.append((ident, price))))
        if draw < 0.8:
            slot = rng.randrange(len(self.live))
            ident = self.live[slot][0]
            price = f"{rng.randint(5, 500)}.50"
            return Op("replace", "replace",
                      lambda: self.replace.execute(buyer="nb" + ident,
                                                   price=price),
                      lambda _: self._applied(
                          lambda: self.live.__setitem__(slot, (ident, price))))
        ident = self.live[0][0]
        return Op("delete", "delete",
                  lambda: self.delete.execute(buyer="nb" + ident),
                  lambda _: self._applied(lambda: self.live.pop(0)))

    def cycle(self, index: int) -> Iterator[Op]:
        rng = random.Random(self.seed * 1_000_003 + index)
        yield self._write(rng)
        for kind, query in self.queries.items():
            if kind == "eq":
                ident, price = rng.choice(self.live)
                yield Op(
                    "eq", "eq",
                    lambda query=query: xml_out.serialize_sequence(
                        query.execute(buyer="nb" + ident)),
                    lambda text, query=query: {
                        "text": text, "buyer": "nb" + ident,
                        "model": f"<price>{price}</price>",
                        "plan": query.last_explain.plan})
            else:
                yield Op(
                    kind, kind,
                    lambda query=query:
                        xml_out.serialize_sequence(query.execute()),
                    lambda text, query=query: {
                        "text": text, "plan": query.last_explain.plan})

    def checkpoint(self, index: int, records: list[Record]) -> None:
        reads = records[-len(self.reads):]
        if (index + 1) % self.check_every == 0:
            self._compare_with_fresh(index, reads, records)
            self.checked = len(records)
        for record in reads:
            if record.kind != "eq":
                # A scan is ~70 KB of text; only a checkpoint needs it.
                record.seen.pop("text", None)

    def _compare_with_fresh(self, index: int, reads: list[Record],
                            records: list[Record]) -> None:
        """Differential check of this cycle's reads against a fresh
        database built from the serialized document; a mismatch fails
        that read kind's ops since the last checkpoint."""
        fresh = Database()
        fresh.register("auctions.xml", xml_out.serialize(
            self.database.store.get("auctions.xml")))
        for record in reads:
            if record.error is not None:
                continue
            bindings = ({"buyer": record.seen["buyer"]}
                        if record.kind == "eq" else {})
            truth = xml_out.serialize_sequence(
                fresh.execute(self.READS[record.kind], **bindings))
            if record.seen["text"] != truth:
                for earlier in records[self.checked:]:
                    if earlier.kind == record.kind and earlier.error is None:
                        earlier.error = (
                            f"differs from a fresh database at cycle {index}")
            if record.kind == "scan" and not truth.endswith("".join(
                    f"<price>{price}</price>" for _, price in self.live)):
                record.error = "fresh database disagrees with the model"

    def verify(self, records: list[Record]) -> None:
        for record in records:
            if record.kind == "eq" and record.error is None \
                    and record.seen["text"] != record.seen["model"]:
                record.error = "differs from the model of applied writes"

    def side_runs(self, seed: int, size: dict, run_cycles) -> dict:
        probe = UpdateMix(reads=("kw",))
        probe.setup(seed, {**size, "check_every": size["probe_check_every"]})
        before = SEARCH_STATS.snapshot()
        records = run_cycles(probe, size["probe_cycles"])
        probe.verify(records)
        patched = (SEARCH_STATS.snapshot()["postings_patched"]
                   - before["postings_patched"])
        reads = [r for r in records if r.kind == "kw"]
        writes = [r for r in records if r.kind != "kw"]
        wrong = [r for r in reads if r.error is not None]
        raised = [r for r in writes if r.error is not None]
        return {"kw_probe": {
            "kw_after_write_ms": statistics.median(r.ms for r in reads),
            "kw_wrong_share": len(wrong) / len(reads),
            "postings_patched_per_write": patched / len(writes),
            "write_error_share": len(raised) / len(writes),
            "first_wrong_cycle": wrong[0].cycle if wrong else None,
            "first_write_error": (
                {"cycle": raised[0].cycle, "error": raised[0].error}
                if raised else None),
        }}


WORKLOADS = {workload.name: workload
             for workload in (LocalRead, RpcCalls, MessagePath, UpdateMix)}
