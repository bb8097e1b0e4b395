"""Unit tests for the section-5 strategies and workload generators."""

import pytest

from repro.engine import TreeEngine
from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.strategies import (
    STRATEGY_NAMES,
    build_strategy_query,
    query_semijoin,
    run_strategy,
)
from repro.workloads.films import film_db
from repro.workloads.modules import FUNCTIONS_B_LOCATION, FUNCTIONS_B_MODULE
from repro.workloads.xmark import XMarkConfig, generate_auctions, generate_persons
from repro.wrapper import XRPCWrapper
from repro.xml import parse_document


class TestXMarkGenerator:
    CONFIG = XMarkConfig(persons=30, closed_auctions=100, matches=5, seed=1)

    def test_persons_cardinality(self):
        doc = parse_document(generate_persons(self.CONFIG))
        persons = [n for n in doc.descendants() if n.node_name == "person"]
        assert len(persons) == 30

    def test_person_ids_unique_and_shaped(self):
        doc = parse_document(generate_persons(self.CONFIG))
        ids = [n.get_attribute("id").value
               for n in doc.descendants() if n.node_name == "person"]
        assert len(set(ids)) == 30
        assert all(pid.startswith("person") for pid in ids)

    def test_auction_cardinality(self):
        doc = parse_document(generate_auctions(self.CONFIG))
        auctions = [n for n in doc.descendants()
                    if n.node_name == "closed_auction"]
        assert len(auctions) == 100

    def test_exactly_n_matches(self):
        doc = parse_document(generate_auctions(self.CONFIG))
        person_ids = {f"person{i}" for i in range(self.CONFIG.persons)}
        buyers = [n.get_attribute("person").value
                  for n in doc.descendants() if n.node_name == "buyer"]
        assert sum(1 for b in buyers if b in person_ids) == 5

    def test_deterministic(self):
        assert generate_auctions(self.CONFIG) == generate_auctions(self.CONFIG)
        other = XMarkConfig(persons=30, closed_auctions=100, matches=5, seed=2)
        assert generate_auctions(self.CONFIG) != generate_auctions(other)

    def test_annotation_present(self):
        doc = parse_document(generate_auctions(self.CONFIG))
        annotations = [n for n in doc.descendants()
                       if n.node_name == "annotation"]
        assert len(annotations) == 100

    def test_film_db_padding(self):
        doc = parse_document(film_db(extra_films=10))
        films = [n for n in doc.descendants() if n.node_name == "film"]
        assert len(films) == 13  # 3 paper films + 10 synthetic


class TestStrategyQueries:
    def test_builder_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_strategy_query("teleportation", "B")

    def test_all_builders_produce_queries(self):
        for strategy in STRATEGY_NAMES:
            text = build_strategy_query(strategy, "peerB")
            assert "peerB" in text

    def test_semijoin_query_shape(self):
        text = query_semijoin("B")
        assert "b:Q_B3" in text
        assert "empty($ca)" in text


@pytest.fixture
def two_peer_site():
    config = XMarkConfig(persons=25, closed_auctions=120, matches=4)
    network = SimulatedNetwork()
    peer_a = XRPCPeer("A", network)
    peer_a.registry.register_source(FUNCTIONS_B_MODULE,
                                    location=FUNCTIONS_B_LOCATION)
    peer_a.store.register("persons.xml", generate_persons(config))
    wrapper = XRPCWrapper(engine=TreeEngine(), transport=network, host="B")
    wrapper.engine.registry.register_source(FUNCTIONS_B_MODULE,
                                            location=FUNCTIONS_B_LOCATION)
    wrapper.store.register("auctions.xml", generate_auctions(config))
    doc_server = XRPCPeer("B", network)
    doc_server.store = wrapper.store

    def routed(payload: str) -> str:
        if 'module="functions_b"' in payload:
            return wrapper.handle(payload)
        return doc_server.server.handle(payload)

    network.register_peer("B", routed)
    return network, peer_a, config


class TestStrategyExecution:
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_all_strategies_same_answer(self, two_peer_site, strategy):
        network, peer_a, config = two_peer_site
        run = run_strategy(strategy, peer_a, "B", network=network)
        assert run.results == config.matches

    def test_semijoin_bulk_single_message(self, two_peer_site):
        network, peer_a, config = two_peer_site
        run = run_strategy("distributed semi-join", peer_a, "B",
                           network=network)
        assert run.messages_sent == 1

    def test_relocation_single_call(self, two_peer_site):
        network, peer_a, config = two_peer_site
        run = run_strategy("execution relocation", peer_a, "B",
                           network=network)
        # One call to Q_B2; B itself fetches persons.xml from A.
        assert run.messages_sent == 1

    def test_data_shipping_moves_most_bytes(self, two_peer_site):
        network, peer_a, config = two_peer_site
        volumes = {}
        for strategy in STRATEGY_NAMES:
            volumes[strategy] = run_strategy(
                strategy, peer_a, "B", network=network).bytes_shipped
        assert volumes["data shipping"] == max(volumes.values())
        assert volumes["distributed semi-join"] == min(volumes.values())
