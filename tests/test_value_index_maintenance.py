"""Equality-probe value indexes are maintained through XQUF updates.

``step[path = $v]`` builds a :class:`~repro.xdm.structural.ValueIndex`
once per (anchor, step, key path); every patch hook of the
``StructuralIndex`` then *edits* the indexes covering the change —
re-keying the (at most depth-many) members above the mutation point,
posting the matching nodes of a spliced run, discarding the rows of a
removed one — instead of evicting them.  Each case here warms a battery
of probes, applies one update, and compares the lifted *and* the
interpreter probe with a ``try_lifted=False`` database re-registered
from the serialized tree, while asserting that nothing was evicted,
nothing was rebuilt and the structural index is the same object.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.search.index import term_index_for
from repro.search.stats import SEARCH_STATS
from repro.session import Database, to_sequence
from repro.workloads.xmark import XMarkConfig, generate_auctions
from repro.xdm.structural import ENCODING_STATS, ValueIndex, reencode_tree
from repro.xml.serializer import serialize, serialize_sequence
from repro.xquery.evaluator import evaluate_query

DOC = (
    '<r>'
    '<g id="g1">'
    '<a k="1"><b>x</b><c>c1</c></a>'
    '<a k="2"><b>y</b><b>x</b></a>'
    '<a k="3"><b>z<i>zz</i></b></a>'
    '<a kk="5"><b>w</b></a>'
    '<n k="7"><b>x</b></n>'
    '</g>'
    '<h id="g2">'
    '<a k="1"><b>x</b></a>'
    '<a k="9"><b>q</b></a>'
    '</h>'
    '</r>'
)

B_VALUES = ("x", "y", "z", "zzz", "zzzz", "w", "q", "c1", "new", "")
K_VALUES = ("1", "2", "3", "5", "7", "9", "new")

#: Every probe shape the cases below look through: the descendant index
#: on the document node (element and attribute key), and ``child``-axis
#: indexes under the two disjoint anchors ``g`` and ``h``.
BATTERY = (
    [f"doc('d.xml')//a[b = '{v}']" for v in B_VALUES]
    + [f"doc('d.xml')//a[@k = '{v}']" for v in K_VALUES]
    + [f"doc('d.xml')/r/g/a[b = '{v}']" for v in ("x", "new", "w")]
    + [f"doc('d.xml')/r/h/a[b = '{v}']" for v in ("x", "q", "new")]
    + ["for $v in ('x', 'new', 'q') return doc('d.xml')//a[b = $v]/@k"]
)


def _database():
    db = Database()
    db.register("d.xml", DOC)
    return db


def _read(db, query):
    """(lifted, interpreter) serializations over the live tree."""
    lifted = serialize_sequence(db.execute(query))
    interpreted = serialize_sequence(
        evaluate_query(query, doc_resolver=db._resolve_document))
    return lifted, interpreted


def _oracle(db, uri="d.xml"):
    fresh = Database(try_lifted=False)
    fresh.register(uri, serialize(db.store.get(uri)))
    return fresh


def assert_value_indexes_match_rebuild(index):
    """Postings and the reverse map of every cached index equal what a
    walk of the tree yields, and its key still names its anchor's rank."""
    for key, value_index in index.value_indexes.items():
        anchor = value_index.anchor
        assert index.nodes[key[0]] is anchor
        members = (anchor.children if value_index.child_only
                   else anchor.descendants())
        keys_of = {node: value_index.keys(node) for node in members
                   if value_index.matches(node) and value_index.keys(node)}
        assert value_index.keys_of == keys_of, key
        by_value = {}
        for node, values in keys_of.items():
            for value in values:
                by_value.setdefault(value, set()).add(node)
        assert {value: set(bucket) for value, bucket
                in value_index.by_value.items()} == by_value, key


def _apply_and_compare(db, update, battery=BATTERY, evictions=0):
    """Warm *battery*, apply *update*, and require every probe — lifted
    and interpreted — to equal the oracle, with the indexes edited in
    place."""
    doc = db.store.get("d.xml")
    for query in battery:
        _read(db, query)
    index = doc._sidx
    assert index is not None and index.value_indexes
    assert all(isinstance(v, ValueIndex)
               for v in index.value_indexes.values())
    before = ENCODING_STATS.snapshot()
    db.execute(update)
    seen = [_read(db, query) for query in battery]
    after = ENCODING_STATS.snapshot()
    assert doc._sidx is index and not index.stale
    assert after["value_index_evictions"] - \
        before["value_index_evictions"] == evictions
    assert after["index_builds"] == before["index_builds"]
    assert_value_indexes_match_rebuild(index)
    oracle = _oracle(db)
    for query, (lifted, interpreted) in zip(battery, seen):
        truth = serialize_sequence(oracle.execute(query))
        assert lifted == truth, (update, query)
        assert interpreted == truth, (update, query)
    return index


A1 = "doc('d.xml')/r/g/a[1]"

UPDATES = {
    # key-path child of a member
    "delete-key-child": f"delete node {A1}/b",
    "delete-one-of-two-key-children": "delete node doc('d.xml')/r/g/a[2]/b[1]",
    "insert-key-child": f"insert node <b>new</b> into {A1}",
    "insert-key-child-first": f"insert node <b>new</b> as first into {A1}",
    "rename-key-child-away": f"rename node {A1}/b as 'bb'",
    "rename-into-key-child": f"rename node {A1}/c as 'b'",
    "delete-key-text": f"delete node {A1}/b/text()",
    "replace-value-of-key-element":
        f"replace value of node {A1}/b with 'new'",
    "replace-value-of-key-element-empty":
        f"replace value of node {A1}/b with ''",
    "replace-value-of-key-text":
        f"replace value of node {A1}/b/text() with 'new'",
    "insert-deep-inside-key":
        "insert node <j>z</j> into doc('d.xml')/r/g/a[3]/b/i",
    "delete-deep-inside-key": "delete node doc('d.xml')/r/g/a[3]/b/i",
    "replace-key-child": f"replace node {A1}/b with <b>new</b>",
    "replace-key-child-by-two":
        f"replace node {A1}/b with (<b>new</b>, <b>q</b>)",
    "replace-key-child-by-nothing": f"replace node {A1}/b with ()",
    # key attribute
    "insert-key-attribute":
        "insert node attribute k { 'new' } into doc('d.xml')/r/g/a[4]",
    "delete-key-attribute": f"delete node {A1}/@k",
    "replace-value-of-key-attribute":
        f"replace value of node {A1}/@k with 'new'",
    "rename-key-attribute-away": f"rename node {A1}/@k as 'kk'",
    "rename-into-key-attribute":
        "rename node doc('d.xml')/r/g/a[4]/@kk as 'k'",
    "replace-key-attribute":
        f"replace node {A1}/@k with attribute k {{ 'new' }}",
    # members
    "insert-member":
        "insert node <a k='new'><b>new</b></a> as last into doc('d.xml')/r/g",
    "insert-member-first":
        "insert node <a k='new'><b>x</b></a> as first into doc('d.xml')/r/g",
    "insert-two-members":
        "insert nodes (<a k='new'><b>new</b></a>, <a><b>q</b></a>) "
        f"after {A1}",
    "delete-member": "delete node doc('d.xml')/r/g/a[2]",
    "delete-members": "delete nodes doc('d.xml')/r/g/a",
    "replace-member":
        "replace node doc('d.xml')/r/g/a[2] with <a k='new'><b>q</b></a>",
    "rename-into-member": "rename node doc('d.xml')/r/g/n as 'a'",
    "rename-member-away": f"rename node {A1} as 'n'",
    # several primitives in one PUL
    "whole-pul":
        "for $a in doc('d.xml')//a return "
        "(insert node <b>new</b> into $a, delete node $a/b[1])",
}


@pytest.mark.parametrize("name", sorted(UPDATES))
def test_index_is_edited_not_evicted(name):
    _apply_and_compare(_database(), UPDATES[name])


def test_delete_of_key_child_rekeys_after_the_detach():
    """The ordering hazard: ``patch_delete`` runs while the target is
    attached, so a re-key done *there* still sees the key child and
    ``//a[b = 'x']`` keeps answering the member that just lost it."""
    db = _database()
    probe = "doc('d.xml')/r/g/a[b = 'x']/@k"
    assert _read(db, probe) == ('k="1"k="2"',) * 2
    db.execute("delete node doc('d.xml')/r/g/a[1]/b")
    assert _read(db, probe) == ('k="2"',) * 2


def test_child_axis_index_takes_a_child_but_not_a_grandchild():
    db = _database()
    child = "doc('d.xml')/r/g/a[b = 'new']"
    descendant = "doc('d.xml')//a[b = 'new']"
    battery = [child, descendant]
    _apply_and_compare(
        db, "insert node <a k='c'><b>new</b></a> into doc('d.xml')/r/g",
        battery)
    assert _read(db, child)[0].count("<a ") == 1
    _apply_and_compare(
        db, "insert node <w><a k='gc'><b>new</b></a></w> "
            "into doc('d.xml')/r/g", battery)
    assert _read(db, child)[0].count("<a ") == 1
    assert _read(db, descendant)[0].count("<a ") == 2
    # ... and a change below the grandchild never reaches the child index.
    _apply_and_compare(
        db, "replace value of node doc('d.xml')/r/g/w/a/b with 'x'", battery)
    assert _read(db, child)[0].count("<a ") == 1


def test_disjoint_anchor_only_shifts_rank():
    db = _database()
    under_g = "doc('d.xml')/r/g/a[b = 'x']"
    under_h = "doc('d.xml')/r/h/a[b = 'x']"
    for query in (under_g, under_h):
        _read(db, query)
    index = db.store.get("d.xml")._sidx
    (h_key, h_index), = [(key, value) for key, value
                         in index.value_indexes.items()
                         if value.anchor.attributes[0].value == "g2"]
    postings = {value: list(members)
                for value, members in h_index.by_value.items()}
    _apply_and_compare(
        db, "insert node <a><b>x</b><b>y</b></a> as first "
            "into doc('d.xml')/r/g", [under_g, under_h])
    shifted = (h_key[0] + 5,) + h_key[1:]  # a, b, text, b, text
    assert index.value_indexes[shifted] is h_index
    assert h_key not in index.value_indexes
    assert {value: list(members) for value, members
            in h_index.by_value.items()} == postings
    assert index.nodes[shifted[0]] is h_index.anchor


def test_deleting_an_anchor_drops_that_index_only():
    db = _database()
    battery = ["doc('d.xml')/r/g/a[b = 'x']", "doc('d.xml')/r/h/a[b = 'x']",
               "doc('d.xml')//a[b = 'x']"]
    for query in battery:
        _read(db, query)
    index = db.store.get("d.xml")._sidx
    kept = {id(value) for value in index.value_indexes.values()
            if value.anchor.kind == "document"
            or value.anchor.attributes[0].value == "g1"}
    assert len(index.value_indexes) == 3 and len(kept) == 2
    _apply_and_compare(db, "delete node doc('d.xml')/r/h", battery[:1] +
                       battery[2:], evictions=1)
    assert {id(value) for value in index.value_indexes.values()} == kept
    # The dropped probe simply builds a fresh (empty) index next time.
    assert _read(db, battery[1]) == ("", "")


def test_full_reencode_still_ends_in_a_lazy_rebuild():
    """The worst-case fallback of the update path — ``reencode_tree``,
    where a splice that finds no room to respread ends up — leaves the
    structural index stale, and the value indexes are rebuilt with it."""
    db = _database()
    probe = "doc('d.xml')//a[b = 'new']/@k"
    assert _read(db, probe) == ("", "")
    doc = db.store.get("d.xml")
    stale = doc._sidx
    db.execute("insert node <b>new</b> into doc('d.xml')/r/g/a[1]")
    assert doc._sidx is stale and not stale.stale
    reencode_tree(doc)
    assert stale.stale
    assert _read(db, probe) == ('k="1"',) * 2
    assert doc._sidx is not stale


# ---------------------------------------------------------------------------
# Interleaved writes and reads, all three indexes live


CONFIG = XMarkConfig(persons=6, closed_auctions=12, open_auctions=3,
                     matches=2)
WORDS = "auction lot rare vintage mint shipping signed original".split()

_VARS = "".join(f"declare variable ${name} external;\n"
                for name in ("id", "price", "text", "buyer", "word", "step"))
APPEND = _VARS + """
insert node <closed_auction><seller person="{concat('ns', $id)}"/>
  <buyer person="{concat('nb', $id)}"/><itemref item="{concat('ni', $id)}"/>
  <price>{$price}</price><date>01/01/2007</date>
  <annotation><description><text>{$text}</text></description></annotation>
</closed_auction> as last into doc('auctions.xml')/site/closed_auctions
"""
_TARGET = "doc('auctions.xml')//closed_auction[buyer/@person = $buyer]"
#: The ``update-mix`` write shapes plus attribute and rename updates;
#: each tolerates a probe that selects no auction, or several.
WRITES = {
    "append": APPEND,
    "replace": _VARS + f"for $t in {_TARGET}/price "
                       "return replace value of node $t with $price",
    "delete": _VARS + f"delete nodes {_TARGET}",
    "rebuy": _VARS + f"for $t in {_TARGET}/buyer/@person "
                     "return replace value of node $t with concat($buyer, 'x')",
    "unbuy": _VARS + f"delete nodes {_TARGET}/buyer/@person",
    "retag": _VARS + f"for $t in {_TARGET} "
                     "return rename node $t as 'sold_auction'",
    "rebuyer": _VARS + f"for $t in {_TARGET}/buyer "
                       "return rename node $t as 'bidder'",
    "annotate": _VARS + f"for $t in {_TARGET}/annotation/description "
                        "return insert node <text>{$word}</text> into $t",
    "stamp": _VARS + f"for $t in {_TARGET} return "
                     "insert node attribute {concat('note', $step)} {$word} "
                     "into $t",
}
READS = {
    "eq": f"declare variable $buyer external;\n{_TARGET}/price",
    "scan": "doc('auctions.xml')//closed_auction/price",
    "contains": "doc('auctions.xml')"
                "//closed_auction[contains(., 'vintage')]/price",
    "contains-attr": "doc('auctions.xml')//closed_auction"
                     "/@*[contains(., 'rare')]",
}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16),
       steps=st.lists(st.tuples(st.sampled_from(sorted(WRITES)),
                                st.integers(0, 2**16)),
                      min_size=1, max_size=14))
def test_interleaved_updates_keep_every_index_right(seed, steps):
    db = Database()
    db.register("auctions.xml", generate_auctions(CONFIG))
    doc = db.store.get("auctions.xml")
    buyers = ["person0"]
    for query in READS.values():
        db.execute(query, buyer="person0")
    term_index_for(doc)
    index = doc._sidx
    next_id = 0
    for step, (kind, draw) in enumerate(steps):
        rng = random.Random(seed * 65_537 + draw)
        bindings = {"id": str(next_id), "step": str(step),
                    "price": f"{rng.randint(5, 500)}.00",
                    "text": " ".join(rng.choice(WORDS) for _ in range(6)),
                    "buyer": rng.choice(buyers), "word": rng.choice(WORDS)}
        if kind == "append":
            buyers.append(f"nb{next_id}")
            next_id += 1
        elif kind == "rebuy":
            buyers.append(bindings["buyer"] + "x")
        probe = rng.choice(buyers)
        before = ENCODING_STATS.snapshot(), SEARCH_STATS.snapshot()
        db.execute(WRITES[kind], **bindings)
        seen = {name: (
            serialize_sequence(db.execute(query, buyer=probe)),
            serialize_sequence(evaluate_query(
                query, doc_resolver=db._resolve_document,
                variables={"buyer": to_sequence(probe)})))
            for name, query in READS.items()}
        after = ENCODING_STATS.snapshot(), SEARCH_STATS.snapshot()
        assert doc._sidx is index and not index.stale
        assert_value_indexes_match_rebuild(index)
        for counter in ("value_index_evictions", "index_builds",
                        "reencodes_full"):
            assert after[0][counter] == before[0][counter], (kind, counter)
        assert after[1]["term_index_builds"] == \
            before[1]["term_index_builds"], kind
        oracle = _oracle(db, "auctions.xml")
        for name, query in READS.items():
            truth = serialize_sequence(oracle.execute(query, buyer=probe))
            assert seen[name] == (truth, truth), (kind, name)
