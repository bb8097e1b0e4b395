"""Property-based tests (hypothesis) on core invariants.

Each strategy generates structured random inputs and checks invariants
the system's correctness hinges on:

* XML parse/serialize round-trips preserve tree structure;
* the SOAP codec (MarshalWriter / the message decoder) round-trips
  arbitrary XDM sequences by value and agrees with the tree oracle;
* the algebra's ρ/π/∪ obey their relational laws;
* atomic casting round-trips through lexical space;
* Bulk RPC grouping never changes results vs one-at-a-time execution.
"""

import string as stringmod

from hypothesis import given, settings, strategies as st

from repro.algebra import Table
from repro.soap import XRPCRequest, build_request, parse_request
from repro.xdm import deep_equal, xs
from repro.xdm.atomic import AtomicValue, cast
from repro.xdm.nodes import NodeFactory
from repro.xml import parse_document, parse_fragment, serialize
from repro.xml.serializer import (
    escape_attribute,
    escape_text,
    serialize_sequence,
)

from tests.helpers import (
    item_shape,
    reference_sequences,
    shipped,
    shipped_call,
)

# ---------------------------------------------------------------------------
# Generators

_NAME_START = stringmod.ascii_letters + "_"
_NAME_CHARS = stringmod.ascii_letters + stringmod.digits + "_-."

xml_names = st.builds(
    lambda first, rest: first + rest,
    st.sampled_from(_NAME_START),
    st.text(alphabet=_NAME_CHARS, max_size=8),
)

# The Char production of XML 1.0: no control character but tab, line
# feed and carriage return, no surrogate, no U+FFFE / U+FFFF.
xml_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs"),
                           blacklist_characters="\ufffe\uffff",
                           whitelist_characters="\t\n\r"),
    max_size=40,
)


@st.composite
def xml_trees(draw, depth=2):
    name = draw(xml_names)
    attributes = draw(st.dictionaries(xml_names, xml_text, max_size=3))
    attr_text = "".join(
        f' {key}="{escape_attribute(value)}"'
        for key, value in attributes.items())
    if depth == 0:
        content = escape_text(draw(xml_text))
    else:
        parts = draw(st.lists(
            st.one_of(xml_text.map(escape_text),
                      xml_trees(depth=depth - 1)),
            max_size=3))
        content = "".join(parts)
    return f"<{name}{attr_text}>{content}</{name}>"


atomic_values = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12)
      .map(lambda v: AtomicValue(v, xs.integer)),
    st.booleans().map(lambda v: AtomicValue(v, xs.boolean)),
    xml_text.map(lambda v: AtomicValue(v, xs.string)),
    st.floats(allow_nan=False, allow_infinity=False, width=32)
      .map(lambda v: AtomicValue(float(v), xs.double)),
)

_FACTORY = NodeFactory()

#: One generator per node holder kind; with ``atomic_values`` that is
#: all seven holders of the wire format.
node_items = st.one_of(
    xml_trees().map(parse_fragment),
    xml_trees().map(parse_document),
    st.builds(_FACTORY.attribute,
              xml_names.filter(lambda name: name != "xmlns"), xml_text),
    st.builds(lambda name, value:
              _FACTORY.attribute(f"p:{name}", value, "urn:p"),
              xml_names, xml_text),
    xml_text.map(_FACTORY.text),
    xml_text.filter(lambda text: "--" not in text
                    and not text.endswith("-")).map(_FACTORY.comment),
    st.builds(_FACTORY.processing_instruction,
              xml_names.filter(lambda name: name.lower() != "xml"),
              xml_text.filter(lambda text: "?>" not in text)),
)


# ---------------------------------------------------------------------------
# XML round-trip


class TestXMLRoundTripProperties:
    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_parse_serialize_parse_is_identity(self, xml):
        first = parse_document(xml)
        reparsed = parse_document(serialize(first))
        assert deep_equal([first], [reparsed])

    @given(xml_text)
    @settings(max_examples=60, deadline=None)
    def test_text_content_round_trip(self, text):
        doc = parse_document(f"<a>{escape_text(text)}</a>")
        assert doc.root_element.string_value() == text

    @given(xml_text)
    @settings(max_examples=60, deadline=None)
    def test_attribute_value_round_trip(self, text):
        doc = parse_document(f'<a x="{escape_attribute(text)}"/>')
        assert doc.root_element.get_attribute("x").value == text

    @given(xml_trees())
    @settings(max_examples=40, deadline=None)
    def test_document_order_keys_strictly_ascend(self, xml):
        doc = parse_document(xml)
        keys = [n.order_key for n in doc.descendants(include_self=True)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# SOAP marshaling


class TestMarshalingProperties:
    @given(st.lists(atomic_values, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_atomic_sequences_round_trip(self, sequence):
        assert shipped(sequence) == sequence

    @given(st.lists(st.one_of(atomic_values, node_items), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_wire_text(self, sequence):
        """What the writer emits for any of the seven holder kinds, the
        decoder reads back as the sequence it was — and as what the
        oracle reads off the same bytes parsed into a tree."""
        request = XRPCRequest(module="m", method="f", arity=1,
                              calls=[[sequence]])
        wire = build_request(request)
        [[decoded]] = parse_request(wire).calls
        assert deep_equal(decoded, sequence)
        assert [item.type for item in decoded
                if isinstance(item, AtomicValue)] \
            == [item.type for item in sequence
                if isinstance(item, AtomicValue)]
        [expected] = reference_sequences(wire)
        assert [item_shape(item) for item in decoded] \
            == [item_shape(item) for item in expected]

    @given(xml_trees())
    @settings(max_examples=40, deadline=None)
    def test_nodes_ship_by_value(self, xml):
        doc = parse_document(xml)
        element = doc.root_element
        [copy] = shipped([element])
        assert copy is not element
        assert copy.parent is None
        assert deep_equal([copy], [element])

    @given(st.lists(atomic_values, max_size=4), st.lists(atomic_values, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_marshaling_preserves_sequence_boundaries(self, left, right):
        assert shipped_call([left, right]) == [left, right]


# ---------------------------------------------------------------------------
# Casting


class TestCastingProperties:
    @given(st.integers(min_value=-10**15, max_value=10**15))
    @settings(max_examples=80, deadline=None)
    def test_integer_lexical_round_trip(self, value):
        atom = AtomicValue(value, xs.integer)
        assert cast(cast(atom, xs.string), xs.integer).value == value

    @given(st.booleans())
    def test_boolean_lexical_round_trip(self, value):
        atom = AtomicValue(value, xs.boolean)
        assert cast(cast(atom, xs.string), xs.boolean).value is value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_double_lexical_round_trip(self, value):
        atom = AtomicValue(value, xs.double)
        assert cast(cast(atom, xs.string), xs.double).value == value


# ---------------------------------------------------------------------------
# Algebra laws


rows_strategy = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 9),
              st.text(alphabet="abc", max_size=2)),
    max_size=20)


class TestAlgebraProperties:
    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_projection_preserves_cardinality(self, rows):
        table = Table(("iter", "pos", "item"), rows)
        assert len(table.project("iter", "item")) == len(table)

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_distinct_idempotent(self, rows):
        table = Table(("iter", "pos", "item"), rows)
        once = table.distinct()
        assert once.distinct() == once

    @given(rows_strategy, rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_union_cardinality(self, left_rows, right_rows):
        left = Table(("iter", "pos", "item"), left_rows)
        right = Table(("iter", "pos", "item"), right_rows)
        assert len(left.union(right)) == len(left) + len(right)

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_rownum_is_dense_per_partition(self, rows):
        table = Table(("iter", "pos", "item"), rows)
        numbered = table.rownum("n", order_by=("pos", "item"),
                                partition_by="iter")
        per_partition: dict = {}
        for row in numbered.rows:
            per_partition.setdefault(row[0], []).append(row[-1])
        for numbers in per_partition.values():
            assert sorted(numbers) == list(range(1, len(numbers) + 1))

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_select_subset_of_rows(self, rows):
        table = Table(("iter", "pos", "item"), rows)
        flagged = table.fun("keep", lambda i: i % 2 == 0, "iter")
        selected = flagged.select("keep")
        assert all(row[0] % 2 == 0 for row in selected.rows)
        assert len(selected) <= len(table)


# ---------------------------------------------------------------------------
# Bulk RPC equivalence


class TestBulkEquivalenceProperty:
    @given(st.lists(st.sampled_from(
        ["Sean Connery", "Julie Andrews", "Gerard Depardieu"]),
        min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_bulk_equals_one_at_a_time(self, actors):
        """Grouping calls into bulk messages never changes results."""
        from repro.net import SimulatedNetwork
        from repro.rpc import XRPCPeer
        from repro.workloads.films import FILM_MODULE, FILM_MODULE_LOCATION

        films = """<films>
        <film><name>A</name><actor>Sean Connery</actor></film>
        <film><name>B</name><actor>Julie Andrews</actor></film>
        </films>"""

        network = SimulatedNetwork()
        origin = XRPCPeer("p0", network)
        server = XRPCPeer("y", network)
        for peer in (origin, server):
            peer.registry.register_source(FILM_MODULE,
                                          location=FILM_MODULE_LOCATION)
        server.store.register("filmDB.xml", films)

        actor_list = ", ".join(f'"{actor}"' for actor in actors)
        query = f"""
        import module namespace f="films" at "{FILM_MODULE_LOCATION}";
        for $a in ({actor_list})
        return execute at {{"xrpc://y"}} {{ f:filmsByActor($a) }}
        """
        bulk = origin.execute_query(query)
        single = origin.execute_query(query, force_one_at_a_time=True)
        assert deep_equal(bulk.sequence, single.sequence)
        assert bulk.messages_sent == 1
        assert single.messages_sent == len(actors)


# ---------------------------------------------------------------------------
# Interleaved update/query equivalence (gapped pre-plane)


# A known document shape so update targets can be drawn by index: three
# sections, each with three items carrying values.
def _sections_xml() -> str:
    sections = []
    for section in range(3):
        items = "".join(
            f'<item v="s{section}i{item}">t{section}{item}</item>'
            for item in range(3))
        sections.append(f'<sec n="{section}">{items}</sec>')
    return f"<root>{''.join(sections)}</root>"


_update_ops = st.one_of(
    st.builds(lambda j, tag: ("insert-first", j, tag),
              st.integers(1, 3), xml_names),
    st.builds(lambda j, tag: ("insert-last", j, tag),
              st.integers(1, 3), xml_names),
    st.builds(lambda j, k, tag: ("insert-before", j, k, tag),
              st.integers(1, 3), st.integers(1, 3), xml_names),
    st.builds(lambda j, k, tag: ("insert-after", j, k, tag),
              st.integers(1, 3), st.integers(1, 3), xml_names),
    st.builds(lambda j: ("delete-sec-child", j), st.integers(1, 3)),
    st.builds(lambda j, name: ("rename-sec", j, name),
              st.integers(1, 3), xml_names),
    st.builds(lambda j, value: ("set-attr", j, value),
              st.integers(1, 3), st.text(
                  alphabet=stringmod.ascii_letters, max_size=6)),
    st.builds(lambda j, value: ("replace-value", j, value),
              st.integers(1, 3), st.text(
                  alphabet=stringmod.ascii_letters, max_size=6)),
)


def _op_query(op: tuple) -> str:
    kind = op[0]
    if kind == "insert-first":
        return (f"insert node <{op[2]}/> as first into "
                f"(doc('r.xml')//*)[{op[1]}]")
    if kind == "insert-last":
        return (f"insert node <{op[2]} m='1'/> as last into "
                f"(doc('r.xml')//*)[{op[1]}]")
    if kind == "insert-before":
        return (f"insert node <{op[3]}/> before "
                f"doc('r.xml')/root/*[{op[1]}]/*[{op[2]}]")
    if kind == "insert-after":
        return (f"insert node <{op[3]}/> after "
                f"doc('r.xml')/root/*[{op[1]}]/*[{op[2]}]")
    if kind == "delete-sec-child":
        return f"delete nodes doc('r.xml')/root/*[{op[1]}]/*[1]"
    if kind == "rename-sec":
        return f"rename node doc('r.xml')/root/*[{op[1]}] as '{op[2]}'"
    if kind == "set-attr":
        return (f"replace value of node doc('r.xml')/root/*[{op[1]}]/@n "
                f"with '{op[2]}'")
    assert kind == "replace-value"
    return (f"replace value of node doc('r.xml')/root/*[{op[1]}] "
            f"with '{op[2]}'")


_PROBE_QUERIES = (
    "doc('r.xml')//item",
    "doc('r.xml')//@*",
    "count(doc('r.xml')//node())",
    "doc('r.xml')//item/parent::*",
    "doc('r.xml')//item[@v = 's1i1']",
    "doc('r.xml')/root/*/*",
    "doc('r.xml')//text()",
    # The axes closed by the lifted window kernels, plus positional
    # predicates — probed between updates so the incremental index
    # patches must keep every window formula correct.
    "doc('r.xml')//item/ancestor::*",
    "doc('r.xml')//item/ancestor-or-self::node()",
    "doc('r.xml')//item/following::item",
    "doc('r.xml')//item/preceding::item",
    "doc('r.xml')//item/following-sibling::*",
    "doc('r.xml')//item/preceding-sibling::*",
    "doc('r.xml')//item[1]",
    "doc('r.xml')//item[last()]",
    "doc('r.xml')/root/*[position() >= 2]",
    "doc('r.xml')//item/ancestor::*[2]",
    "doc('r.xml')//item/preceding::item[1]",
)


#: Probes that see text-node boundaries, which a re-parse merges away.
_BOUNDARY_PROBES = ("count(doc('r.xml')//node())", "doc('r.xml')//text()")


class TestInterleavedUpdateQueryEquivalence:
    """Random PUL + path-query sequences: after every operation the
    lifted plan and the product interpreter must return what the
    reference returns on the mutated tree *and* on a fresh parse of its
    serialization, from a gapped and from a dense starting document —
    which must also agree on every update error."""

    @given(st.lists(_update_ops, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_all_paths_agree(self, operations):
        from repro.xquery.evaluator import evaluate_query
        from tests.helpers import (
            assert_index_matches_rebuild,
            assert_matches_reference,
            densify,
            reparsed,
        )

        def run(dense):
            document = parse_document(_sections_xml(), uri="r.xml")
            if dense:
                densify(document)
            resolver = {"r.xml": document}.get
            outputs = []
            for operation in operations:
                try:
                    evaluate_query(_op_query(operation), doc_resolver=resolver)
                    outputs.append("ok")
                except Exception as error:  # dynamic update errors must
                    outputs.append(type(error).__name__)  # agree too
                fresh = {"r.xml": reparsed(document)}.get
                for probe in _PROBE_QUERIES:
                    outputs.append(serialize_sequence(assert_matches_reference(
                        probe, resolver,
                        reparse=None if probe in _BOUNDARY_PROBES else fresh)))
                if document._sidx is not None and not document._sidx.stale:
                    assert_index_matches_rebuild(document)
            return outputs

        assert run(dense=False) == run(dense=True)
