"""Nodes are slotted: every creator initialises every slot, and nothing
can hang an undeclared attribute on a node (which is what would bring
the per-instance ``__dict__`` back)."""

import pytest

from repro import reference
from repro.soap.messages import XRPCRequest, build_request, parse_request
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    NodeFactory,
    ProcessingInstructionNode,
    TextNode,
    copy_tree,
)
from repro.xml.parser import parse_document
from tests.helpers import reference_sequences, run

SOURCE = ('<?xml version="1.0"?><!--head--><r xmlns:p="urn:p" a="1" p:b="2">'
          "lead<p:e><![CDATA[cdata]]></p:e><?target data?><!--c-->"
          "<empty/>tail</r><?after it?>")

NODE_CLASSES = (Node, DocumentNode, ElementNode, AttributeNode, TextNode,
                CommentNode, ProcessingInstructionNode)


def factory_tree() -> Node:
    factory = NodeFactory()
    document = factory.document("u")
    root = factory.element("r")
    document.append(root)
    root.set_attribute(factory.attribute("a", "1"))
    root.append(factory.text("t"))
    root.append(factory.comment("c"))
    root.append(factory.processing_instruction("p", "d"))
    return document


def decoded_items(oracle: bool = False) -> list[Node]:
    """Every kind of node item off the wire: by the one-pass decode, or
    (*oracle*) by ``reference.n2s`` over the oracle's whole-tree parse."""
    factory = NodeFactory()
    message = XRPCRequest(module="m", method="f", arity=1)
    message.add_call([[
        parse_document(SOURCE).root_element, parse_document(SOURCE),
        factory.attribute("k", "v"), factory.text("t"),
        factory.comment("c"), factory.processing_instruction("p", "d")]])
    text = build_request(message)
    if oracle:
        [items] = reference_sequences(text)
    else:
        [[items]] = parse_request(text).calls
    return items


def trees() -> dict[str, list[Node]]:
    constructed = run('<a b="1">{attribute k {"v"}, <c/>, "text", '
                      'comment {"c"}, processing-instruction p {"d"}}</a>')
    return {
        "expat parser": [parse_document(SOURCE)],
        "python parser": [reference.parse_document(SOURCE)],
        "NodeFactory": [factory_tree()],
        "copy_tree": [copy_tree(parse_document(SOURCE))],
        "element constructor": list(constructed),
        "message decoder": decoded_items(),
        "message decoder, tree walk": decoded_items(oracle=True),
    }


def all_nodes(roots: list[Node]) -> list[Node]:
    found: list[Node] = []
    for root in roots:
        for node in root.descendants(include_self=True):
            found.append(node)
            found.extend(node.attributes)
    return found


def slots_of(cls: type) -> list[str]:
    return [name for base in cls.__mro__
            for name in getattr(base, "__slots__", ())]


def test_no_node_class_has_a_dict():
    for cls in NODE_CLASSES:
        assert "__slots__" in vars(cls), cls
        assert "__dict__" not in dir(cls), cls


@pytest.mark.parametrize("origin", list(trees()))
def test_every_slot_of_every_node_is_initialised(origin):
    nodes = all_nodes(trees()[origin])
    assert {type(node) for node in nodes} >= {ElementNode, TextNode}
    for node in nodes:
        for slot in slots_of(type(node)):
            getattr(node, slot)     # AttributeError if a creator forgot it


def test_all_six_kinds_are_covered():
    for origin in ("expat parser", "python parser", "copy_tree",
                   "message decoder"):
        kinds = {type(node) for node in all_nodes(trees()[origin])}
        assert kinds == set(NODE_CLASSES[1:]), origin


@pytest.mark.parametrize("origin", list(trees()))
def test_undeclared_attributes_cannot_be_set(origin):
    for node in all_nodes(trees()[origin]):
        with pytest.raises(AttributeError):
            node.convenience = 1
        assert not hasattr(node, "__dict__")
