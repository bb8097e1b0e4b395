"""Versioned document store with copy-on-access snapshots.

Models the storage layer the paper's isolation semantics need: the
current committed state of every document, a per-document commit
version, and :class:`Snapshot` views that pin the state a queryID first
saw (repeatable read, rule R'_Fr).

MonetDB/XQuery implements this with shadow paging; at our granularity a
snapshot lazily deep-copies each document on first access, and a commit
swaps the (updated) snapshot copy in as the new current version.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from repro.errors import DynamicError, TransactionError
from repro.xdm.nodes import DocumentNode, copy_tree
from repro.xml.parser import parse_document


class DocumentStore:
    """Named documents plus per-document commit versions."""

    def __init__(self) -> None:
        self._documents: dict[str, DocumentNode] = {}
        self._versions: dict[str, int] = {}

    # -- registration ------------------------------------------------------

    def register(self, uri: str,
                 content: Union[str, bytes, DocumentNode]) -> DocumentNode:
        """Load (or replace) a document; accepts XML text or a parsed tree.

        Raw content may be ``str`` or encoded ``bytes`` (decoded per the
        XML declaration/BOM).
        """
        if isinstance(content, (str, bytes)):
            document = parse_document(content, uri=uri)
        else:
            document = content
            document.uri = document.uri or uri
        self._documents[uri] = document
        self._versions[uri] = self._versions.get(uri, 0) + 1
        return document

    # -- access ------------------------------------------------------------

    def get(self, uri: str) -> DocumentNode:
        try:
            return self._documents[uri]
        except KeyError:
            raise DynamicError("FODC0002", f"document {uri!r} not in store")

    def contains(self, uri: str) -> bool:
        return uri in self._documents

    def version(self, uri: str) -> int:
        return self._versions.get(uri, 0)

    def uris(self) -> Iterator[str]:
        return iter(self._documents)

    # -- commits -------------------------------------------------------------

    def bump_version(self, uri: str) -> None:
        """Record an in-place mutation of the current document."""
        self._versions[uri] = self._versions.get(uri, 0) + 1

    def swap_in(self, uri: str, document: DocumentNode,
                expected_version: int) -> None:
        """Install a new current version (snapshot-commit path).

        Raises
        ------
        TransactionError
            If the document changed since *expected_version* (write-write
            conflict detected too late — callers should have checked at
            Prepare already).
        """
        if self.version(uri) != expected_version:
            raise TransactionError(
                f"write-write conflict on {uri!r}: version moved "
                f"{expected_version} -> {self.version(uri)}")
        document.uri = uri
        self._documents[uri] = document
        self._versions[uri] = expected_version + 1

    def snapshot(self) -> "Snapshot":
        return Snapshot(self)


class Snapshot:
    """A stable view of the store as of snapshot creation.

    Documents are deep-copied on first access; later commits to the
    store do not affect copies already taken, and the base version of
    each copy is recorded for conflict detection at Prepare.
    """

    def __init__(self, store: DocumentStore) -> None:
        self._store = store
        self._copies: dict[str, DocumentNode] = {}
        self._base_versions: dict[str, int] = {}

    def get(self, uri: str) -> DocumentNode:
        if uri not in self._copies:
            source = self._store.get(uri)
            copy = copy_tree(source)
            assert isinstance(copy, DocumentNode)
            copy.uri = uri
            self._copies[uri] = copy
            self._base_versions[uri] = self._store.version(uri)
        return self._copies[uri]

    def contains(self, uri: str) -> bool:
        return uri in self._copies or self._store.contains(uri)

    def base_version(self, uri: str) -> Optional[int]:
        return self._base_versions.get(uri)

    def touched_uris(self) -> list[str]:
        return list(self._copies)

    def has_conflicts(self, uris: list[str]) -> list[str]:
        """URIs among *uris* whose store version moved since snapshot."""
        return [
            uri for uri in uris
            if uri in self._base_versions
            and self._store.version(uri) != self._base_versions[uri]
        ]

    def commit_into_store(self, uris: list[str]) -> None:
        """Swap updated snapshot copies in as the new current versions."""
        for uri in uris:
            if uri in self._copies:
                self._store.swap_in(
                    uri, self._copies[uri], self._base_versions[uri])
