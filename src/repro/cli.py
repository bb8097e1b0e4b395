"""Command-line XQuery runner.

Runs an XQuery (from a file or ``-e`` inline) against documents and
modules mounted from the filesystem — the single-peer face of the
library, handy for experimenting with the engine and the XRPC syntax::

    python -m repro.cli -e 'doc("db.xml")//name' --doc db.xml=films.xml
    python -m repro.cli query.xq --module film.xq --doc filmDB.xml=films.xml

Documents are mounted as ``uri=path`` (or just ``path``, using the file
name as URI); ``--module`` registers library modules so ``import
module`` resolves.  Updating queries apply their pending update list and
``--save uri=path`` writes the post-state back out.

Queries route through the unified session API
(:class:`repro.session.Database`): the loop-lifted relational plan runs
first, anything outside the lifted core falls back to the tree
interpreter.  ``--explain`` prints the plan kind, fallback reason,
compile/execute timings and the execution's counters (one line per
:mod:`repro.obs` group that moved) to stderr; ``--no-lifted`` pins the
query to the interpreter.

``check`` lints queries without executing them, through the
prepare-time static analyzer (:mod:`repro.analysis`)::

    python -m repro.cli check queries/*.xq --module film.xq
    python -m repro.cli check -e 'sum($missing)'

Semantic problems (unknown functions, unbound variables, undeclared
prefixes) print as ``file:line:col: severity [code]: message`` lines and
exit non-zero; ``--analysis`` additionally prints each query's property
summary (liftability verdict, updating-ness, site profile).

``search`` runs an SLCA keyword search over the mounted documents
through the inverted term index (:mod:`repro.search`)::

    python -m repro.cli search rare vintage --doc db.xml=films.xml
    python -m repro.cli search auction --doc db.xml=films.xml --ranked

Hits print one per line as ``uri<TAB>score<TAB>xml``; ``--ranked``
orders by descending term-frequency score, ``--limit N`` truncates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import XRPCReproError
from repro.session import Database
from repro.xml.serializer import serialize, serialize_sequence


def _split_mount(spec: str) -> tuple[str, str]:
    """Parse ``uri=path`` (or bare ``path``) mount specifications."""
    if "=" in spec:
        uri, _, path = spec.partition("=")
        return uri, path
    return Path(spec).name, spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Run an XQuery against mounted documents and modules.")
    parser.add_argument("query", nargs="?",
                        help="path to an .xq file with the main module")
    parser.add_argument("-e", "--expression",
                        help="inline query text (alternative to a file)")
    parser.add_argument("--doc", action="append", default=[],
                        metavar="URI=PATH",
                        help="mount an XML document (repeatable)")
    parser.add_argument("--module", action="append", default=[],
                        metavar="[LOCATION=]PATH",
                        help="register a library module (repeatable)")
    parser.add_argument("--var", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="bind an external string variable (repeatable)")
    parser.add_argument("--save", action="append", default=[],
                        metavar="URI=PATH",
                        help="write a (possibly updated) document back out")
    parser.add_argument("--indent", action="store_true",
                        help="pretty-print node results")
    parser.add_argument("--explain", action="store_true",
                        help="print plan kind, fallback reason, timings and "
                             "per-execution counters to stderr")
    parser.add_argument("--no-lifted", action="store_true",
                        help="skip the loop-lifted relational plan and run "
                             "the tree interpreter directly")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="deadline budget for the query; the run fails "
                             "with an error once the budget is exhausted")
    return parser


def build_check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli check",
        description="Statically analyze queries without executing them.")
    parser.add_argument("queries", nargs="*",
                        help="paths to .xq files to check")
    parser.add_argument("-e", "--expression",
                        help="inline query text (alternative to files)")
    parser.add_argument("--module", action="append", default=[],
                        metavar="[LOCATION=]PATH",
                        help="register a library module (repeatable)")
    parser.add_argument("--var", action="append", default=[],
                        metavar="NAME[=VALUE]",
                        help="treat NAME as a bound external variable "
                             "(repeatable; the value is ignored)")
    parser.add_argument("--analysis", action="store_true",
                        help="also print each query's property summary "
                             "(liftability, updating-ness, sites)")
    return parser


def build_search_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli search",
        description="SLCA keyword search over mounted documents.")
    parser.add_argument("terms", nargs="+",
                        help="search terms (conjunction of all tokens)")
    parser.add_argument("--doc", action="append", default=[],
                        metavar="URI=PATH",
                        help="mount an XML document (repeatable)")
    parser.add_argument("--ranked", action="store_true",
                        help="order hits by descending term-frequency score")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="print at most N hits")
    return parser


def search_main(argv: list[str]) -> int:
    """``repro search``: posting-list keyword search, one hit per line.

    Exit status 0 when at least one hit was found, 1 otherwise (grep
    conventions).
    """
    parser = build_search_parser()
    args = parser.parse_args(argv)
    if not args.doc:
        parser.error("mount at least one document with --doc")

    db = Database()
    for spec in args.doc:
        uri, path = _split_mount(spec)
        db.register(uri, Path(path).read_bytes())

    try:
        hits = db.search(args.terms, ranked=args.ranked, limit=args.limit)
    except XRPCReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for hit in hits:
        print(f"{hit.uri}\t{hit.score}\t{serialize(hit.node)}")
    return 0 if hits else 1


def check_main(argv: list[str]) -> int:
    """``repro check``: lint queries through the static analyzer.

    Exit status 0 when every query compiles with no error-severity
    diagnostics, 1 otherwise.  Analysis assumes the distributed setting
    (bulk dispatch available), so the liftability verdict matches what
    an :class:`~repro.rpc.XRPCPeer` would do with the query.
    """
    from repro.analysis import analyze_compiled

    parser = build_check_parser()
    args = parser.parse_args(argv)
    if not args.queries and not args.expression:
        parser.error("provide query files and/or -e EXPRESSION")

    db = Database()
    for spec in args.module:
        location, path = _split_mount(spec)
        db.register_module(Path(path).read_text(encoding="utf-8"),
                           location=location)
    bound = {spec.partition("=")[0] for spec in args.var}

    targets = [(path, None) for path in args.queries]
    if args.expression:
        targets.append(("<expression>", args.expression))

    failures = 0
    for label, source in targets:
        if source is None:
            source = Path(label).read_text(encoding="utf-8")
        try:
            compiled = db.engine.compile(source)
        except XRPCReproError as exc:
            print(f"{label}: error: {exc}")
            failures += 1
            continue
        # variables=None assumes every `declare variable ... external`
        # is bound at run time (check cannot know the caller's bindings)
        # unless --var names an explicit binding set.
        properties = analyze_compiled(
            compiled, has_dispatch=True, has_doc_resolver=True,
            variables=bound or None)
        for diagnostic in properties.diagnostics:
            print(diagnostic.render(label))
        if args.analysis:
            print(f"{label}: {properties.render()}")
        if not properties.ok:
            failures += 1
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        return check_main(argv[1:])
    if argv and argv[0] == "search":
        return search_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if bool(args.query) == bool(args.expression):
        parser.error("provide exactly one of a query file or -e EXPRESSION")
    if args.expression:
        source = args.expression
    else:
        source = Path(args.query).read_text(encoding="utf-8")

    db = Database(try_lifted=not args.no_lifted)
    for spec in args.module:
        location, path = _split_mount(spec)
        db.register_module(Path(path).read_text(encoding="utf-8"),
                           location=location)
    for spec in args.doc:
        uri, path = _split_mount(spec)
        # Bytes in: the parse frontend honours the file's XML
        # declaration/BOM instead of assuming UTF-8.
        db.register(uri, Path(path).read_bytes())

    variables = {}
    for spec in args.var:
        name, _, value = spec.partition("=")
        variables[name] = value

    try:
        prepared = db.prepare(source)
        result = prepared.execute(variables=variables or None,
                                  timeout=args.timeout)
    except XRPCReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.explain and prepared.last_explain is not None:
        print(prepared.last_explain.render(), file=sys.stderr)

    if args.indent:
        from repro.xdm.nodes import Node
        pieces = []
        for item in result:
            if isinstance(item, Node):
                pieces.append(serialize(item, indent=True))
            else:
                pieces.append(item.string_value())
        output = "\n".join(pieces)
    else:
        output = serialize_sequence(result)
    if output:
        print(output)

    for spec in args.save:
        uri, path = _split_mount(spec)
        Path(path).write_text(
            serialize(db.store.get(uri), xml_declaration=True) + "\n",
            encoding="utf-8")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
