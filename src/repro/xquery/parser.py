"""Recursive-descent parser for the XQuery subset (+ XQUF + XRPC).

The grammar follows XQuery 1.0 with the paper's extension::

    PrimaryExpr ::= ... | FunctionCall | XRPCCall | ...
    XRPCCall    ::= "execute at" "{" ExprSingle "}" "{" FunctionCall "}"

XQuery keywords are contextual, so the parser decides between keyword
constructs and path steps by lookahead on the lazily-tokenizing
:class:`~repro.xquery.lexer.Lexer`, and switches to raw character
scanning inside direct XML constructors.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Optional

from repro.xdm.atomic import AtomicValue
from repro.xdm.types import xs, type_by_name, is_known_type
from repro.xquery.lexer import Lexer, Token
from repro.xquery import xast as A

_AXES = {
    "child", "descendant", "attribute", "self", "descendant-or-self",
    "following-sibling", "following", "parent", "ancestor",
    "preceding-sibling", "preceding", "ancestor-or-self",
}

_KIND_TESTS = {
    "node", "text", "comment", "processing-instruction",
    "element", "attribute", "document-node", "schema-element",
    "schema-attribute",
}

_COMPUTED_CONSTRUCTORS = {
    "element", "attribute", "text", "comment", "document",
    "processing-instruction",
}

_GENERAL_OPS = {"=", "!=", "<", "<=", ">", ">="}
_VALUE_OPS = {"eq", "ne", "lt", "le", "gt", "ge"}
_NODE_OPS = {"is", "<<", ">>"}


def parse_main_module(source: str) -> A.QueryModule:
    """Parse a main module (prolog + query body)."""
    return _Parser(source).parse_module(expect_library=False)


def parse_library_module(source: str) -> A.QueryModule:
    """Parse a library module (``module namespace p = "uri"; ...``)."""
    return _Parser(source).parse_module(expect_library=True)


class _Parser:
    def __init__(self, source: str) -> None:
        self.lexer = Lexer(source)

    # ------------------------------------------------------------------
    # Token helpers

    def peek(self) -> Token:
        return self.lexer.peek()

    def next(self) -> Token:
        return self.lexer.next()

    def accept_symbol(self, symbol: str) -> bool:
        saved = self.lexer.save()
        token = self.lexer.next()
        if token.is_symbol(symbol):
            return True
        self.lexer.restore(saved)
        return False

    def expect_symbol(self, symbol: str) -> None:
        token = self.lexer.next()
        if not token.is_symbol(symbol):
            raise self.lexer.error(
                f"expected {symbol!r}, found {token.value!r}", token.pos)

    def accept_name(self, name: str) -> bool:
        saved = self.lexer.save()
        token = self.lexer.next()
        if token.is_name(name):
            return True
        self.lexer.restore(saved)
        return False

    def expect_name(self, name: str) -> None:
        token = self.lexer.next()
        if not token.is_name(name):
            raise self.lexer.error(
                f"expected keyword {name!r}, found {token.value!r}", token.pos)

    def expect_kind(self, kind: str) -> Token:
        token = self.lexer.next()
        if token.kind != kind:
            raise self.lexer.error(
                f"expected {kind}, found {token.value!r}", token.pos)
        return token

    def expect_eof(self) -> None:
        token = self.lexer.next()
        if token.kind != "EOF":
            raise self.lexer.error(
                f"unexpected trailing input {token.value!r}", token.pos)

    def lookahead_symbol_after_name(self) -> Optional[str]:
        """Peek the symbol token following the next (NAME) token."""
        saved = self.lexer.save()
        self.lexer.next()
        token = self.lexer.next()
        self.lexer.restore(saved)
        return token.value if token.kind == "SYMBOL" else None

    # ------------------------------------------------------------------
    # Source positions

    def _mark(self) -> int:
        """Offset of the next significant token (for AST position stamps)."""
        self.lexer.skip_trivia()
        return self.lexer.pos

    def _stamp(self, node, start: int):
        # First stamp wins: nested parses run before their wrappers, so
        # a node keeps the offset of its own first token.
        if getattr(node, "pos", 0) is None:
            node.pos = start
        return node

    # ------------------------------------------------------------------
    # Modules / prolog

    def parse_module(self, expect_library: bool) -> A.QueryModule:
        module_ns: Optional[A.NamespaceDecl] = None
        namespaces: list[A.NamespaceDecl] = []
        imports: list[A.ModuleImport] = []
        schema_imports: list[A.SchemaImport] = []
        options: list[A.OptionDecl] = []
        variables: list[A.VarDecl] = []
        functions: list[A.FunctionDecl] = []

        saved = self.lexer.save()
        token = self.peek()
        if token.is_name("xquery"):
            self.next()
            self.expect_name("version")
            self.expect_kind("STRING")
            if self.accept_name("encoding"):
                self.expect_kind("STRING")
            self.expect_symbol(";")

        if self.peek().is_name("module"):
            saved = self.lexer.save()
            self.next()
            if self.accept_name("namespace"):
                prefix = self.expect_kind("NAME").value
                self.expect_symbol("=")
                uri = self.expect_kind("STRING").value
                self.expect_symbol(";")
                module_ns = A.NamespaceDecl(prefix, uri)
            else:
                self.lexer.restore(saved)

        if expect_library and module_ns is None:
            raise self.lexer.error("expected 'module namespace' declaration")

        # Prolog declarations.
        while True:
            token = self.peek()
            if token.is_name("declare"):
                saved = self.lexer.save()
                self.next()
                if not self._parse_declare(namespaces, options, variables, functions):
                    self.lexer.restore(saved)
                    break
            elif token.is_name("import"):
                self.next()
                if self.accept_name("module"):
                    imports.append(self._parse_module_import())
                elif self.accept_name("schema"):
                    schema_imports.append(self._parse_schema_import())
                else:
                    raise self.lexer.error("expected 'module' or 'schema' after import")
            else:
                break

        body: Optional[A.Expr] = None
        if module_ns is None:
            body = self.parse_expr()
            self.expect_eof()
        else:
            self.expect_eof()

        return A.QueryModule(
            kind="library" if module_ns is not None else "main",
            module_namespace=module_ns,
            namespaces=namespaces,
            imports=imports,
            schema_imports=schema_imports,
            options=options,
            variables=variables,
            functions=functions,
            body=body,
        )

    def _parse_declare(self, namespaces, options, variables, functions) -> bool:
        """Parse one `declare ...;` having consumed 'declare'.

        Returns False if the following token does not start a recognised
        declaration (the caller then backtracks: 'declare' may be a path
        step in the query body).
        """
        token = self.peek()
        if token.is_name("namespace"):
            self.next()
            prefix = self.expect_kind("NAME").value
            self.expect_symbol("=")
            uri = self.expect_kind("STRING").value
            self.expect_symbol(";")
            namespaces.append(A.NamespaceDecl(prefix, uri))
            return True
        if token.is_name("default"):
            self.next()
            which = self.next()  # element | function
            self.expect_name("namespace")
            uri = self.expect_kind("STRING").value
            self.expect_symbol(";")
            namespaces.append(A.NamespaceDecl(f"(default {which.value})", uri))
            return True
        if token.is_name("option"):
            self.next()
            name = self.expect_kind("NAME").value
            value = self.expect_kind("STRING").value
            self.expect_symbol(";")
            options.append(A.OptionDecl(name, value))
            return True
        if token.is_name("variable"):
            self.next()
            var_token = self.expect_kind("VAR")
            seq_type = A.SequenceType.zero_or_more_items()
            if self.accept_name("as"):
                seq_type = self.parse_sequence_type()
            if self.accept_name("external"):
                decl = A.VarDecl(var_token.value, seq_type, None, external=True)
            else:
                self.expect_symbol(":=")
                value = self.parse_expr_single()
                decl = A.VarDecl(var_token.value, seq_type, value)
            variables.append(self._stamp(decl, var_token.pos))
            self.expect_symbol(";")
            return True
        if token.is_name("function") or token.is_name("updating"):
            updating = False
            if token.is_name("updating"):
                self.next()
                updating = True
            self.expect_name("function")
            functions.append(self._parse_function_decl(updating))
            return True
        if token.is_name("boundary-space"):
            self.next()
            self.next()  # preserve | strip
            self.expect_symbol(";")
            return True
        if token.is_name("ordering"):
            self.next()
            self.next()  # ordered | unordered
            self.expect_symbol(";")
            return True
        if token.is_name("copy-namespaces"):
            self.next()
            self.next()
            self.expect_symbol(",")
            self.next()
            self.expect_symbol(";")
            return True
        if token.is_name("base-uri") or token.is_name("construction"):
            self.next()
            self.next()
            self.expect_symbol(";")
            return True
        return False

    def _parse_function_decl(self, updating: bool) -> A.FunctionDecl:
        name_token = self.expect_kind("NAME")
        name = name_token.value
        self.expect_symbol("(")
        params: list[A.Param] = []
        if not self.accept_symbol(")"):
            while True:
                var = self.expect_kind("VAR").value
                seq_type = A.SequenceType.zero_or_more_items()
                if self.accept_name("as"):
                    seq_type = self.parse_sequence_type()
                params.append(A.Param(var, seq_type))
                if self.accept_symbol(")"):
                    break
                self.expect_symbol(",")
        return_type = A.SequenceType.zero_or_more_items()
        if self.accept_name("as"):
            return_type = self.parse_sequence_type()
        if self.accept_name("external"):
            body: Optional[A.Expr] = None
        else:
            self.expect_symbol("{")
            body = self.parse_expr()
            self.expect_symbol("}")
        self.expect_symbol(";")
        decl = A.FunctionDecl(name, params, return_type, body, updating=updating)
        return self._stamp(decl, name_token.pos)

    def _parse_module_import(self) -> A.ModuleImport:
        self.expect_name("namespace")
        prefix = self.expect_kind("NAME").value
        self.expect_symbol("=")
        uri = self.expect_kind("STRING").value
        locations: list[str] = []
        if self.accept_name("at"):
            locations.append(self.expect_kind("STRING").value)
            while self.accept_symbol(","):
                locations.append(self.expect_kind("STRING").value)
        self.expect_symbol(";")
        return A.ModuleImport(prefix, uri, locations)

    def _parse_schema_import(self) -> A.SchemaImport:
        prefix: Optional[str] = None
        if self.accept_name("namespace"):
            prefix = self.expect_kind("NAME").value
            self.expect_symbol("=")
        uri = self.expect_kind("STRING").value
        locations: list[str] = []
        if self.accept_name("at"):
            locations.append(self.expect_kind("STRING").value)
            while self.accept_symbol(","):
                locations.append(self.expect_kind("STRING").value)
        self.expect_symbol(";")
        return A.SchemaImport(prefix, uri, locations)

    # ------------------------------------------------------------------
    # Expressions

    def parse_expr(self) -> A.Expr:
        start = self._mark()
        first = self.parse_expr_single()
        if not self.accept_symbol(","):
            return first
        items = [first, self.parse_expr_single()]
        while self.accept_symbol(","):
            items.append(self.parse_expr_single())
        return self._stamp(A.SequenceExpr(items), start)

    def parse_expr_single(self) -> A.Expr:
        start = self._mark()
        return self._stamp(self._parse_expr_single_inner(), start)

    def _parse_expr_single_inner(self) -> A.Expr:
        token = self.peek()
        if token.kind == "NAME":
            value = token.value
            if value in ("for", "let") and self._next_is_var_after(1):
                return self._parse_flwor()
            if value in ("some", "every") and self._next_is_var_after(1):
                return self._parse_quantified()
            if value == "if" and self.lookahead_symbol_after_name() == "(":
                return self._parse_if()
            if value == "typeswitch" and self.lookahead_symbol_after_name() == "(":
                return self._parse_typeswitch()
            if value == "insert" and self._next_name_is(("node", "nodes")):
                return self._parse_insert()
            if value == "delete" and self._next_name_is(("node", "nodes")):
                return self._parse_delete()
            if value == "replace" and self._next_name_is(("node", "value")):
                return self._parse_replace()
            if value == "rename" and self._next_name_is(("node",)):
                return self._parse_rename()
        return self.parse_or_expr()

    def _next_is_var_after(self, skip: int) -> bool:
        saved = self.lexer.save()
        for _ in range(skip):
            self.lexer.next()
        token = self.lexer.next()
        self.lexer.restore(saved)
        return token.kind == "VAR"

    def _next_name_is(self, names: tuple[str, ...]) -> bool:
        saved = self.lexer.save()
        self.lexer.next()
        token = self.lexer.next()
        self.lexer.restore(saved)
        return token.kind == "NAME" and token.value in names

    # -- FLWOR ---------------------------------------------------------

    def _parse_flwor(self) -> A.Expr:
        clauses: list[A.FLWORClause] = []
        while True:
            token = self.peek()
            if token.is_name("for") and self._next_is_var_after(1):
                self.next()
                while True:
                    var = self.expect_kind("VAR").value
                    position_var = None
                    if self.accept_name("at"):
                        position_var = self.expect_kind("VAR").value
                    if self.accept_name("as"):
                        self.parse_sequence_type()  # accepted, not enforced here
                    self.expect_name("in")
                    source = self.parse_expr_single()
                    clauses.append(A.ForClause(var, position_var, source))
                    if not self.accept_symbol(","):
                        break
            elif token.is_name("let") and self._next_is_var_after(1):
                self.next()
                while True:
                    var = self.expect_kind("VAR").value
                    if self.accept_name("as"):
                        self.parse_sequence_type()
                    self.expect_symbol(":=")
                    value = self.parse_expr_single()
                    clauses.append(A.LetClause(var, value))
                    if not self.accept_symbol(","):
                        break
            else:
                break

        if self.peek().is_name("where"):
            self.next()
            clauses.append(A.WhereClause(self.parse_expr_single()))

        stable = False
        if self.peek().is_name("stable"):
            self.next()
            stable = True
        if self.peek().is_name("order"):
            self.next()
            self.expect_name("by")
            specs = [self._parse_order_spec()]
            while self.accept_symbol(","):
                specs.append(self._parse_order_spec())
            clauses.append(A.OrderByClause(specs, stable=stable))

        self.expect_name("return")
        return_expr = self.parse_expr_single()
        return A.FLWOR(clauses, return_expr)

    def _parse_order_spec(self) -> A.OrderSpec:
        key = self.parse_expr_single()
        descending = False
        if self.peek().is_name("ascending"):
            self.next()
        elif self.peek().is_name("descending"):
            self.next()
            descending = True
        empty_least = True
        if self.peek().is_name("empty"):
            self.next()
            which = self.next()
            empty_least = which.value == "least"
        return A.OrderSpec(key, descending, empty_least)

    def _parse_quantified(self) -> A.Expr:
        kind = self.next().value  # some | every
        bindings: list[tuple[str, A.Expr]] = []
        while True:
            var = self.expect_kind("VAR").value
            if self.accept_name("as"):
                self.parse_sequence_type()
            self.expect_name("in")
            source = self.parse_expr_single()
            bindings.append((var, source))
            if not self.accept_symbol(","):
                break
        self.expect_name("satisfies")
        satisfies = self.parse_expr_single()
        return A.Quantified(kind, bindings, satisfies)

    def _parse_if(self) -> A.Expr:
        self.expect_name("if")
        self.expect_symbol("(")
        condition = self.parse_expr()
        self.expect_symbol(")")
        self.expect_name("then")
        then_branch = self.parse_expr_single()
        self.expect_name("else")
        else_branch = self.parse_expr_single()
        return A.IfExpr(condition, then_branch, else_branch)

    def _parse_typeswitch(self) -> A.Expr:
        self.expect_name("typeswitch")
        self.expect_symbol("(")
        operand = self.parse_expr()
        self.expect_symbol(")")
        cases: list[A.TypeSwitchCase] = []
        while self.peek().is_name("case"):
            self.next()
            var = None
            token = self.peek()
            if token.kind == "VAR":
                var = self.next().value
                self.expect_name("as")
            seq_type = self.parse_sequence_type()
            self.expect_name("return")
            body = self.parse_expr_single()
            cases.append(A.TypeSwitchCase(var, seq_type, body))
        if not cases:
            raise self.lexer.error("typeswitch requires at least one case")
        self.expect_name("default")
        default_var = None
        if self.peek().kind == "VAR":
            default_var = self.next().value
        self.expect_name("return")
        default_body = self.parse_expr_single()
        default = A.TypeSwitchCase(default_var, None, default_body)
        return A.TypeSwitch(operand, cases, default)

    # -- XQUF ------------------------------------------------------------

    def _parse_insert(self) -> A.Expr:
        self.expect_name("insert")
        self.next()  # node | nodes
        source = self.parse_expr_single()
        position = "into"
        if self.accept_name("as"):
            which = self.next()  # first | last
            position = which.value
            self.expect_name("into")
        elif self.accept_name("into"):
            position = "into"
        elif self.accept_name("before"):
            position = "before"
        elif self.accept_name("after"):
            position = "after"
        else:
            raise self.lexer.error("expected into/before/after in insert expression")
        target = self.parse_expr_single()
        return A.InsertExpr(source, target, position)

    def _parse_delete(self) -> A.Expr:
        self.expect_name("delete")
        self.next()  # node | nodes
        return A.DeleteExpr(self.parse_expr_single())

    def _parse_replace(self) -> A.Expr:
        self.expect_name("replace")
        value_of = False
        if self.accept_name("value"):
            self.expect_name("of")
            value_of = True
        self.expect_name("node")
        target = self.parse_expr_single()
        self.expect_name("with")
        replacement = self.parse_expr_single()
        return A.ReplaceExpr(target, replacement, value_of)

    def _parse_rename(self) -> A.Expr:
        self.expect_name("rename")
        self.expect_name("node")
        target = self.parse_expr_single()
        self.expect_name("as")
        new_name = self.parse_expr_single()
        return A.RenameExpr(target, new_name)

    # -- XRPC --------------------------------------------------------------

    def _parse_execute_at(self) -> A.Expr:
        start = self._mark()
        self.expect_name("execute")
        self.expect_name("at")
        self.expect_symbol("{")
        destination = self.parse_expr_single()
        self.expect_symbol("}")
        self.expect_symbol("{")
        call = self._parse_function_call_expr()
        self.expect_symbol("}")
        return self._stamp(A.ExecuteAt(destination, call), start)

    def _parse_function_call_expr(self) -> A.FunctionCall:
        name_token = self.expect_kind("NAME")
        self.expect_symbol("(")
        args: list[A.Expr] = []
        if not self.accept_symbol(")"):
            while True:
                args.append(self.parse_expr_single())
                if self.accept_symbol(")"):
                    break
                self.expect_symbol(",")
        call = A.FunctionCall(name_token.value, args)
        return self._stamp(call, name_token.pos)

    # -- binary operator ladder -------------------------------------------

    def parse_or_expr(self) -> A.Expr:
        left = self.parse_and_expr()
        while self.peek().is_name("or"):
            self.next()
            left = A.Logical("or", left, self.parse_and_expr())
        return left

    def parse_and_expr(self) -> A.Expr:
        left = self.parse_comparison_expr()
        while self.peek().is_name("and"):
            self.next()
            left = A.Logical("and", left, self.parse_comparison_expr())
        return left

    def parse_comparison_expr(self) -> A.Expr:
        left = self.parse_range_expr()
        token = self.peek()
        if token.kind == "SYMBOL" and token.value in _GENERAL_OPS:
            self.next()
            return A.Comparison("general", token.value, left, self.parse_range_expr())
        if token.kind == "SYMBOL" and token.value in _NODE_OPS:
            self.next()
            return A.Comparison("node", token.value, left, self.parse_range_expr())
        if token.kind == "NAME" and token.value in _VALUE_OPS:
            self.next()
            return A.Comparison("value", token.value, left, self.parse_range_expr())
        if token.kind == "NAME" and token.value in _NODE_OPS:
            self.next()
            return A.Comparison("node", token.value, left, self.parse_range_expr())
        return left

    def parse_range_expr(self) -> A.Expr:
        left = self.parse_additive_expr()
        if self.peek().is_name("to"):
            self.next()
            return A.RangeExpr(left, self.parse_additive_expr())
        return left

    def parse_additive_expr(self) -> A.Expr:
        left = self.parse_multiplicative_expr()
        while True:
            token = self.peek()
            if token.is_symbol("+") or token.is_symbol("-"):
                self.next()
                left = A.Arithmetic(token.value, left, self.parse_multiplicative_expr())
            else:
                return left

    def parse_multiplicative_expr(self) -> A.Expr:
        left = self.parse_union_expr()
        while True:
            token = self.peek()
            if token.is_symbol("*"):
                self.next()
                left = A.Arithmetic("*", left, self.parse_union_expr())
            elif token.kind == "NAME" and token.value in ("div", "idiv", "mod"):
                self.next()
                left = A.Arithmetic(token.value, left, self.parse_union_expr())
            else:
                return left

    def parse_union_expr(self) -> A.Expr:
        left = self.parse_intersect_expr()
        while True:
            token = self.peek()
            if token.is_symbol("|") or token.is_name("union"):
                self.next()
                left = A.SetOp("union", left, self.parse_intersect_expr())
            else:
                return left

    def parse_intersect_expr(self) -> A.Expr:
        left = self.parse_instanceof_expr()
        while True:
            token = self.peek()
            if token.kind == "NAME" and token.value in ("intersect", "except"):
                self.next()
                left = A.SetOp(token.value, left, self.parse_instanceof_expr())
            else:
                return left

    def parse_instanceof_expr(self) -> A.Expr:
        left = self.parse_treat_expr()
        if self.peek().is_name("instance"):
            self.next()
            self.expect_name("of")
            return A.InstanceOf(left, self.parse_sequence_type())
        return left

    def parse_treat_expr(self) -> A.Expr:
        left = self.parse_castable_expr()
        if self.peek().is_name("treat"):
            self.next()
            self.expect_name("as")
            return A.TreatAs(left, self.parse_sequence_type())
        return left

    def parse_castable_expr(self) -> A.Expr:
        left = self.parse_cast_expr()
        if self.peek().is_name("castable"):
            self.next()
            self.expect_name("as")
            type_name, allow_empty = self._parse_single_type()
            return A.CastableExpr(left, type_name, allow_empty)
        return left

    def parse_cast_expr(self) -> A.Expr:
        left = self.parse_unary_expr()
        if self.peek().is_name("cast"):
            self.next()
            self.expect_name("as")
            type_name, allow_empty = self._parse_single_type()
            return A.CastExpr(left, type_name, allow_empty)
        return left

    def _parse_single_type(self) -> tuple[str, bool]:
        name = self.expect_kind("NAME").value
        allow_empty = self.accept_symbol("?")
        return name, allow_empty

    def parse_unary_expr(self) -> A.Expr:
        token = self.peek()
        if token.is_symbol("-") or token.is_symbol("+"):
            self.next()
            return A.Unary(token.value, self.parse_unary_expr())
        return self.parse_path_expr()

    # -- paths ---------------------------------------------------------------

    def parse_path_expr(self) -> A.Expr:
        token = self.peek()
        if token.is_symbol("/"):
            self.next()
            if self._starts_step():
                steps = self._parse_relative_steps()
                return A.PathExpr(None, steps, absolute="root")
            return A.PathExpr(None, [], absolute="root")
        if token.is_symbol("//"):
            self.next()
            steps = self._parse_relative_steps()
            return A.PathExpr(None, steps, absolute="root-descendant")
        return self._parse_relative_path()

    def _starts_step(self) -> bool:
        token = self.peek()
        if token.kind in ("NAME", "VAR"):
            return True
        if token.kind == "SYMBOL" and token.value in ("@", "*", "..", ".", "("):
            return True
        return False

    def _parse_relative_steps(self) -> list:
        """Steps of an absolute path (after the leading ``/`` or ``//``)."""
        steps: list = list(self._parse_step_as_axis())
        self._parse_more_steps(steps)
        return steps

    def _parse_more_steps(self, steps: list) -> None:
        """Consume ``/ step`` and ``// step`` continuations onto *steps*."""
        while True:
            token = self.peek()
            if token.is_symbol("/"):
                self.next()
                steps.extend(self._parse_step_as_axis())
            elif token.is_symbol("//"):
                self.next()
                steps.append(A.AxisStep("descendant-or-self",
                                        A.KindTest("node")))
                steps.extend(self._parse_step_as_axis())
            else:
                break

    def _parse_relative_path(self) -> A.Expr:
        first = self._parse_step()
        if not (self.peek().is_symbol("/") or self.peek().is_symbol("//")):
            if isinstance(first, A.AxisStep):
                return A.PathExpr(None, [first])
            return first
        steps: list[A.AxisStep] = []
        if isinstance(first, A.AxisStep):
            start: Optional[A.Expr] = None
            steps.append(first)
        else:
            start = first
        self._parse_more_steps(steps)
        return A.PathExpr(start, steps, absolute="none")

    def _parse_step_as_axis(self) -> list:
        """A non-initial step: an axis step, or a filter/primary expression
        evaluated once per context node (general StepExpr semantics)."""
        step = self._parse_step()
        return [step]

    def _parse_step(self):
        """Returns an AxisStep (for axis steps) or an Expr (filter expr)."""
        start = self._mark()
        return self._stamp(self._parse_step_inner(), start)

    def _parse_step_inner(self):
        token = self.peek()

        if token.is_symbol(".."):
            self.next()
            return A.AxisStep("parent", A.KindTest("node"),
                              self._parse_predicates())
        if token.is_symbol("@"):
            self.next()
            node_test = self._parse_node_test()
            return A.AxisStep("attribute", node_test, self._parse_predicates())
        if token.kind == "NAME" and token.value in _AXES:
            saved = self.lexer.save()
            self.next()
            if self.lexer.raw_startswith("::"):
                self.lexer.raw_advance(2)
                node_test = self._parse_node_test()
                return A.AxisStep(token.value, node_test, self._parse_predicates())
            self.lexer.restore(saved)
        if token.kind == "NAME" and token.value.split(":")[0] in _KIND_TESTS \
                and self.lookahead_symbol_after_name() == "(" \
                and token.value in _KIND_TESTS:
            node_test = self._parse_node_test()
            axis = "attribute" if node_test.kind == "attribute" else "child"
            return A.AxisStep(axis, node_test, self._parse_predicates())
        if token.is_symbol("*"):
            node_test = self._parse_node_test()
            return A.AxisStep("child", node_test, self._parse_predicates())
        if token.kind == "NAME" and self.lookahead_symbol_after_name() != "(":
            if not self._looks_like_keyword_primary():
                name = self.next().value
                return A.AxisStep("child", _name_test_from(name),
                                  self._parse_predicates())

        # Otherwise: a primary expression, possibly with predicates.
        primary = self.parse_primary_expr()
        predicates = self._parse_predicates()
        if predicates:
            return A.FilterExpr(primary, predicates)
        return primary

    def _looks_like_keyword_primary(self) -> bool:
        """Detect keyword-led primary expressions in step position.

        Distinguishes ``text { ... }`` (computed constructor) and
        ``ordered { ... }`` from plain child-axis name tests named
        ``text`` / ``ordered``.
        """
        token = self.peek()
        if token.kind != "NAME":
            return False
        keyword = token.value
        simple_brace = _COMPUTED_CONSTRUCTORS | {"ordered", "unordered", "validate"}
        after = self.lookahead_symbol_after_name()
        if keyword in simple_brace and after == "{":
            return True
        if keyword == "execute" and self._next_name_is(("at",)):
            return True
        if keyword in ("element", "attribute", "processing-instruction"):
            saved = self.lexer.save()
            self.lexer.next()
            second = self.lexer.next()
            third = self.lexer.next()
            self.lexer.restore(saved)
            if second.kind == "NAME" and third.is_symbol("{"):
                return True
        return False

    def _parse_node_test(self) -> A.NodeTest:
        token = self.peek()
        if token.is_symbol("*"):
            self.next()
            # '*:local' — wildcard prefix with a fixed local name.
            if self.lexer.raw_peek() == ":" and self.lexer.raw_peek(1) not in (":", ""):
                self.lexer.raw_advance()
                local = self.lexer._read_qname()
                return A.NameTest("*", local)
            return A.NameTest(None, "*")
        name_token = self.expect_kind("NAME")
        name = name_token.value
        if name in _KIND_TESTS and self.peek().is_symbol("("):
            self.next()
            argument: Optional[str] = None
            inner = self.peek()
            if inner.kind == "NAME":
                argument = self.next().value
            elif inner.kind == "STRING":
                argument = self.next().value
            elif inner.is_symbol("*"):
                self.next()
                argument = None
            self.expect_symbol(")")
            kind = "document" if name == "document-node" else name
            if name == "schema-element":
                kind = "element"
            if name == "schema-attribute":
                kind = "attribute"
            return A.KindTest(kind, argument)
        return _name_test_from(name)

    def _parse_predicates(self) -> list[A.Expr]:
        predicates: list[A.Expr] = []
        while self.accept_symbol("["):
            predicates.append(self.parse_expr())
            self.expect_symbol("]")
        return predicates

    # -- primary --------------------------------------------------------------

    def parse_primary_expr(self) -> A.Expr:
        start = self._mark()
        return self._stamp(self._parse_primary_expr_inner(), start)

    def _parse_primary_expr_inner(self) -> A.Expr:
        token = self.peek()

        if token.kind == "INTEGER":
            self.next()
            return A.Literal(AtomicValue(int(token.value), xs.integer))
        if token.kind == "DECIMAL":
            self.next()
            return A.Literal(AtomicValue(Decimal(token.value), xs.decimal))
        if token.kind == "DOUBLE":
            self.next()
            return A.Literal(AtomicValue(float(token.value), xs.double))
        if token.kind == "STRING":
            self.next()
            return A.Literal(AtomicValue(token.value, xs.string))
        if token.kind == "VAR":
            self.next()
            return A.VarRef(token.value)
        if token.is_symbol("("):
            self.next()
            if self.accept_symbol(")"):
                return A.SequenceExpr([])
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
        if token.is_symbol("."):
            self.next()
            return A.ContextItem()
        if token.is_symbol("<"):
            return self._parse_direct_constructor()
        if token.kind == "NAME":
            value = token.value
            if value == "execute" and self._next_name_is(("at",)):
                # XRPCCall is a PrimaryExpr per the paper's grammar, so
                # it composes with comparisons, arithmetic, paths, ...
                return self._parse_execute_at()
            if value in ("ordered", "unordered") \
                    and self.lookahead_symbol_after_name() == "{":
                self.next()
                self.expect_symbol("{")
                expr = self.parse_expr()
                self.expect_symbol("}")
                return expr
            if value == "validate" and self.lookahead_symbol_after_name() == "{":
                self.next()
                self.expect_symbol("{")
                expr = self.parse_expr()
                self.expect_symbol("}")
                return expr
            computed = self._try_parse_computed_constructor()
            if computed is not None:
                return computed
            if self.lookahead_symbol_after_name() == "(":
                return self._parse_function_call_expr()
        raise self.lexer.error(
            f"unexpected token {token.value!r} in expression", token.pos)

    def _try_parse_computed_constructor(self) -> Optional[A.Expr]:
        token = self.peek()
        if token.kind != "NAME" or token.value not in _COMPUTED_CONSTRUCTORS:
            return None
        saved = self.lexer.save()
        keyword = self.next().value
        name: Optional[str | A.Expr] = None

        if keyword in ("element", "attribute", "processing-instruction"):
            after = self.peek()
            if after.kind == "NAME":
                name = self.next().value
            elif after.is_symbol("{"):
                self.next()
                name = self.parse_expr()
                self.expect_symbol("}")
            else:
                self.lexer.restore(saved)
                return None

        if not self.peek().is_symbol("{"):
            self.lexer.restore(saved)
            return None
        self.next()
        content: Optional[A.Expr] = None
        if not self.peek().is_symbol("}"):
            content = self.parse_expr()
        self.expect_symbol("}")

        if keyword == "element":
            return A.ComputedElement(name, content)
        if keyword == "attribute":
            return A.ComputedAttribute(name, content)
        if keyword == "text":
            return A.ComputedText(content)
        if keyword == "comment":
            return A.ComputedComment(content)
        if keyword == "document":
            return A.ComputedDocument(content)
        return A.ComputedPI(name if name is not None else "", content)

    # -- direct constructors -----------------------------------------------

    def _parse_direct_constructor(self) -> A.Expr:
        """Parse ``<name attr="...">content</name>`` taking raw control."""
        lexer = self.lexer
        self.expect_symbol("<")
        # Name must follow immediately (no trivia skip distinction needed:
        # in primary position '<' always begins a constructor).
        name = lexer._read_qname()

        attributes: list[tuple[str, list[A.ContentPart]]] = []
        while True:
            self._skip_raw_whitespace()
            if lexer.raw_startswith("/>") or lexer.raw_startswith(">"):
                break
            attr_name = lexer._read_qname()
            self._skip_raw_whitespace()
            if lexer.raw_peek() != "=":
                raise lexer.error("expected '=' in attribute")
            lexer.raw_advance()
            self._skip_raw_whitespace()
            quote = lexer.raw_peek()
            if quote not in ("'", '"'):
                raise lexer.error("attribute value must be quoted")
            lexer.raw_advance()
            attributes.append((attr_name, self._parse_attr_value(quote)))

        if lexer.raw_startswith("/>"):
            lexer.raw_advance(2)
            return A.DirectElement(name, attributes, [])
        lexer.raw_advance(1)  # consume '>'

        content = self._parse_constructor_content(name)
        return A.DirectElement(name, attributes, content)

    def _skip_raw_whitespace(self) -> None:
        while self.lexer.raw_peek() in (" ", "\t", "\r", "\n") and self.lexer.raw_peek():
            self.lexer.raw_advance()

    def _parse_attr_value(self, quote: str) -> list[A.ContentPart]:
        lexer = self.lexer
        parts: list[A.ContentPart] = []
        buffer: list[str] = []
        while True:
            ch = lexer.raw_peek()
            if not ch:
                raise lexer.error("unterminated attribute value")
            if ch == quote:
                if lexer.raw_peek(1) == quote:
                    buffer.append(quote)
                    lexer.raw_advance(2)
                    continue
                lexer.raw_advance()
                break
            if ch == "{":
                if lexer.raw_peek(1) == "{":
                    buffer.append("{")
                    lexer.raw_advance(2)
                    continue
                lexer.raw_advance()
                if buffer:
                    parts.append("".join(buffer))
                    buffer.clear()
                parts.append(self.parse_expr())
                self.expect_symbol("}")
                continue
            if ch == "}":
                if lexer.raw_peek(1) == "}":
                    buffer.append("}")
                    lexer.raw_advance(2)
                    continue
                raise lexer.error("'}' must be escaped as '}}' in attribute value")
            if ch == "&":
                buffer.append(lexer._read_entity())
                continue
            buffer.append(ch)
            lexer.raw_advance()
        if buffer:
            parts.append("".join(buffer))
        return parts

    def _parse_constructor_content(self, name: str) -> list[A.ContentPart]:
        lexer = self.lexer
        parts: list[A.ContentPart] = []
        buffer: list[str] = []

        def flush(boundary: bool) -> None:
            """Emit buffered text; drop whitespace-only boundary text."""
            if not buffer:
                return
            text = "".join(buffer)
            buffer.clear()
            if boundary and not text.strip():
                return
            parts.append(text)

        while True:
            ch = lexer.raw_peek()
            if not ch:
                raise lexer.error(f"unterminated element constructor <{name}>")
            if lexer.raw_startswith("</"):
                flush(boundary=True)
                lexer.raw_advance(2)
                closing = lexer._read_qname()
                if closing != name:
                    raise lexer.error(
                        f"mismatched constructor end tag </{closing}>, expected </{name}>")
                self._skip_raw_whitespace()
                if lexer.raw_peek() != ">":
                    raise lexer.error("expected '>' after end tag name")
                lexer.raw_advance()
                return parts
            if lexer.raw_startswith("<!--"):
                flush(boundary=True)
                lexer.raw_advance(4)
                comment_chars = []
                while not lexer.raw_startswith("-->"):
                    if not lexer.raw_peek():
                        raise lexer.error("unterminated comment in constructor")
                    comment_chars.append(lexer.raw_peek())
                    lexer.raw_advance()
                lexer.raw_advance(3)
                parts.append(A.ComputedComment(
                    A.Literal(AtomicValue("".join(comment_chars), xs.string))))
                continue
            if lexer.raw_startswith("<![CDATA["):
                lexer.raw_advance(9)
                while not lexer.raw_startswith("]]>"):
                    if not lexer.raw_peek():
                        raise lexer.error("unterminated CDATA in constructor")
                    buffer.append(lexer.raw_peek())
                    lexer.raw_advance()
                lexer.raw_advance(3)
                continue
            if lexer.raw_startswith("<?"):
                flush(boundary=True)
                lexer.raw_advance(2)
                target = lexer._read_qname()
                pi_chars = []
                while not lexer.raw_startswith("?>"):
                    if not lexer.raw_peek():
                        raise lexer.error("unterminated PI in constructor")
                    pi_chars.append(lexer.raw_peek())
                    lexer.raw_advance()
                lexer.raw_advance(2)
                parts.append(A.ComputedPI(
                    target,
                    A.Literal(AtomicValue("".join(pi_chars).strip(), xs.string))))
                continue
            if ch == "<":
                flush(boundary=True)
                parts.append(self._parse_direct_constructor())
                continue
            if ch == "{":
                if lexer.raw_peek(1) == "{":
                    buffer.append("{")
                    lexer.raw_advance(2)
                    continue
                flush(boundary=True)
                lexer.raw_advance()
                parts.append(self.parse_expr())
                self.expect_symbol("}")
                # After the enclosed expression the lexer may have skipped
                # trivia; that's fine — whitespace between '}' and the next
                # content is boundary whitespace anyway.
                continue
            if ch == "}":
                if lexer.raw_peek(1) == "}":
                    buffer.append("}")
                    lexer.raw_advance(2)
                    continue
                raise lexer.error("'}' must be escaped as '}}' in element content")
            if ch == "&":
                buffer.append(lexer._read_entity())
                continue
            buffer.append(ch)
            lexer.raw_advance()

    # -- sequence types ---------------------------------------------------

    def parse_sequence_type(self) -> A.SequenceType:
        token = self.peek()
        if token.is_name("empty-sequence"):
            self.next()
            self.expect_symbol("(")
            self.expect_symbol(")")
            return A.SequenceType(A.ItemType("empty"))
        item_type = self._parse_item_type()
        occurrence = ""
        after = self.peek()
        if after.kind == "SYMBOL" and after.value in ("?", "*", "+"):
            self.next()
            occurrence = after.value
        return A.SequenceType(item_type, occurrence)

    def _parse_item_type(self) -> A.ItemType:
        token = self.expect_kind("NAME")
        name = token.value
        if name == "item":
            self.expect_symbol("(")
            self.expect_symbol(")")
            return A.ItemType("item")
        if name in _KIND_TESTS and self.peek().is_symbol("("):
            self.next()
            argument: Optional[str] = None
            inner = self.peek()
            if inner.kind == "NAME":
                argument = self.next().value
                # element(name, type) — ignore the type part
                if self.accept_symbol(","):
                    self.next()
            elif inner.is_symbol("*"):
                self.next()
            self.expect_symbol(")")
            kind = "document" if name == "document-node" else name
            if name in ("schema-element", "schema-attribute"):
                kind = name.split("-")[1]
            return A.ItemType(kind, name=argument)
        if is_known_type(name):
            return A.ItemType("atomic", atomic_type=type_by_name(name))
        raise self.lexer.error(f"unknown type name {name!r}", token.pos)


def _name_test_from(name: str) -> A.NameTest:
    if name == "*":
        return A.NameTest(None, "*")
    if ":" in name:
        prefix, local = name.split(":", 1)
        if prefix == "*":
            return A.NameTest("*", local)
        return A.NameTest(prefix, local)
    return A.NameTest(None, name)
