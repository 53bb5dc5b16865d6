"""Per-function control-flow graph builder.

Each CFG node holds one statement (simulator methods are small, so
statement granularity beats basic blocks for diagnosability: a finding
can point at the exact statement on the offending path).  Branch and
loop statements become *header* nodes holding only their test/iterable;
their bodies hang off the header as successor chains.  ``return`` and
``raise`` edges go to the synthetic exit node.

The builder is deliberately conservative: ``try`` blocks connect
handlers from both the pre-body and post-body frontier (an exception may
fire anywhere inside), and unreachable code after a ``return`` is simply
dropped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
BRANCH = "branch"
LOOP = "loop"


@dataclass
class Node:
    """One CFG node: a statement, a branch/loop header, or entry/exit."""

    idx: int
    kind: str
    stmt: ast.AST | None = None
    succs: list["Node"] = field(default_factory=list)
    preds: list["Node"] = field(default_factory=list)

    def __hash__(self) -> int:
        return self.idx

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.idx == self.idx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        line = getattr(self.stmt, "lineno", "-")
        return f"<Node {self.idx} {self.kind} L{line}>"


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.entry = self._node(ENTRY)
        self.exit = self._node(EXIT)

    def _node(self, kind: str, stmt: ast.AST | None = None) -> Node:
        node = Node(idx=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        return node

    def _edge(self, src: Node, dst: Node) -> None:
        if dst not in src.succs:
            src.succs.append(dst)
            dst.preds.append(src)


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        # Stack of (loop-header, break-collector) for break/continue.
        self._loops: list[tuple[Node, list[Node]]] = []

    def build(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
        exits = self._seq(fn.body, [self.cfg.entry])
        for node in exits:
            self.cfg._edge(node, self.cfg.exit)
        return self.cfg

    # ``preds`` is the incoming frontier; returns the outgoing frontier.
    def _seq(self, stmts: list[ast.stmt], preds: list[Node]) -> list[Node]:
        for stmt in stmts:
            if not preds:
                break  # unreachable code after return/raise/break
            preds = self._stmt(stmt, preds)
        return preds

    def _stmt(self, stmt: ast.stmt, preds: list[Node]) -> list[Node]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            header = cfg._node(BRANCH, stmt)
            for p in preds:
                cfg._edge(p, header)
            then_exits = self._seq(stmt.body, [header])
            else_exits = (
                self._seq(stmt.orelse, [header]) if stmt.orelse else [header]
            )
            return then_exits + else_exits
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            header = cfg._node(LOOP, stmt)
            for p in preds:
                cfg._edge(p, header)
            breaks: list[Node] = []
            self._loops.append((header, breaks))
            body_exits = self._seq(stmt.body, [header])
            self._loops.pop()
            for node in body_exits:
                cfg._edge(node, header)  # back edge
            after = (
                self._seq(stmt.orelse, [header]) if stmt.orelse else [header]
            )
            return after + breaks
        if isinstance(stmt, ast.Try):
            body_exits = self._seq(stmt.body, preds)
            frontier = list(preds) + body_exits
            handler_exits: list[Node] = []
            for handler in stmt.handlers:
                handler_exits += self._seq(handler.body, list(frontier))
            else_exits = (
                self._seq(stmt.orelse, body_exits)
                if stmt.orelse
                else body_exits
            )
            out = else_exits + handler_exits
            if stmt.finalbody:
                out = self._seq(stmt.finalbody, out)
            return out
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            header = cfg._node(STMT, stmt)
            for p in preds:
                cfg._edge(p, header)
            return self._seq(stmt.body, [header])
        if isinstance(stmt, ast.Match):
            header = cfg._node(BRANCH, stmt)
            for p in preds:
                cfg._edge(p, header)
            exits: list[Node] = [header]  # no case may match
            for case in stmt.cases:
                exits += self._seq(case.body, [header])
            return exits
        # Simple statement: one node.
        node = cfg._node(STMT, stmt)
        for p in preds:
            cfg._edge(p, node)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            cfg._edge(node, cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][1].append(node)
                return []
            return [node]
        if isinstance(stmt, ast.Continue):
            if self._loops:
                cfg._edge(node, self._loops[-1][0])
                return []
            return [node]
        return [node]


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the CFG of one function definition."""
    return _Builder().build(fn)

