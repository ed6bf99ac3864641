"""A Green-Marl-like declarative layer (the paper's Section 4.3 analog).

The paper writes all of its algorithm listings in Green-Marl::

    foreach(n: G.nodes)
      foreach(t: n.inNbrs)
        n.PR_nxt += t.PR / t.degree();

and extends the Green-Marl compiler to emit PGX.D applications.  The full
compiler is explicitly out of the paper's scope; this module reproduces the
*lowering* it performs for neighborhood-iterating algorithms: a small
expression AST plus two statement forms that compile to engine jobs.

The interesting transformation is the one the example above needs: the
neighbor-side expression ``t.PR / t.degree()`` touches *two* remote
properties, but a single communication step ships one value per edge.  The
compiler therefore materializes the expression into a temporary property on
the owners (a local node kernel) and ships the temporary — exactly the
pattern the hand-written PGX.D PageRank uses.

Example::

    from repro.dsl import Procedure, N, NBR, W

    pr_step = Procedure("pr_step")
    pr_step.foreach_nodes(tmp=N("pr") / N("out_degree"), acc=0.0)
    pr_step.foreach_in_nbrs(reduce_into="acc", op=ReduceOp.SUM,
                            expr=NBR("tmp"))
    pr_step.run(cluster, dg)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core.engine import DistributedGraph, LocalView, PgxdCluster
from .core.job import EdgeMapJob, Job, NodeKernelJob
from .core.properties import ReduceOp
from .core.tasks import EdgeMapSpec


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


class Expr:
    """Base of the tiny expression language."""

    def _wrap(self, other) -> "Expr":
        if isinstance(other, Expr):
            return other
        return Const(float(other))

    def __add__(self, other):
        return BinOp("+", self, self._wrap(other))

    def __radd__(self, other):
        return BinOp("+", self._wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, self._wrap(other))

    def __rsub__(self, other):
        return BinOp("-", self._wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, self._wrap(other))

    def __rmul__(self, other):
        return BinOp("*", self._wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, self._wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", self._wrap(other), self)

    def props(self) -> set[str]:
        """Names of node properties the expression reads."""
        raise NotImplementedError

    def uses_weight(self) -> bool:
        raise NotImplementedError

    def evaluate(self, lookup, weights: Optional[np.ndarray]) -> np.ndarray:
        """Vectorized evaluation; ``lookup(name)`` yields property arrays."""
        raise NotImplementedError

    def ops(self) -> int:
        """Arithmetic node count (cost-model hint)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Prop(Expr):
    """A node property reference.  Whether it refers to the current node or
    the neighbor is decided by the statement using it (N(...) vs NBR(...))."""

    name: str

    def props(self):
        return {self.name}

    def uses_weight(self):
        return False

    def evaluate(self, lookup, weights):
        return lookup(self.name)

    def ops(self):
        return 1


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def props(self):
        return set()

    def uses_weight(self):
        return False

    def evaluate(self, lookup, weights):
        return self.value

    def ops(self):
        return 0


@dataclass(frozen=True)
class EdgeWeight(Expr):
    """The weight of the traversed edge (Green-Marl's ``e.weight``)."""

    def props(self):
        return set()

    def uses_weight(self):
        return True

    def evaluate(self, lookup, weights):
        if weights is None:
            raise ValueError("expression uses the edge weight but the graph "
                             "is unweighted")
        return weights

    def ops(self):
        return 1


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def props(self):
        return self.left.props() | self.right.props()

    def uses_weight(self):
        return self.left.uses_weight() or self.right.uses_weight()

    def evaluate(self, lookup, weights):
        a = self.left.evaluate(lookup, weights)
        b = self.right.evaluate(lookup, weights)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(np.asarray(b) != 0, a / np.where(b == 0, 1, b), 0.0)
            return out
        raise AssertionError(self.op)

    def ops(self):
        return 1 + self.left.ops() + self.right.ops()


def N(name: str) -> Prop:
    """Property of the current node (Green-Marl's ``n.prop``)."""
    return Prop(name)


def NBR(name: str) -> Prop:
    """Property of the iterated neighbor (Green-Marl's ``t.prop``)."""
    return Prop(name)


W = EdgeWeight()


# ---------------------------------------------------------------------------
# Statements and the procedure builder
# ---------------------------------------------------------------------------

_tmp_counter = [0]


def _fresh_tmp() -> str:
    _tmp_counter[0] += 1
    return f"__gm_tmp{_tmp_counter[0]}"


@dataclass
class _NodeStmt:
    assignments: dict[str, Union[Expr, float]]


@dataclass
class _NbrStmt:
    direction: str              # "pull" (inNbrs) / "push" (outNbrs)
    reduce_into: str
    op: ReduceOp
    expr: Expr
    active: Optional[str]
    reverse: bool


class Procedure:
    """An ordered list of foreach statements, compiled to engine jobs.

    Each ``run()`` executes the statements once (one "iteration" of the
    enclosing sequential loop, which stays in plain Python as in Figure 2).
    """

    def __init__(self, name: str):
        self.name = name
        self._stmts: list[Union[_NodeStmt, _NbrStmt]] = []

    # -- statement builders -------------------------------------------------

    def foreach_nodes(self, **assignments) -> "Procedure":
        """``foreach(n: G.nodes) n.key = expr;`` for every keyword."""
        self._stmts.append(_NodeStmt(assignments))
        return self

    def foreach_in_nbrs(self, reduce_into: str, op: ReduceOp, expr: Expr,
                        active: Optional[str] = None,
                        reverse: bool = False) -> "Procedure":
        """``foreach(n) foreach(t: n.inNbrs) n.target op= expr(t, e);``"""
        self._stmts.append(_NbrStmt("pull", reduce_into, op, expr, active,
                                    reverse))
        return self

    def foreach_out_nbrs(self, reduce_into: str, op: ReduceOp, expr: Expr,
                         active: Optional[str] = None,
                         reverse: bool = False) -> "Procedure":
        """``foreach(n) foreach(t: n.outNbrs) t.target op= expr(n, e);``"""
        self._stmts.append(_NbrStmt("push", reduce_into, op, expr, active,
                                    reverse))
        return self

    # -- compilation -----------------------------------------------------------

    def compile(self, dg: DistributedGraph) -> list[Job]:
        """Lower the statements to engine jobs, materializing temporaries for
        multi-property remote expressions (the Green-Marl compiler's move)."""
        jobs: list[Job] = []
        for stmt in self._stmts:
            if isinstance(stmt, _NodeStmt):
                jobs.append(self._compile_node_stmt(dg, stmt))
            else:
                jobs.extend(self._compile_nbr_stmt(dg, stmt))
        return jobs

    def _compile_node_stmt(self, dg: DistributedGraph,
                           stmt: _NodeStmt) -> NodeKernelJob:
        assignments = {
            k: (v if isinstance(v, Expr) else Const(float(v)))
            for k, v in stmt.assignments.items()
        }
        for target in assignments:
            if not dg.has_property(target):
                dg.add_property(target, init=0.0)
        reads = tuple(sorted(set().union(*(e.props() for e in assignments.values()))
                             if assignments else set()))
        total_ops = sum(e.ops() + 1 for e in assignments.values())

        def kernel(view: LocalView, lo: int, hi: int,
                   assignments=assignments) -> None:
            def lookup(name):
                return view[name][lo:hi]

            for target, expr in assignments.items():
                view[target][lo:hi] = expr.evaluate(lookup, None)

        return NodeKernelJob(
            name=f"{self.name}_node", kernel=kernel, reads=reads,
            writes=tuple((t, ReduceOp.OVERWRITE) for t in assignments),
            ops_per_node=max(2, total_ops),
            bytes_per_node=8.0 * (len(reads) + len(assignments)))

    def _compile_nbr_stmt(self, dg: DistributedGraph,
                          stmt: _NbrStmt) -> list[Job]:
        jobs: list[Job] = []
        expr = stmt.expr
        remote_props = sorted(expr.props())
        weighted = expr.uses_weight()

        if len(remote_props) == 1 and isinstance(expr, Prop):
            # Ships as-is: single property, identity transform.
            source = remote_props[0]
            transform = None
            use_weights = False
        elif len(remote_props) <= 1 and weighted:
            # Single remote property combined with the (local) edge weight:
            # the transform applies at the shipping side.
            source = remote_props[0] if remote_props else _fresh_tmp()
            if not remote_props:
                dg.add_property(source, init=0.0)

            def transform(vals, w, expr=expr, name=source):
                return expr.evaluate(lambda _: vals, w)

            use_weights = True
        else:
            # Multi-property remote expression: materialize it into a temp on
            # the owners first, then ship the temp (one value per edge).
            tmp = _fresh_tmp()
            dg.add_property(tmp, init=0.0)
            jobs.append(self._compile_node_stmt(
                dg, _NodeStmt({tmp: _StripWeight(expr)})))
            source = tmp
            if weighted:
                def transform(vals, w, expr=expr):
                    # The weight factor stays edge-side.
                    return _apply_weight_only(expr, vals, w)

                use_weights = True
            else:
                transform = None
                use_weights = False

        spec = EdgeMapSpec(direction=stmt.direction, source=source,
                           target=stmt.reduce_into, op=stmt.op,
                           transform=transform, use_weights=use_weights,
                           active=stmt.active, reverse=stmt.reverse)
        jobs.append(EdgeMapJob(name=f"{self.name}_{stmt.direction}", spec=spec))
        return jobs

    # -- execution ---------------------------------------------------------------

    def run(self, cluster: PgxdCluster, dg: DistributedGraph):
        """Compile and execute all statements once; returns merged JobStats."""
        return cluster.run_jobs(dg, self.compile(dg))


def _StripWeight(expr: Expr) -> Expr:
    """Remove edge-weight factors from an expression (they stay edge-side
    when the property part is materialized owner-side)."""
    if isinstance(expr, EdgeWeight):
        return Const(1.0)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _StripWeight(expr.left), _StripWeight(expr.right))
    return expr


def _apply_weight_only(expr: Expr, shipped: np.ndarray,
                       weights: Optional[np.ndarray]) -> np.ndarray:
    """Re-apply only the weight part of ``expr`` to the shipped temp values.

    Supported shape: a top-level ``value_expr (*|/|+|-) weight`` or
    ``weight op value_expr`` combination; anything deeper should have been
    rejected at build time.
    """
    if isinstance(expr, BinOp):
        if isinstance(expr.right, EdgeWeight):
            return BinOp(expr.op, Prop("__shipped"), EdgeWeight()).evaluate(
                lambda _: shipped, weights)
        if isinstance(expr.left, EdgeWeight):
            return BinOp(expr.op, EdgeWeight(), Prop("__shipped")).evaluate(
                lambda _: shipped, weights)
    raise ValueError(
        "edge weights may only appear as a top-level factor/term when "
        "combined with multiple neighbor properties")
