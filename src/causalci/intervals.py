"""Clipped interval arithmetic on [0,1] and radius propagation.

A :class:`ProbInterval` is ``midpoint ± halfwidth`` realized as the subset
``[mid-hw, mid+hw] ∩ [0,1]``; an infinite halfwidth realizes exactly
[0,1].  The binary operations return the *sound superset* forms

    (a ± Δa) + (b ± Δb)  ⊆  (a+b) ± (Δa+Δb)
    (a ± Δa) × (b ± Δb)  ⊆  (a·b) ± (Δa+Δb)

rather than the tight products, because the effect half-widths are defined
in terms of these forms.  Evaluating an expression tree of +, −, × over
bound intervals therefore yields midpoint = expression at the midpoints
and halfwidth = sum of the leaf halfwidths counted with multiplicity
(every occurrence of a variable contributes once).

Midpoints may leave [0,1] transiently (after a subtraction); only realized
sets are clipped.

Guarantee domain: the superset property (pointwise composed set inside
midpoint ± summed radii) is proved by induction over the operations, and
the product step needs both operand midpoints in [0,1].  It therefore
holds whenever every node of the tree evaluates, at the bound midpoints,
to a value in [0,1] — true for every probability-adjustment polynomial,
whose partial sums are estimate-weighted averages.  Outside that domain
(an intermediate midpoint above 1 whose clipped set is still non-empty)
the product rule can genuinely under-cover.  ``tests/helpers.py`` holds
the oracles that sample the pointwise semantics (``exact_range``) and
check the condition (``node_midpoints``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping


@dataclass(frozen=True)
class ProbInterval:
    midpoint: float
    halfwidth: float

    def __post_init__(self):
        if not (self.halfwidth >= 0):
            raise ValueError("halfwidth must be non-negative")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.halfwidth)

    @property
    def lower(self) -> float:
        return max(0.0, self.midpoint - self.halfwidth)

    @property
    def upper(self) -> float:
        return min(1.0, self.midpoint + self.halfwidth)

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper

    def realized(self) -> tuple[float, float] | None:
        """The clipped interval as (lower, upper), or None when empty."""
        lo, hi = self.lower, self.upper
        return None if lo > hi else (lo, hi)

    def contains(self, p: float) -> bool:
        lo, hi = self.lower, self.upper
        return lo <= p <= hi


def iv_add(a: ProbInterval, b: ProbInterval) -> ProbInterval:
    return ProbInterval(a.midpoint + b.midpoint, a.halfwidth + b.halfwidth)


def iv_sub(a: ProbInterval, b: ProbInterval) -> ProbInterval:
    return ProbInterval(a.midpoint - b.midpoint, a.halfwidth + b.halfwidth)


def iv_mul(a: ProbInterval, b: ProbInterval) -> ProbInterval:
    return ProbInterval(a.midpoint * b.midpoint, a.halfwidth + b.halfwidth)


# -- expression trees ---------------------------------------------------------

class Expr:
    """A formal arithmetic expression over named variables (+, −, ×)."""

    __slots__ = ()

    def __add__(self, other: "Expr") -> "Expr":
        return BinOp('+', self, other)

    def __sub__(self, other: "Expr") -> "Expr":
        return BinOp('-', self, other)

    def __mul__(self, other: "Expr") -> "Expr":
        return BinOp('*', self, other)

    def leaves(self) -> Iterator["Var"]:
        raise NotImplementedError

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())


@dataclass(frozen=True)
class Var(Expr):
    __slots__ = ('name',)
    name: str

    def leaves(self) -> Iterator["Var"]:
        yield self


@dataclass(frozen=True)
class BinOp(Expr):
    __slots__ = ('op', 'left', 'right')
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in ('+', '-', '*'):
            raise ValueError(f"unsupported operation {self.op!r}")

    def leaves(self) -> Iterator[Var]:
        yield from self.left.leaves()
        yield from self.right.leaves()


def eval_expr(expr: Expr, bindings: Mapping[str, ProbInterval]) -> ProbInterval:
    """Fold the superset operations over the tree.

    The result has midpoint = the expression evaluated at the bound
    midpoints and halfwidth = the sum of the bound halfwidths over leaf
    occurrences (duplicates counted).
    """
    if isinstance(expr, Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise ValueError(f"unbound variable {expr.name!r}") from None
    assert isinstance(expr, BinOp)
    left = eval_expr(expr.left, bindings)
    right = eval_expr(expr.right, bindings)
    op = {'+': iv_add, '-': iv_sub, '*': iv_mul}[expr.op]
    return op(left, right)
