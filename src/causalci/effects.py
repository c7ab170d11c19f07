"""Confidence intervals and sequences for adjustment-identified causal effects.

Every construction is an adjustment polynomial over estimated
probabilities: its midpoint is the polynomial at the estimates, its
half-width the sum of their concentration radii, each counted once per
occurrence in the polynomial (its multiplicity).  One table of leaf
families describes them all (x~ is the intervention value, x' ranges over
the treatment domain):

  criterion   family  estimate    cells   multiplicity per cell
  back-door   marg    p(z)        z       1
              cond    p(y|x~,z)   z       1
  front-door  treat   p(x')       x'      |Z|; 1 in the horner-x form
              med     p(z|x~)     z       |X|; 1 in the horner-z form
              out     p(y|x',z)   x', z   1

Both polynomials are sum_z w_z sum_j a_zj b_zj, evaluated by one function
that skips a term whose w or b is exactly 0: back-door w = p(z),
a = p(y|x~,z) and b = 1; front-door w = p(z|x~), a = p(y|x',z) and
b = p(x') over j = x'.  The front-door widths count it expanded into |X||Z|
products or nested by z (horner-z) or by x' (horner-x).  ``true_effect`` is
the same polynomial at the model's exact leaf probabilities, where a leaf
whose condition has probability 0 is undefined and raises unless its term
is skipped; ``CausalModel.interventional_probability`` is the independent
check.  A family's estimates are
full-sample empirical ones with Hoeffding radii, or dyadic-prefix ones
(over the first dyadic_floor(count) occurrences of the condition) with
iterated-logarithm (LIL) radii:

  regime                       empirical, Hoeffding   dyadic-prefix, LIL
  iid, fixed n                 every family           -
  adaptive-fixed               marg, treat            cond, med, out
  anytime (at each prefix n)   -                      every family

Adaptive treatment (each treatment may depend on the whole observed past)
switches the estimates conditioned on the treatment; the anytime elements
form a confidence sequence (their running intersection keeps the level),
which ``confidence_sequence`` yields whole, one segment per run of prefixes
over which none of the query's reads moves (no log it reads gains a level),
with the same arithmetic as ``effect_interval``.
Both read the leaves as ``(count, hits)`` arrays from the count table, at
one prefix (``CountTable.read``, each distinct condition read once) or a
block of runs at a time (``CountTable.leaf_runs``), one row per run; an
interval is the one-run case.  One binder turns the arrays into estimates
and radii, and one evaluator gives every run's polynomial and half-width,
column by column in the order scalar loops would add them, so the floats
are the same whatever the number of runs.
The level is split across the distinct estimated probabilities, which sets
the ratio inside each radius's logarithm:

  criterion               Hoeffding    LIL
  back-door               4|Z|/delta   6.6|Z|/delta
  back-door, binary toy   6/delta      10/delta
  front-door              2K/delta     3.3K/delta,   K = |X||Z| + |X| + |Z|

Widths do not vanish as delta -> 1, because 4|Z|/delta is at least 4|Z|.
``binary_toy`` (binary treatment and outcome, one binary covariate) needs
only three estimated probabilities, hence its tighter constants.

Conventions: an estimate whose condition has count zero contributes factor
0 to the midpoint and an unbounded radius, so the realized interval is
[0,1]; LIL radii are unbounded until the count reaches 2.  The half-width
adds the families in table order: a family whose cells share one condition
as (cells x multiplicity) x radius, any other cell by cell, x' outer and z
inner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, groupby
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .bounds import hoeffding_term, lil_term
from .counts import CountTable, _hashable, _prefix_length

if TYPE_CHECKING:
    from .simulator import CausalModel

CRITERIA = ('backdoor', 'frontdoor')
REGIMES = ('iid', 'adaptive-fixed', 'anytime')
FRONTDOOR_FORMS = ('expanded', 'horner-z', 'horner-x')


@dataclass(frozen=True)
class EffectQuery:
    """What to estimate and under which sampling regime."""

    criterion: str
    x: object
    y: object
    delta: float
    regime: str = 'iid'
    binary_toy: bool = False
    frontdoor_form: str = 'expanded'

    def __post_init__(self):
        for name, value in (('x', self.x), ('y', self.y)):
            _require_hashable(name, value)
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        if self.frontdoor_form not in FRONTDOOR_FORMS:
            raise ValueError(f"frontdoor_form must be one of {FRONTDOOR_FORMS}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.binary_toy and self.criterion != 'backdoor':
            raise ValueError("the tightened binary constants exist only for "
                             "the back-door construction")
        if self.frontdoor_form != 'expanded' and self.criterion != 'frontdoor':
            raise ValueError("frontdoor_form applies only to the front-door criterion")
        if self.frontdoor_form != 'expanded' and self.regime != 'iid':
            raise ValueError("the Horner width variants exist only for the "
                             "fixed-n IID construction")


@dataclass(frozen=True)
class EffectInterval:
    """A single confidence interval/sequence element, clipped to [0,1]."""

    n: int
    midpoint: float
    halfwidth: float
    lower: float
    upper: float
    constants: dict = field(default_factory=dict, compare=False)

    @classmethod
    def build(cls, n: int, midpoint: float, halfwidth: float,
              constants: dict | None = None) -> "EffectInterval":
        return cls(n, midpoint, halfwidth, max(0.0, midpoint - halfwidth),
                   min(1.0, midpoint + halfwidth), constants or {})

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.halfwidth)

    def contains(self, p: float) -> bool:
        return self.lower <= p <= self.upper


def _require_hashable(name: str, value) -> None:
    if not _hashable(value):
        raise ValueError(f"{name} value {value!r} is unhashable, so in no domain")


def require_in_domain(table: CountTable, **values) -> None:
    """Refuse a treatment value ``x`` or an outcome value ``y`` outside the
    table's declared domain: no stream could ever estimate it."""
    for name, value in values.items():
        _require_hashable(name, value)
        domain = table.x_domain if name == 'x' else table.y_domain
        if value not in domain:
            raise ValueError(f"query {name} value {value!r} not in declared domain "
                             f"{list(domain)}")


def _require(query: EffectQuery, criterion: str, regime: str) -> None:
    if query.criterion != criterion or query.regime != regime:
        raise ValueError(f"query is for {query.criterion}/{query.regime}, "
                         f"expected {criterion}/{regime}")


# -- the leaf table -----------------------------------------------------------

# per criterion, its families in summation order and the first regime in
# which each one's estimates are dyadic-prefix ones
_FAMILIES = {
    'backdoor': (('marg', 'anytime'), ('cond', 'adaptive-fixed')),
    'frontdoor': (('treat', 'anytime'), ('med', 'adaptive-fixed'),
                  ('out', 'adaptive-fixed')),
}


class _Family(NamedTuple):
    name: str
    dyadic: bool    # dyadic-prefix estimates with LIL radii, else empirical/Hoeffding
    ratio: float    # inside the radius's logarithm
    label: str      # the ratio's formula
    mult: int       # occurrences of each cell in the polynomial
    shared: bool    # every cell has the same condition, hence the same radius
    cells: tuple    # (event, condition) of each cell
    columns: slice  # the family's cells among all families' cells, in family order

    @property
    def radius_columns(self) -> slice:
        """The columns whose radii the half-width adds: a shared condition's
        first, or every cell's."""
        return slice(self.columns.start, self.columns.start + 1) if self.shared else self.columns


def _cells(criterion: str, x, y, xs: tuple, zs: tuple) -> tuple[tuple, ...]:
    """Each family's (event, condition) cells, family by family, for the
    intervention value x, the outcome y and the domains (x', z) they range over."""
    cells = {'marg': [({'z': z}, {}) for z in zs],
             'cond': [({'y': y}, {'x': x, 'z': z}) for z in zs],
             'treat': [({'x': v}, {}) for v in xs],
             'med': [({'z': z}, {'x': x}) for z in zs],
             'out': [({'y': y}, {'x': v, 'z': z}) for v in xs for z in zs]}
    return tuple(tuple(cells[name]) for name, _ in _FAMILIES[criterion])


@lru_cache(maxsize=64)
def _plan(query: EffectQuery, xs: tuple, zs: tuple) -> tuple[_Family, ...]:
    """The leaf table bound to a query and the domains (x', z) it ranges over."""
    mult = {'treat': 1 if query.frontdoor_form == 'horner-x' else len(zs),
            'med': 1 if query.frontdoor_form == 'horner-z' else len(xs)}
    if query.criterion == 'frontdoor':
        k = len(xs) * len(zs) + len(xs) + len(zs)  # distinct estimated probabilities
        scale, coefs, labels = k, (2.0, 3.3), ("2K/delta", "3.3K/delta")
    elif query.binary_toy:
        scale, coefs, labels = 1, (6.0, 10.0), ("6/delta", "10/delta")
    else:
        scale, coefs, labels = len(zs), (4.0, 6.6), ("4|Z|/delta", "6.6|Z|/delta")
    families, lo = [], 0
    for (name, first), cells in zip(_FAMILIES[query.criterion],
                                    _cells(query.criterion, query.x, query.y, xs, zs)):
        dyadic = REGIMES.index(query.regime) >= REGIMES.index(first)
        conditions = [given for _, given in cells]
        families.append(_Family(name, dyadic, coefs[dyadic] * scale / query.delta,
                                labels[dyadic], mult.get(name, 1),
                                conditions.count(conditions[0]) == len(conditions),
                                cells, slice(lo, lo + len(cells))))
        lo += len(cells)
    return tuple(families)


def _families(table: CountTable, query: EffectQuery) -> tuple[_Family, ...]:
    """The leaf table bound to a query and a table's domains, once the
    query is known to fit the table."""
    require_in_domain(table, x=query.x, y=query.y)
    if query.binary_toy and (len(table.x_domain), len(table.y_domain),
                             *map(len, table.z_domains)) != (2, 2, 2):
        raise ValueError("binary_toy needs binary treatment/outcome and a "
                         "single binary covariate")
    return _plan(query, table.x_domain, table.z_values)


def _bind(table: CountTable, query: EffectQuery, n: int | None):
    """The families, the prefix n and every cell's estimate and radius at
    n, as one run; n defaults to the whole stream and differs from it only
    in the anytime regime, where every family is dyadic and so read from
    the table's checkpoint log."""
    n = table.n if n is None else _prefix_length(n, table.n)
    if n != table.n and query.regime != 'anytime':
        raise ValueError("a prefix index applies only to the anytime regime")
    families = _families(table, query)
    count, hits = [], []  # one read per run of families at one prefix (None: whole stream)
    for m, group in groupby(families, lambda fam: n if fam.dyadic else None):
        c, h = table.read([cell for fam in group for cell in fam.cells], m)
        count += c
        hits += h
    return (families, n, *_bind_pairs(families, np.array([count], np.int64),
                                      np.array([hits], np.int64)))


def _bind_pairs(families: tuple[_Family, ...], count: np.ndarray, hits: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's estimate and radius, one row per run and the cells in
    family order, from their (count, hits) arrays: hits / count (0 with no
    count, where hits is 0 too), and the radius of the count (one per run
    for a shared condition, that of the family's first cell), evaluated
    once per distinct value it reads: Hoeffding's reads the count, and the
    LIL radius only its dyadic floor, so its bit length."""
    estimates = hits / np.maximum(count, 1)
    radii, bits = np.empty(count.shape), None
    for fam in families:
        if fam.dyadic:
            if bits is None:
                bits = np.frexp(count)[1]  # exact below 2**53
                present = np.flatnonzero(np.bincount(bits.ravel())).tolist()
            table = np.empty(present[-1] + 1)
            table[present] = [lil_term((1 << k) >> 1, fam.ratio) for k in present]
            radii[:, fam.columns] = table[bits[:, fam.radius_columns]]
        else:
            counts = count[:, fam.radius_columns].tolist()
            radius = {c: hoeffding_term(c, fam.ratio) for c in set(chain(*counts))}
            radii[:, fam.columns] = [[radius[c] for c in row] for row in counts]
    return estimates, radii


def _polynomial(criterion: str, cells, values: list[np.ndarray]) -> list[float]:
    """The adjustment polynomial at each run's leaf values, given family by
    family as (runs x cells) arrays.  A term whose w or b is exactly 0 is
    skipped; a NaN value (a leaf whose condition has probability zero) in
    any other term raises, naming the leaf.  The sums run left to right,
    column by column, every run at once: over x' within a term, then over z."""
    # the positions of the w, a and b families; the back-door b is the constant 1
    iw, ia, ib = (0, 1, None) if criterion == 'backdoor' else (1, 2, 0)
    w, a = values[iw], values[ia]
    nz = w.shape[1]
    if ib is None:  # 0.0 + a * 1.0 is a
        b, inner = None, a
    else:  # x' by x', every (run, z) at once
        b, inner = values[ib], np.zeros(w.shape)
        for j in range(b.shape[1]):
            bj = b[:, j:j + 1]
            inner = np.where(bj != 0.0, inner + a[:, j * nz:(j + 1) * nz] * bj, inner)
    totals = np.cumsum(np.where(w != 0.0, w * inner, 0.0), axis=1)[:, -1].tolist()
    for r, total in enumerate(totals):
        if total != total:  # a NaN term: name the first NaN leaf the first one reads
            i = int(np.flatnonzero(np.isnan(w[r] * inner[r]) & (w[r] != 0.0))[0])
            bs = [1.0] if b is None else b[r].tolist()
            reads = [(iw, i)] + [(ia, j * nz + i) for j, bj in enumerate(bs) if bj != 0.0]
            f, k = next((f, k) for f, k in reads if np.isnan(values[f][r, k]))
            event, given = (', '.join(f"{key}={value!r}" for key, value in part.items())
                            for part in cells[f][k])
            raise ValueError(f"p({event} | {given}) is undefined: its condition has "
                             "probability zero (positivity violated)")
    return totals


def _interval(query: EffectQuery, families: tuple[_Family, ...], first: list[int],
              estimates: np.ndarray, radii: np.ndarray) -> list[EffectInterval]:
    """Each run's interval, named by its first prefix: the polynomial at the
    bound estimates, its leaf radii summed with multiplicity (family by
    family, left to right), and the ratios they used, one ``constants``
    dict shared by the runs' intervals."""
    mid = _polynomial(query.criterion, [fam.cells for fam in families],
                      [estimates[:, fam.columns] for fam in families])
    widths = [radii[:, fam.radius_columns] * (len(fam.cells) * fam.mult if fam.shared else fam.mult)
              for fam in families]
    hw = np.cumsum(np.concatenate(widths, axis=1), axis=1)[:, -1]
    constants = {'lil' if fam.dyadic else 'hoeffding': {"form": fam.label, "value": fam.ratio}
                 for fam in families}
    if (query.criterion, query.regime) == ('frontdoor', 'iid'):
        constants["frontdoor_form"] = query.frontdoor_form
    return [EffectInterval.build(n, m, h, constants)
            for n, m, h in zip(first, mid, hw.tolist())]


# -- entry points ---------------------------------------------------------------

def effect_interval(table: CountTable, query: EffectQuery,
                    n: int | None = None) -> EffectInterval:
    """The interval for a query's criterion and regime; n, a prefix of the
    stream, applies to the anytime regime only.  It is the polynomial at the
    bound estimates, its leaf radii summed with multiplicity, and the ratios
    they used."""
    families, n, estimates, radii = _bind(table, query, n)
    return _interval(query, families, [n], estimates, radii)[0]


def confidence_sequence(table: CountTable, query: EffectQuery,
                        start: int | None = None) -> Iterator[tuple[int, int, EffectInterval]]:
    """The anytime confidence sequence of the table's stream as it is at
    this call, from the prefix ``start`` (by default ``min(1, n)``) on, as
    segments ``(first_n, last_n, interval)``, one per run of
    :meth:`CountTable.leaf_runs` over the query's leaves: a run of prefixes
    over which none of the query's reads moves.  Each interval is
    ``effect_interval(table, query, first_n)``, and so, but for ``n``, every
    element of its segment.  The runs are bound and evaluated a block at a
    time, as arrays."""
    if query.regime != 'anytime':
        raise ValueError("a confidence sequence is the anytime regime's, "
                         f"not the {query.regime} regime's")
    families = _families(table, query)
    blocks = table.leaf_runs([cell for fam in families for cell in fam.cells], start)

    def segments():
        for runs in blocks:
            first = runs.first.tolist()
            yield from zip(first, runs.last.tolist(), _interval(
                query, families, first, *_bind_pairs(families, runs.count, runs.hits)))
    return segments()


def backdoor_cs_anytime(table: CountTable, query: EffectQuery,
                        n: int | None = None) -> EffectInterval:
    """Element of the confidence sequence after n observations (default: all)."""
    _require(query, 'backdoor', 'anytime')
    return effect_interval(table, query, n)


def frontdoor_cs_anytime(table: CountTable, query: EffectQuery,
                         n: int | None = None) -> EffectInterval:
    _require(query, 'frontdoor', 'anytime')
    return effect_interval(table, query, n)


# -- ground truth -------------------------------------------------------------

def true_effect(model: "CausalModel", x, y, criterion: str) -> float:
    """The adjustment polynomial at the model's exact leaf probabilities,
    P(event, condition) / P(condition), or P(event) with no condition.

    A leaf whose condition has probability zero is undefined: a term whose
    weight or p(x') factor is exactly zero drops it, any other term raises,
    and so does a value outside its domain."""
    table, roles = model.count_table(), model.roles
    require_in_domain(table, x=x, y=y)
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")

    def p(part: dict) -> float:  # a cell's event or condition, by the model's names
        named = {getattr(roles, key): value for key, value in part.items() if key != 'z'}
        return model.probability({**named, **dict(zip(roles.z, part.get('z', ())))})

    def leaf(event: dict, given: dict) -> float:
        if not given:
            return p(event)
        condition = p(given)
        return p({**event, **given}) / condition if condition else math.nan

    cells = _cells(criterion, x, y, table.x_domain, table.z_values)  # one run, bound exactly
    return _polynomial(criterion, cells, [np.array([[leaf(*cell) for cell in fam]])
                                          for fam in cells])[0]
