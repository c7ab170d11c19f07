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

The back-door polynomial is sum_z p(z) p(y|x~,z); the front-door one,
sum_z p(z|x~) sum_x' p(y|x',z) p(x'), is expanded into |X||Z| products or
nested by z (horner-z) or by x' (horner-x).  A family's estimates are
full-sample empirical ones with Hoeffding radii, or dyadic-prefix ones
(over the first dyadic_floor(count) occurrences of the condition) with
iterated-logarithm (LIL) radii:

  regime                       empirical, Hoeffding   dyadic-prefix, LIL
  iid, fixed n                 every family           -
  adaptive-fixed               marg, treat            cond, med, out
  anytime (at each prefix n)   -                      every family

Adaptive treatment (each treatment may depend on the whole observed past)
switches the estimates conditioned on the treatment; the anytime elements
form a confidence sequence (their running intersection keeps the level).
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
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

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
        return cls(n=n, midpoint=midpoint, halfwidth=halfwidth,
                   lower=max(0.0, midpoint - halfwidth),
                   upper=min(1.0, midpoint + halfwidth),
                   constants=constants or {})

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


@lru_cache(maxsize=64)
def _plan(query: EffectQuery, xs: tuple, zs: tuple) -> tuple[_Family, ...]:
    """The leaf table bound to a query and the domains (x', z) it ranges over."""
    x, y = query.x, query.y
    cells = {'marg': [({'z': z}, {}) for z in zs],
             'cond': [({'y': y}, {'x': x, 'z': z}) for z in zs],
             'treat': [({'x': v}, {}) for v in xs],
             'med': [({'z': z}, {'x': x}) for z in zs],
             'out': [({'y': y}, {'x': v, 'z': z}) for v in xs for z in zs]}
    mult = {'treat': 1 if query.frontdoor_form == 'horner-x' else len(zs),
            'med': 1 if query.frontdoor_form == 'horner-z' else len(xs)}
    if query.criterion == 'frontdoor':
        k = len(xs) * len(zs) + len(xs) + len(zs)  # distinct estimated probabilities
        scale, coefs, labels = k, (2.0, 3.3), ("2K/delta", "3.3K/delta")
    elif query.binary_toy:
        scale, coefs, labels = 1, (6.0, 10.0), ("6/delta", "10/delta")
    else:
        scale, coefs, labels = len(zs), (4.0, 6.6), ("4|Z|/delta", "6.6|Z|/delta")
    families = []
    for name, first in _FAMILIES[query.criterion]:
        dyadic = REGIMES.index(query.regime) >= REGIMES.index(first)
        conditions = [given for _, given in cells[name]]
        families.append(_Family(name, dyadic, coefs[dyadic] * scale / query.delta,
                                labels[dyadic], mult.get(name, 1),
                                conditions.count(conditions[0]) == len(conditions),
                                tuple(cells[name])))
    return tuple(families)


def _bind(table: CountTable, query: EffectQuery, n: int | None):
    """The families, the prefix n and every cell's (estimate, radius) at n,
    family by family; n defaults to the whole stream and differs from it
    only in the anytime regime, where every family is dyadic and so read
    from the table's checkpoint log."""
    n = table.n if n is None else _prefix_length(n, table.n)
    if n != table.n and query.regime != 'anytime':
        raise ValueError("a prefix index applies only to the anytime regime")
    require_in_domain(table, x=query.x, y=query.y)
    if query.binary_toy and (len(table.x_domain), len(table.y_domain),
                             *map(len, table.z_domains)) != (2, 2, 2):
        raise ValueError("binary_toy needs binary treatment/outcome and a "
                         "single binary covariate")
    families = _plan(query, table.x_domain, table.z_values)
    bound = []
    for fam in families:
        radius = lil_term if fam.dyadic else hoeffding_term
        m = n if fam.dyadic else None
        pairs = []
        for event, given in fam.cells:
            count, hits = table.leaf(event, given, m)
            if not (fam.shared and pairs):
                r = radius(count, fam.ratio)
            pairs.append((hits / count if count else 0.0, r))
        bound.append(pairs)
    return families, n, bound


def _interval(table: CountTable, query: EffectQuery,
              n: int | None = None) -> EffectInterval:
    """The construction for any query: the polynomial at the bound estimates,
    its leaf radii summed with multiplicity, and the ratios they used."""
    families, n, bound = _bind(table, query, n)
    mid = 0.0
    if query.criterion == 'backdoor':
        for (marg, _), (cond, _) in zip(*bound):
            mid += marg * cond
    else:
        treat, med, out = bound
        for i, (pz, _) in enumerate(med):
            inner = 0.0
            for j, (px, _) in enumerate(treat):
                inner += out[j * len(med) + i][0] * px
            mid += pz * inner
    hw = 0.0
    for fam, pairs in zip(families, bound):
        if fam.shared:
            hw += (len(pairs) * fam.mult) * pairs[0][1]
        else:
            for _, r in pairs:
                hw += fam.mult * r
    constants = {'lil' if fam.dyadic else 'hoeffding': {"form": fam.label, "value": fam.ratio}
                 for fam in families}
    if (query.criterion, query.regime) == ('frontdoor', 'iid'):
        constants["frontdoor_form"] = query.frontdoor_form
    return EffectInterval.build(n, mid, hw, constants)


# -- entry points ---------------------------------------------------------------

def backdoor_cs_anytime(table: CountTable, query: EffectQuery,
                        n: int | None = None) -> EffectInterval:
    """Element of the confidence sequence after n observations (default: all)."""
    _require(query, 'backdoor', 'anytime')
    return _interval(table, query, n)


def frontdoor_cs_anytime(table: CountTable, query: EffectQuery,
                         n: int | None = None) -> EffectInterval:
    _require(query, 'frontdoor', 'anytime')
    return _interval(table, query, n)


def effect_interval(table: CountTable, query: EffectQuery,
                    n: int | None = None) -> EffectInterval:
    """The interval for a query's criterion and regime; n, a prefix of the
    stream, applies to the anytime regime only."""
    return _interval(table, query, n)


# -- ground-truth oracle -------------------------------------------------------

def true_effect(model: "CausalModel", x, y, criterion: str) -> float:
    """Evaluate the adjustment formula on the model's exact joint law.

    Terms whose marginal weight is exactly zero are dropped; a zero-
    probability conditioning event with positive weight means the formula
    is not evaluable and raises."""
    roles = model.roles
    z_values = list(product(*(model.dag.domains[name] for name in roles.z)))

    def z_dict(zv):
        return dict(zip(roles.z, zv))

    if criterion == 'backdoor':
        total = 0.0
        for zv in z_values:
            pz = model.probability(z_dict(zv))
            if pz == 0.0:
                continue
            pxz = model.probability({roles.x: x, **z_dict(zv)})
            if pxz == 0.0:
                raise ValueError(f"P(y|x,z) undefined at z={zv}: the treatment "
                                 "value never occurs there (positivity violated)")
            pyxz = model.probability({roles.x: x, roles.y: y, **z_dict(zv)})
            total += (pyxz / pxz) * pz
        return total
    if criterion == 'frontdoor':
        px_t = model.probability({roles.x: x})
        if px_t == 0.0:
            raise ValueError("the treatment value has probability zero")
        total = 0.0
        for zv in z_values:
            w = model.probability({roles.x: x, **z_dict(zv)}) / px_t
            if w == 0.0:
                continue
            inner = 0.0
            for xv in model.dag.domains[roles.x]:
                px = model.probability({roles.x: xv})
                if px == 0.0:
                    continue
                pxz = model.probability({roles.x: xv, **z_dict(zv)})
                if pxz == 0.0:
                    raise ValueError(f"P(y|x,z) undefined at x={xv}, z={zv} "
                                     "(positivity violated)")
                pyxz = model.probability({roles.x: xv, roles.y: y, **z_dict(zv)})
                inner += (pyxz / pxz) * px
            total += w * inner
        return total
    raise ValueError(f"criterion must be one of {CRITERIA}")
