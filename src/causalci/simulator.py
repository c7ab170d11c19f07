"""Sampling observation streams from finite-domain causal models.

A :class:`CausalModel` is a DAG plus one conditional probability table per
vertex.  Streams come in two flavors:

* :func:`sample_iid` draws independent repetitions by ancestral sampling,
* :func:`sample_adaptive` draws repetitions in which the treatment value
  at each step is chosen by a :class:`Policy` from the visible history
  (all past observations) and the current step's visible pre-treatment
  values, while every other vertex keeps its stable mechanism.  Only the
  treatment vertex is past-dependent; pre-treatment variables outside the
  observation roles (e.g. an unobserved confounder) are sampled but hidden
  from the policy.

Randomness contract: all draws come from numpy's PCG64 generator.  Every
entry point accepts either an integer seed, a ``numpy.random.SeedSequence``
or a ready ``Generator``; independent replications should be seeded by
spawning children from one ``SeedSequence``.  Within ``sample_adaptive``
the policy receives its own spawned child stream, so policy randomness
never perturbs the mechanism draws.  Identical inputs give bit-identical
streams.

Both samplers draw the integer cell codes of the model's
:class:`~causalci.counts.Layout` (``_iid_codes``, ``_adaptive_codes``), and
``sample_iid`` / ``sample_adaptive`` decode those codes into observations,
so the public streams are the ones the codes stand for.  The coverage harness hands the codes to
:meth:`CountTable.ingest_codes` and never builds an observation.  The
built-in policies choose on domain indices too (``Policy._steps``); a
policy that overrides ``choose`` is asked through it at every step, with
the history as observations.  The alternating adversary finds each run of
equal choices up to its next switch at once, from running sums of the
outcomes, since only the played arm's success rate moves within a run.
What the model fixes is computed once, on first use, and kept on it: the
layout of its role cells, which its tables, samplers and ground truth
share, so none of them builds a table to code cells; each CPT's cumulative
columns for both samplers, the vertices an adaptive step draws before and
after its treatment, and the marginal tables that
:meth:`CausalModel.probability` reads.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .counts import CountTable, Layout, Observation, parse_scalar
from .graph import Dag

_ROW_SUM_TOL = 1e-12
# steps of sample_adaptive whose mechanism uniforms are drawn at once
_BLOCK_STEPS = 4096


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed / SeedSequence / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class Roles:
    """Which vertices feed the observation fields."""

    x: str
    y: str
    z: tuple[str, ...]


@dataclass(frozen=True)
class Cpt:
    """Distribution of one vertex for every configuration of its parents."""

    parents: tuple[str, ...]
    rows: dict  # parent-value tuple -> tuple of probabilities


class _Mechanism(NamedTuple):
    """A vertex's CPT as columns, each holding one entry per parent
    configuration in the canonical (row-major) order."""

    sizes: tuple[int, ...]  # the parents' domain sizes
    cum: tuple  # the cumulative rows, all columns but the last
    sums: np.ndarray  # the last column: each row's sum
    # Generator.choice's inverse CDF: the cumulative rows over their sums,
    # all columns but the last (1.0, never at or below a uniform)
    cdf: tuple

    @classmethod
    def of(cls, cpt: Cpt, dag: Dag) -> "_Mechanism":
        cum = np.cumsum(list(cpt.rows.values()), axis=1)
        cdf = cum / cum[:, -1:]
        return cls(tuple(len(dag.domains[p]) for p in cpt.parents),
                   tuple(cum[:, :-1].T.copy()), cum[:, -1].copy(),
                   tuple(cdf[:, :-1].T.copy()))


class CausalModel:
    """A DAG with conditional probability tables and observation roles."""

    def __init__(self, dag: Dag, cpts: dict, roles: Roles):
        self.dag = dag
        if isinstance(roles.z, str):  # tuple() would split it into its characters
            raise ValueError(f"roles.z must be a sequence of vertex names, not {roles.z!r}")
        self.roles = roles = Roles(roles.x, roles.y, tuple(roles.z))
        if not roles.z:  # a table codes every row's z
            raise ValueError("roles.z must name at least one covariate vertex")
        dag.require(roles.x, roles.y, *roles.z)
        named = {}  # vertex -> the first role that names it
        for role, v in (('x', roles.x), ('y', roles.y), *(('z', v) for v in roles.z)):
            if v in named:
                raise ValueError(f"roles.{role} names {v!r}, which roles.{named[v]} "
                                 f"names too: the roles name distinct vertices")
            named[v] = role
        if set(cpts) != set(dag.vertices):
            missing = sorted(set(dag.vertices) - set(cpts))
            extra = sorted(set(cpts) - set(dag.vertices))
            raise ValueError(f"CPT vertices mismatch (missing {missing}, extra {extra})")
        self.cpts: dict[str, Cpt] = {}
        positive = True
        for v in dag.vertices:
            cpt = cpts[v]
            if set(cpt.parents) != set(dag.parents(v)):
                raise ValueError(f"CPT for {v} conditions on {cpt.parents}, "
                                 f"graph parents are {dag.parents(v)}")
            dom = dag.domains[v]
            configs = list(product(*(dag.domains[p] for p in cpt.parents)))
            rows = {}
            for config in configs:  # canonical order, for deterministic draws
                if config not in cpt.rows:
                    raise ValueError(f"CPT for {v} misses parent configuration {config}")
                row = tuple(float(p) for p in cpt.rows[config])
                if len(row) != len(dom):
                    raise ValueError(f"CPT row for {v} given {config} has "
                                     f"{len(row)} entries, domain has {len(dom)}")
                if not all(math.isfinite(p) for p in row):  # NaN passes both checks below
                    raise ValueError(f"CPT row for {v} given {config} has a "
                                     f"non-finite entry: {row!r}")
                if any(p < 0 for p in row):
                    raise ValueError(f"negative probability in CPT for {v}")
                if abs(sum(row) - 1.0) > _ROW_SUM_TOL:
                    raise ValueError(f"CPT row for {v} given {config} sums to "
                                     f"{sum(row)!r}, not 1")
                positive = positive and all(p > 0 for p in row)
                rows[config] = row
            if len(cpt.rows) != len(configs):
                raise ValueError(f"CPT for {v} has rows for unknown configurations")
            self.cpts[v] = Cpt(tuple(cpt.parents), rows)
        self.positive = positive
        self._joint_cache: list[tuple[tuple, float]] | None = None
        # vertex positions -> their values -> marginal probability
        self._marginals: dict[tuple[int, ...], dict[tuple, float]] = {}

    # -- what the samplers read, built on first use ---------------------------

    @cached_property
    def _mechanisms(self) -> dict[str, _Mechanism]:
        """Each vertex's CPT as the samplers read it."""
        return {v: _Mechanism.of(cpt, self.dag) for v, cpt in self.cpts.items()}

    @cached_property
    def layout(self) -> Layout:
        """The coding of the cells of this model's observation roles, which
        its tables, samplers and ground truth share."""
        domains = self.dag.domains
        return Layout(domains[self.roles.x], domains[self.roles.y],
                      [domains[name] for name in self.roles.z])

    @cached_property
    def _split(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The vertices an adaptive step draws before and after its
        treatment, each in topological order."""
        dag, x = self.dag, self.roles.x
        desc = dag.descendants(x)
        return (tuple(v for v in dag.topological_order() if v != x and v not in desc),
                tuple(v for v in dag.topological_order() if v in desc))

    # -- exact law -------------------------------------------------------

    def _law(self, skip: str | None = None) -> Iterator[tuple[tuple, float]]:
        """Every assignment of the vertices with the product of its CPT
        entries, leaving out the factor of the vertex skip."""
        verts = self.dag.vertices
        for assignment in product(*(self.dag.domains[v] for v in verts)):
            values = dict(zip(verts, assignment))
            p = 1.0
            for v in verts:
                if v == skip:
                    continue
                cpt = self.cpts[v]
                row = cpt.rows[tuple(values[q] for q in cpt.parents)]
                p *= row[self.dag.domains[v].index(values[v])]
            yield assignment, p

    def _joint(self) -> list[tuple[tuple, float]]:
        if self._joint_cache is None:
            self._joint_cache = list(self._law())
        return self._joint_cache

    def probability(self, partial: dict) -> float:
        """Exact marginal probability of a partial assignment, read from the
        marginal table of its vertices.  One pass over the joint builds a
        table, kept on the model, and adds each key's entries left to right
        in the joint's order from 0, as a scan of the joint for that
        assignment does (since Python 3.12 builtin sum rounds otherwise).
        A value no assignment takes, hashable or not, has probability 0."""
        self.dag.require(*partial)
        verts = self.dag.vertices
        positions = tuple(sorted(verts.index(name) for name in partial))
        table = self._marginals.get(positions)
        if table is None:
            table = self._marginals[positions] = {}
            for assignment, p in self._joint():
                key = tuple(assignment[i] for i in positions)
                table[key] = table.get(key, 0) + p
        try:
            return table.get(tuple(partial[verts[i]] for i in positions), 0)
        except TypeError:  # unhashable, so equal to no domain value
            return 0

    def interventional_probability(self, x_value, y_value) -> float:
        """P(outcome = y) in the mutilated model where the treatment vertex
        is severed from its parents and pinned to x_value."""
        self.layout.require_in_domain(x=x_value, y=y_value)
        roles, verts = self.roles, self.dag.vertices
        y_i, x_i = verts.index(roles.y), verts.index(roles.x)
        total = 0.0
        for assignment, p in self._law(skip=roles.x):
            if assignment[x_i] == x_value and assignment[y_i] == y_value:
                total += p
        return total

    # -- plumbing ----------------------------------------------------------

    def count_table(self) -> CountTable:
        """An empty CountTable of this model's layout."""
        return CountTable(self.layout)

    def to_json(self) -> dict:
        return {
            "format_version": 1,
            "variables": [{"name": v, "domain": list(self.dag.domains[v])}
                          for v in self.dag.vertices],
            "edges": [[a, b] for a, b in sorted(self.dag.edges)],
            "cpts": {v: {"parents": list(cpt.parents),
                         "rows": [{"given": list(config), "p": list(row)}
                                  for config, row in cpt.rows.items()]}
                     for v, cpt in self.cpts.items()},
            "roles": {"x": self.roles.x, "y": self.roles.y,
                      "z": list(self.roles.z)},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CausalModel":
        try:
            variables = doc["variables"]
            dag = Dag([v["name"] for v in variables],
                      [tuple(e) for e in doc["edges"]],
                      {v["name"]: tuple(v["domain"]) for v in variables})
            cpts = {}
            for name, spec in doc["cpts"].items():
                rows = {tuple(row["given"]): tuple(row["p"]) for row in spec["rows"]}
                cpts[name] = Cpt(tuple(spec["parents"]), rows)
            roles = doc["roles"]
            if not isinstance(roles["z"], list) or not roles["z"]:
                raise ValueError("roles.z must be a non-empty JSON list of variables, "
                                 f"got {roles['z']!r}")
            return cls(dag, cpts, Roles(roles["x"], roles["y"], tuple(roles["z"])))
        except (AttributeError, KeyError, TypeError) as exc:  # a list where a map belongs
            raise ValueError(f"malformed model document: {exc}") from exc


def load_model(path: str) -> CausalModel:
    with open(path, 'r', encoding='utf-8') as handle:
        return CausalModel.from_json(json.load(handle))


# -- policies -----------------------------------------------------------------

class _Block(NamedTuple):
    """A block of k steps of an adaptive stream, drawn before the
    treatments are chosen: the domain indices of the pre-treatment
    vertices, and per treatment index the outcome index and the cell code
    of every step."""

    pre: dict  # vertex -> index array of shape (k,)
    y: np.ndarray  # shape (|X|, k)
    cells: np.ndarray  # shape (|X|, k)


class Policy:
    """Treatment rule: a function of the visible history and the current
    step's visible pre-treatment values.

    The built-in policies also state their rule on domain indices, as
    ``_steps(block)``: the treatment index of each step of a :class:`_Block`,
    the ones ``choose`` would return step by step.  A subclass that
    overrides ``choose``, and not ``_steps`` (or ``_pick``, the rule of the
    success-rate policies) with it, is asked through ``choose`` at every
    step.  One that overrides ``_pick`` and not ``_steps`` is asked through
    ``_pick`` at every step (``_SuccessRatePolicy._steps``), even where it
    inherits a ``_steps`` that states some other rule a run at a time.
    """

    #: set by mechanism-replaying policies that may read hidden parents
    sees_mechanism = False
    _steps = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).keys()
        if '_steps' in own:
            return
        if '_pick' in own:  # a rule of its own, which an inherited _steps may not state
            cls._steps = _SuccessRatePolicy._steps
        elif 'choose' in own:  # a choose without the rule on indices that matches it
            cls._steps = None

    def reset(self, model: CausalModel, rng: np.random.Generator) -> None:
        self.model = model
        self.rng = rng

    def choose(self, history: Sequence[Observation], visible: dict):
        raise NotImplementedError


class ConstantPolicy(Policy):
    def __init__(self, value):
        self.value = value

    def choose(self, history, visible):
        return self.value

    def _steps(self, block):
        dom = self.model.dag.domains[self.model.roles.x]
        if self.value not in dom:
            raise ValueError(f"policy returned {self.value!r}, not a treatment value")
        return [dom.index(self.value)] * block.y.shape[1]


class CptPolicy(Policy):
    """Replays the model's own treatment mechanism, so the adaptive sampler
    reproduces the IID distribution.  As the stand-in for Nature it reads
    the treatment's actual parents, including hidden ones."""

    sees_mechanism = True

    def choose(self, history, visible):
        model, x = self.model, self.model.roles.x
        index = {p: np.array([model.dag.domains[p].index(visible[p])])
                 for p in model.cpts[x].parents}
        return model.dag.domains[x][_draw(model, x, index, self.rng.random(1))[0]]

    def _steps(self, block):
        # one block of uniforms holds the numbers of k scalar draws
        u = self.rng.random(block.y.shape[1])
        return _draw(self.model, self.model.roles.x, block.pre, u)


class _SuccessRatePolicy(Policy):
    """A policy that keeps, per treatment index, how often the target
    outcome followed it; the target defaults to the last outcome value of
    the model the policy is reset for.  Subclasses state their rule as
    ``_pick()``, the treatment index for the next step, and ``_steps`` asks
    it step by step: :class:`EpsilonGreedyPolicy` draws from its own stream
    at every step, so it keeps this path.  :class:`AlternatingAdversaryPolicy`
    applies its rule one run of equal choices at a time."""

    def __init__(self, target_y=None):
        self.target_y = target_y

    def reset(self, model, rng):
        super().reset(model, rng)
        y_dom = model.layout.y_domain
        target = y_dom[-1] if self.target_y is None else self.target_y
        if target not in y_dom:
            raise ValueError(f"target outcome {target!r} is not in the outcome "
                             f"domain {y_dom!r}")
        self._target, self._target_index = target, y_dom.index(target)
        self._dom = model.layout.x_domain
        self._x_index = {xv: i for i, xv in enumerate(self._dom)}
        self._hits = [0] * len(self._dom)
        self._totals = [0] * len(self._dom)
        self._seen = 0

    def _absorb(self, history):
        """Count the observations appended to the history since last time."""
        hits, totals, target = self._hits, self._totals, self._target
        for obs in history[self._seen:]:
            i = self._x_index[obs.x]
            hits[i] += obs.y == target
            totals[i] += 1
        self._seen = len(history)

    def choose(self, history, visible):
        self._absorb(history)
        return self._dom[self._pick()]

    def _steps(self, block):
        hit = (block.y == self._target_index).tolist()
        hits, totals, pick = self._hits, self._totals, self._pick
        chosen = []
        for t in range(block.y.shape[1]):
            i = pick()
            hits[i] += hit[i][t]
            totals[i] += 1
            chosen.append(i)
        return chosen


class EpsilonGreedyPolicy(_SuccessRatePolicy):
    """Mostly picks the treatment with the best running success frequency
    for the target outcome, exploring uniformly with probability epsilon."""

    def __init__(self, epsilon: float, target_y=None):
        if not 0 <= epsilon <= 1:
            raise ValueError("epsilon must be in [0, 1]")
        super().__init__(target_y)
        self.epsilon = epsilon

    def _pick(self) -> int:
        rng, arms = self.rng, len(self._totals)
        if rng.random() < self.epsilon:
            return int(rng.integers(arms))
        hits, totals = self._hits, self._totals
        # unseen arms first
        return max(range(arms), key=lambda i: hits[i] / totals[i] if totals[i] else math.inf)


class AlternatingAdversaryPolicy(_SuccessRatePolicy):
    """Stress policy for the adaptive-regime guarantees: switches to the
    next treatment value whenever the sign of the running success-frequency
    gap between the first two treatment values flips.  Deterministic given
    the history."""

    def reset(self, model, rng):
        super().reset(model, rng)
        self._last_sign = 0
        self._index = 0

    # defined here, not only inherited: the benchmark's span tracer wraps
    # this class's own choose
    def choose(self, history, visible):
        self._absorb(history)
        return self._dom[self._pick()]

    def _rate(self, i: int) -> float:
        return self._hits[i] / self._totals[i] if self._totals[i] else 0.5

    def _sign(self) -> int:
        """The sign of the gap between the first two arms' success rates."""
        gap = self._rate(0) - self._rate(1)
        return (gap > 0) - (gap < 0)

    def _pick(self) -> int:
        if len(self._totals) >= 2:
            sign = self._sign()
            if sign and self._last_sign and sign != self._last_sign:
                self._index = (self._index + 1) % len(self._totals)
            if sign:
                self._last_sign = sign
        return self._index

    def _steps(self, block):
        """``_pick``'s rule one run of equal choices at a time: the picks up
        to the next switch at once, the switching pick by ``_pick``."""
        nx, k = block.y.shape
        # before[i, t]: arm i's target outcomes among the block's first t steps
        before = np.zeros((nx, k + 1), dtype=np.intp)
        np.cumsum(block.y == self._target_index, axis=1, out=before[:, 1:])
        hits, totals = self._hits, self._totals
        chosen = np.empty(k, dtype=np.intp)
        t = 0
        while t < k:
            i = self._index
            end = self._run_end(before[i], t)
            chosen[t:end] = i
            hits[i] += int(before[i, end] - before[i, t])
            totals[i] += end - t
            if end < k:
                i = chosen[end] = self._pick()
                hits[i] += int(before[i, end + 1] - before[i, end])
                totals[i] += 1
                end += 1
            t = end
        return chosen

    def _run_end(self, before: np.ndarray, t: int) -> int:
        """The first step from t on whose pick switches away from the
        current arm, or the block's length; ``_last_sign`` becomes the last
        nonzero sign of the picks before it.  before holds the current
        arm's running count of target outcomes, one more than the block's
        steps (``_steps``).

        Arm i < 2 switches at the first pick whose gap sign is opposite to
        the last nonzero one, which, if there is none yet, is the run's
        first nonzero sign.  Only arm i's rate moves, and the running count
        gives its hits before every pick.  The picks are scanned in windows
        of 16, 256, 4096, ... steps: a run costs in proportion to its
        length, and one over a whole block of 4096 steps takes three."""
        k, i = len(before) - 1, self._index
        if len(self._totals) < 2:
            return k
        if i >= 2:  # arms 0 and 1 stand still, so every pick sees the first one's gap
            sign = self._sign()
            if sign * self._last_sign < 0:
                return t
            self._last_sign = sign or self._last_sign
            return k
        other, n, last = self._rate(1 - i), self._totals[i], self._last_sign
        offset = self._hits[i] - int(before[t])  # arm i's hits before step s: offset + before[s]
        width = 16
        while t < k:
            end = min(t + width, k)
            # arm i's rate at each pick, from its hits and plays before it
            hits, count = offset + before[t:end], n + np.arange(end - t)
            rate = (hits / count if n else
                    np.divide(hits, count, out=np.full(end - t, 0.5), where=count > 0))
            gap = rate - other if i == 0 else other - rate
            if not last:
                nonzero = np.flatnonzero(gap)
                if nonzero.size:
                    last = 1 if gap[nonzero[0]] > 0 else -1
            flips = np.flatnonzero(gap < 0 if last > 0 else gap > 0) if last else ()
            if len(flips):
                self._last_sign = last
                return t + int(flips[0])
            n += end - t
            t = end
            width *= 16
        self._last_sign = last
        return k


def make_policy(spec: str, model: CausalModel) -> Policy:
    """Build a policy from a CLI-style spec string.

    Accepted: ``constant:<value>``, ``iid-from-cpt``,
    ``epsilon-greedy:<epsilon>``, ``adversarial-alternating``.
    """
    name, colon, arg = spec.partition(':')
    if colon and name in ('iid-from-cpt', 'adversarial-alternating'):
        raise ValueError(f"policy {spec!r} takes no argument")
    if name == 'constant':
        dom = model.dag.domains[model.roles.x]
        value = parse_scalar(arg)
        if value not in dom:
            raise ValueError(f"constant policy value {value!r} not in treatment domain")
        return ConstantPolicy(value)
    if name == 'iid-from-cpt':
        return CptPolicy()
    if name == 'epsilon-greedy':
        try:
            return EpsilonGreedyPolicy(float(arg) if arg else 0.1)
        except ValueError:
            raise ValueError(f"policy {spec!r}: epsilon must be a number "
                             f"in [0, 1]") from None
    if name == 'adversarial-alternating':
        return AlternatingAdversaryPolicy()
    raise ValueError(f"unknown policy {spec!r}")


# -- sampling -----------------------------------------------------------------

def _iid_codes(model: CausalModel, n: int, seed) -> np.ndarray:
    """Cell codes of n independent ancestral-sampling draws.

    Each vertex is drawn as ``rng.choice(len(dom), size=k, p=row)`` would
    draw it for the k steps of each parent configuration in turn, in the
    canonical order: ``Generator.choice`` takes k uniforms and counts the
    entries of ``cumsum(row) / cumsum(row)[-1]`` at or below each
    (``searchsorted(side='right')``).  The uniforms of all configurations
    are one ``rng.random(n)``, handed to the steps grouped by configuration
    (a stable sort), and the counts are taken a column at a time, so the
    draws and the generator's state afterwards are those of the calls."""
    n = _require_length(n)
    rng = as_generator(seed)
    roles = model.roles
    index: dict[str, np.ndarray] = {}
    for v in model.dag.topological_order():
        config = _config(model, v, index)
        u = rng.random(n)
        if model.cpts[v].parents:  # the j-th uniform to the j-th step in configuration order
            grouped, u = u, np.empty(n)
            u[np.argsort(config, kind='stable')] = grouped
        index[v] = _at_or_below(model._mechanisms[v].cdf, config, u)
    return model.layout.cell_codes(index[roles.x], index[roles.y],
                                   [index[name] for name in roles.z])


def sample_iid(model: CausalModel, n: int, seed) -> list[Observation]:
    """n independent ancestral-sampling draws, projected onto the roles."""
    return model.layout.decode(_iid_codes(model, n, seed))


def _require_integer(name: str, value) -> int:
    """A count, of any integral type but bool, as an int; a ValueError names it."""
    if not isinstance(value, (bool, np.bool_)):  # Python counts True as 1; a count does not
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_length(n) -> int:
    """n, of any integral type but bool, as a stream length."""
    n = _require_integer('stream length n', n)
    if n < 0:
        raise ValueError(f"stream length n must be >= 0, got {n}")
    return n


def _config(model: CausalModel, v: str, index: dict):
    """Each step's parent configuration of v, coded in the canonical
    (row-major) order by Horner's rule: 0 for a vertex without parents, a
    single parent's own index array; parent index arrays broadcast."""
    parents = model.cpts[v].parents
    if not parents:
        return 0
    config = index[parents[0]]
    for p, size in zip(parents[1:], model._mechanisms[v].sizes[1:]):
        config = config * size + index[p]
    return config


def _at_or_below(columns: tuple, config, threshold: np.ndarray) -> np.ndarray:
    """Per step, how many of the columns' entries at its configuration are
    at or below its threshold: each column is gathered and compared once."""
    drawn = np.zeros(np.shape(threshold), dtype=np.intp)
    for column in columns:
        drawn += column[config] <= threshold
    return drawn


def _draw(model: CausalModel, v: str, index: dict, u: np.ndarray) -> np.ndarray:
    """Vertex v's domain index at every step at once, given its parents'
    indices and one uniform per step: the inverse CDF of each step's CPT
    row, the number of its cumulative entries at or below ``u * cum[-1]``
    (``bisect_right`` on the row).  The last entry, the row's sum s, is
    never counted: for u in [0, 1) and s > 0, ``u * s`` rounds below s.
    The others are compared a column at a time, each column gathered at
    the steps' parent configurations.  Indices and uniforms broadcast, so a
    (|X|, 1) column of treatment indices draws a descendant for every
    treatment value at once.  A single draw is a one-element array."""
    mechanism = model._mechanisms[v]
    config = _config(model, v, index)
    return _at_or_below(mechanism.cum, config, u * mechanism.sums[config])


def _asking(model: CausalModel, policy: Policy, pre: list[str]):
    """The ``_steps`` of a policy asked through ``choose``: at each step it
    is shown the history so far and the step's visible pre-treatment values
    (every one, hidden or not, if it ``sees_mechanism``), and its answer
    must be a treatment value."""
    dag, roles, layout = model.dag, model.roles, model.layout
    role_vars = {roles.x, roles.y, *roles.z}
    shown_names = pre if policy.sees_mechanism else [v for v in pre if v in role_vars]
    x_index = layout.index['x']
    history: list[Observation] = []

    def steps(block: _Block) -> list[int]:
        k = block.cells.shape[1]
        columns = [[dag.domains[v][i] for i in block.pre[v].tolist()] for v in shown_names]
        rows = zip(*columns) if columns else [()] * k
        outcomes = [layout.decode(cells) for cells in block.cells]
        chosen = []
        for t, row in enumerate(rows):
            xv = policy.choose(history, dict(zip(shown_names, row)))
            if xv not in x_index:
                raise ValueError(f"policy returned {xv!r}, not a treatment value")
            i = x_index[xv]
            history.append(outcomes[i][t]._replace(x=xv))
            chosen.append(i)
        return chosen

    return steps


def _adaptive_codes(model: CausalModel, policy: Policy, n: int, seed) -> np.ndarray:
    """Cell codes of n sequential draws with the treatment chosen by the
    policy; see :func:`sample_adaptive`."""
    n = _require_length(n)
    rng = as_generator(seed)
    policy.reset(model, rng.spawn(1)[0])
    layout, roles, (pre, post) = model.layout, model.roles, model._split
    steps = policy._steps or _asking(model, policy, pre)
    nx = layout.shape[0]
    codes = np.empty(n, dtype=np.intp)
    for start in range(0, n, _BLOCK_STEPS):
        k = min(_BLOCK_STEPS, n - start)
        u = rng.random((k, len(pre) + len(post)))
        index: dict[str, np.ndarray] = {}
        for j, v in enumerate(pre):
            index[v] = _draw(model, v, index, u[:, j])
        drawn_pre = dict(index)
        index[roles.x] = np.arange(nx)[:, None]  # every treatment value at once
        for j, v in enumerate(post, start=len(pre)):
            index[v] = _draw(model, v, index, u[:, j])
        cells = layout.cell_codes(index[roles.x], index[roles.y],
                                  [index[name] for name in roles.z])
        block = _Block(drawn_pre, np.broadcast_to(index[roles.y], (nx, k)), cells)
        codes[start:start + k] = cells[steps(block), np.arange(k)]
    return codes


def sample_adaptive(model: CausalModel, policy: Policy, n: int,
                    seed) -> list[Observation]:
    """n sequential draws with the treatment chosen by the policy.

    Per step: pre-treatment vertices (non-descendants of the treatment)
    are drawn from their mechanisms; the policy picks the treatment from
    the history and the visible pre-treatment values; the remaining
    vertices follow their mechanisms.

    Only the policy depends on the past, so the mechanisms are drawn
    column-wise, ``_BLOCK_STEPS`` steps at a time: one uniform per step and
    non-treatment vertex (pre-treatment vertices first, each in topological
    order, as a step-by-step sampler consumes them), the pre-treatment
    columns once, and the treatment's descendants once, for every treatment
    value at once as (|X|, k) arrays, of which each step keeps the policy's
    choice.  The stream is the same as that of scalar draws step by step.
    The built-in policies choose on domain indices (``Policy._steps``); the
    stream is drawn as cell codes and decoded into observations, whose
    values are the domain's own.
    """
    return model.layout.decode(_adaptive_codes(model, policy, n, seed))


def draw_intervened_outcome(model: CausalModel, x_value, seed):
    """One outcome draw from the mutilated model: the treatment vertex is
    pinned to x_value, everything else follows its mechanism."""
    rng = as_generator(seed)
    dag, roles = model.dag, model.roles
    if x_value not in dag.domains[roles.x]:
        raise ValueError(f"{x_value!r} not in the treatment domain")
    index = {}
    for v in dag.topological_order():
        index[v] = (np.array([dag.domains[v].index(x_value)]) if v == roles.x
                    else _draw(model, v, index, rng.random(1)))
    return dag.domains[roles.y][index[roles.y][0]]
