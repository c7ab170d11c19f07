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
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Sequence

import numpy as np

from .counts import CountTable, Observation, parse_scalar
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


class CausalModel:
    """A DAG with conditional probability tables and observation roles."""

    def __init__(self, dag: Dag, cpts: dict, roles: Roles):
        self.dag = dag
        self.roles = Roles(roles.x, roles.y, tuple(roles.z))
        dag.require(roles.x, roles.y, *roles.z)
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

    # -- exact law -------------------------------------------------------

    def _joint(self) -> list[tuple[tuple, float]]:
        if self._joint_cache is None:
            verts = self.dag.vertices
            out = []
            for assignment in product(*(self.dag.domains[v] for v in verts)):
                values = dict(zip(verts, assignment))
                p = 1.0
                for v in verts:
                    cpt = self.cpts[v]
                    row = cpt.rows[tuple(values[q] for q in cpt.parents)]
                    p *= row[self.dag.domains[v].index(values[v])]
                out.append((assignment, p))
            self._joint_cache = out
        return self._joint_cache

    def probability(self, partial: dict) -> float:
        """Exact marginal probability of a partial assignment."""
        self.dag.require(*partial)
        verts = self.dag.vertices
        idx = [(verts.index(name), value) for name, value in partial.items()]
        return sum(p for assignment, p in self._joint()
                   if all(assignment[i] == val for i, val in idx))

    def interventional_probability(self, x_value, y_value) -> float:
        """P(outcome = y) in the mutilated model where the treatment vertex
        is severed from its parents and pinned to x_value."""
        roles, verts = self.roles, self.dag.vertices
        if x_value not in self.dag.domains[roles.x]:
            raise ValueError(f"{x_value!r} not in the treatment domain")
        y_i, x_i = verts.index(roles.y), verts.index(roles.x)
        total = 0.0
        for assignment in product(*(self.dag.domains[v] for v in verts)):
            if assignment[x_i] != x_value or assignment[y_i] != y_value:
                continue
            values = dict(zip(verts, assignment))
            p = 1.0
            for v in verts:
                if v == roles.x:
                    continue
                cpt = self.cpts[v]
                row = cpt.rows[tuple(values[q] for q in cpt.parents)]
                p *= row[self.dag.domains[v].index(values[v])]
            total += p
        return total

    # -- plumbing ----------------------------------------------------------

    def count_table(self) -> CountTable:
        """A CountTable matching this model's observation roles."""
        return CountTable(self.dag.domains[self.roles.x],
                          self.dag.domains[self.roles.y],
                          [self.dag.domains[name] for name in self.roles.z])

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
            return cls(dag, cpts, Roles(roles["x"], roles["y"], tuple(roles["z"])))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed model document: {exc}") from exc


def load_model(path: str) -> CausalModel:
    with open(path, 'r', encoding='utf-8') as handle:
        return CausalModel.from_json(json.load(handle))


# -- policies -----------------------------------------------------------------

class Policy:
    """Treatment rule: a function of the visible history and the current
    step's visible pre-treatment values."""

    #: set by mechanism-replaying policies that may read hidden parents
    sees_mechanism = False

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


class CptPolicy(Policy):
    """Replays the model's own treatment mechanism, so the adaptive sampler
    reproduces the IID distribution.  As the stand-in for Nature it reads
    the treatment's actual parents, including hidden ones."""

    sees_mechanism = True

    def choose(self, history, visible):
        model = self.model
        cpt = model.cpts[model.roles.x]
        row = cpt.rows[tuple(visible[p] for p in cpt.parents)]
        dom = model.dag.domains[model.roles.x]
        return dom[_draw_index(row, self.rng)]


class _SuccessRatePolicy(Policy):
    """A policy that keeps, per treatment value, how often the target
    outcome followed it; the target defaults to the last outcome value of
    the model the policy is reset for."""

    def __init__(self, target_y=None):
        self.target_y = target_y

    def reset(self, model, rng):
        super().reset(model, rng)
        self._target = model.dag.domains[model.roles.y][-1] \
            if self.target_y is None else self.target_y
        self._dom = model.dag.domains[model.roles.x]
        self._stats = {xv: [0, 0] for xv in self._dom}  # [hits, total]
        self._seen = 0

    def _absorb(self, history):
        """Count the observations appended to the history since last time."""
        stats, target = self._stats, self._target
        for obs in history[self._seen:]:
            tally = stats[obs.x]
            tally[0] += obs.y == target
            tally[1] += 1
        self._seen = len(history)


class EpsilonGreedyPolicy(_SuccessRatePolicy):
    """Mostly picks the treatment with the best running success frequency
    for the target outcome, exploring uniformly with probability epsilon."""

    def __init__(self, epsilon: float, target_y=None):
        if not 0 <= epsilon <= 1:
            raise ValueError("epsilon must be in [0, 1]")
        super().__init__(target_y)
        self.epsilon = epsilon

    def choose(self, history, visible):
        self._absorb(history)
        dom = self._dom
        if self.rng.random() < self.epsilon:
            return dom[self.rng.integers(len(dom))]
        def score(xv):
            hits, total = self._stats[xv]
            return hits / total if total else float('inf')  # try unseen arms first
        best = max(dom, key=score)
        return best


class AlternatingAdversaryPolicy(_SuccessRatePolicy):
    """Stress policy for the adaptive-regime guarantees: switches to the
    next treatment value whenever the sign of the running success-frequency
    gap between the first two treatment values flips.  Deterministic given
    the history."""

    def reset(self, model, rng):
        super().reset(model, rng)
        self._last_sign = 0
        self._index = 0

    def choose(self, history, visible):
        self._absorb(history)
        dom = self._dom
        if len(dom) >= 2:
            rates = []
            for xv in dom[:2]:
                hits, total = self._stats[xv]
                rates.append(hits / total if total else 0.5)
            gap = rates[0] - rates[1]
            sign = (gap > 0) - (gap < 0)
            if sign and self._last_sign and sign != self._last_sign:
                self._index = (self._index + 1) % len(dom)
            if sign:
                self._last_sign = sign
        return dom[self._index]


def make_policy(spec: str, model: CausalModel) -> Policy:
    """Build a policy from a CLI-style spec string.

    Accepted: ``constant:<value>``, ``iid-from-cpt``,
    ``epsilon-greedy:<epsilon>``, ``adversarial-alternating``.
    """
    name, _, arg = spec.partition(':')
    if name == 'constant':
        dom = model.dag.domains[model.roles.x]
        value = parse_scalar(arg)
        if value not in dom:
            raise ValueError(f"constant policy value {value!r} not in treatment domain")
        return ConstantPolicy(value)
    if name == 'iid-from-cpt':
        return CptPolicy()
    if name == 'epsilon-greedy':
        return EpsilonGreedyPolicy(float(arg) if arg else 0.1)
    if name == 'adversarial-alternating':
        return AlternatingAdversaryPolicy()
    raise ValueError(f"unknown policy {spec!r}")


# -- sampling -----------------------------------------------------------------

def sample_iid(model: CausalModel, n: int, seed) -> list[Observation]:
    """n independent ancestral-sampling draws, projected onto the roles."""
    _require_length(n)
    rng = as_generator(seed)
    dag = model.dag
    values: dict[str, np.ndarray] = {}
    for v in dag.topological_order():
        dom = dag.domains[v]
        cpt = model.cpts[v]
        if not cpt.parents:
            values[v] = rng.choice(len(dom), size=n, p=cpt.rows[()])
            continue
        idx = np.empty(n, dtype=np.int64)
        parent_idx = [values[p] for p in cpt.parents]
        parent_doms = [dag.domains[p] for p in cpt.parents]
        for config, row in cpt.rows.items():
            mask = np.ones(n, dtype=bool)
            for arr, dom_p, val in zip(parent_idx, parent_doms, config):
                mask &= arr == dom_p.index(val)
            k = int(mask.sum())
            if k:
                idx[mask] = rng.choice(len(dom), size=k, p=row)
        values[v] = idx

    def col(name):
        dom = dag.domains[name]
        return [dom[i] for i in values[name]]

    xs, ys = col(model.roles.x), col(model.roles.y)
    zs = list(zip(*(col(name) for name in model.roles.z)))
    return [Observation(x, y, z) for x, y, z in zip(xs, ys, zs)]


def _require_length(n: int) -> None:
    if n < 0:
        raise ValueError(f"stream length n must be >= 0, got {n}")


def _draw_index(row: Sequence[float], rng: np.random.Generator) -> int:
    cum = list(accumulate(row))
    return bisect_right(cum, rng.random() * cum[-1])


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
    columns once, and the treatment's descendants once for every treatment
    value, of which each step keeps the policy's choice.  The stream is
    the same as that of scalar draws step by step.
    """
    _require_length(n)
    rng = as_generator(seed)
    policy.reset(model, rng.spawn(1)[0])
    dag, roles = model.dag, model.roles
    x_name = roles.x
    desc = dag.descendants(x_name)
    pre = [v for v in dag.topological_order() if v != x_name and v not in desc]
    post = [v for v in dag.topological_order() if v in desc]
    role_vars = {roles.x, roles.y, *roles.z}
    shown_names = pre if policy.sees_mechanism else [v for v in pre if v in role_vars]
    x_dom = dag.domains[x_name]
    # per vertex: its parents' domain sizes and the cumulative CPT rows,
    # one per parent configuration in the canonical (row-major) order
    mechanisms = {v: (tuple(len(dag.domains[p]) for p in cpt.parents),
                      np.cumsum(list(cpt.rows.values()), axis=1))
                  for v, cpt in model.cpts.items()}

    def draw(v, index, u) -> np.ndarray:
        # bisect_right(cum, u * cum[-1]) at every step at once
        sizes, cum = mechanisms[v]
        parents = [index[p] for p in model.cpts[v].parents]
        cum = cum[np.ravel_multi_index(parents, sizes) if parents else 0]
        return (cum <= (u * cum[..., -1])[..., None]).sum(axis=-1)

    def values(name, index) -> list:
        dom = dag.domains[name]
        return [dom[i] for i in index[name].tolist()]

    def rows(columns, k) -> list[tuple]:
        return list(zip(*columns)) if columns else [()] * k

    history: list[Observation] = []
    for start in range(0, n, _BLOCK_STEPS):
        k = min(_BLOCK_STEPS, n - start)
        u = rng.random((k, len(pre) + len(post)))
        index: dict[str, np.ndarray] = {}
        for j, v in enumerate(pre):
            index[v] = draw(v, index, u[:, j])
        shown = [dict(zip(shown_names, row))
                 for row in rows([values(v, index) for v in shown_names], k)]
        outcome = {}  # treatment value -> (outcomes, covariate tuples)
        for i, xv in enumerate(x_dom):
            index[x_name] = np.full(k, i)
            for j, v in enumerate(post, start=len(pre)):
                index[v] = draw(v, index, u[:, j])
            outcome[xv] = (values(roles.y, index),
                           rows([values(name, index) for name in roles.z], k))
        for t in range(k):
            xv = policy.choose(history, shown[t])
            if xv not in outcome:
                raise ValueError(f"policy returned {xv!r}, not a treatment value")
            ys, zs = outcome[xv]
            history.append(Observation(xv, ys[t], zs[t]))
    return history


def draw_intervened_outcome(model: CausalModel, x_value, seed):
    """One outcome draw from the mutilated model: the treatment vertex is
    pinned to x_value, everything else follows its mechanism."""
    rng = as_generator(seed)
    dag, roles = model.dag, model.roles
    if x_value not in dag.domains[roles.x]:
        raise ValueError(f"{x_value!r} not in the treatment domain")
    assignment = {}
    for v in dag.topological_order():
        if v == roles.x:
            assignment[v] = x_value
        else:
            cpt = model.cpts[v]
            row = cpt.rows[tuple(assignment[p] for p in cpt.parents)]
            assignment[v] = dag.domains[v][_draw_index(row, rng)]
    return assignment[roles.y]
