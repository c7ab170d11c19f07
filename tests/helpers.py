"""Shared fixtures-in-spirit: model builders, streams, and independent
oracles (naive recounts + high-precision formula evaluation) used to audit
the production code paths."""

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, permutations, product
from operator import add
from typing import Iterable, Iterator, Mapping

import mpmath as mp
import numpy as np

from causalci.bounds import hoeffding_term, lil_term
from causalci.counts import CountTable, Layout, Observation, ObservationParseError, _csv_cells, \
    _csv_observation, _parse_line
from causalci.effects import EffectInterval, EffectQuery, _bind, _plan
from causalci.graph import Dag, format_path
from causalci.simulator import CausalModel, Cpt, Policy, Roles, as_generator

mp.mp.dps = 40


# -- models ---------------------------------------------------------------

def fig1_model(pz1=0.4, px1_given_z=(0.5, 0.5), py1_given_xz=None):
    """Binary confounded triangle Z->X, Z->Y, X->Y (Z observed)."""
    if py1_given_xz is None:
        py1_given_xz = {(0, 0): 0.2, (0, 1): 0.5, (1, 0): 0.3, (1, 1): 0.8}
    dag = Dag(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "Y")],
              {"Z": (0, 1), "X": (0, 1), "Y": (0, 1)})
    cpts = {
        "Z": Cpt((), {(): (1 - pz1, pz1)}),
        "X": Cpt(("Z",), {(z,): (1 - px1_given_z[z], px1_given_z[z]) for z in (0, 1)}),
        "Y": Cpt(("X", "Z"), {(x, z): (1 - py1_given_xz[(x, z)], py1_given_xz[(x, z)])
                              for x in (0, 1) for z in (0, 1)}),
    }
    return CausalModel(dag, cpts, Roles("X", "Y", ("Z",)))


def frontdoor_model(pu1=0.3, px1_given_u=(0.2, 0.8), pm1_given_x=(0.3, 0.7),
                    py1_given_mu=None):
    """Binary mediation chain X->M->Y with hidden confounder U->X, U->Y."""
    if py1_given_mu is None:
        py1_given_mu = {(0, 0): 0.2, (0, 1): 0.5, (1, 0): 0.6, (1, 1): 0.9}
    dag = Dag(["U", "X", "M", "Y"],
              [("U", "X"), ("U", "Y"), ("X", "M"), ("M", "Y")],
              {v: (0, 1) for v in "UXMY"})
    cpts = {
        "U": Cpt((), {(): (1 - pu1, pu1)}),
        "X": Cpt(("U",), {(u,): (1 - px1_given_u[u], px1_given_u[u]) for u in (0, 1)}),
        "M": Cpt(("X",), {(x,): (1 - pm1_given_x[x], pm1_given_x[x]) for x in (0, 1)}),
        "Y": Cpt(("M", "U"), {(m, u): (1 - py1_given_mu[(m, u)], py1_given_mu[(m, u)])
                              for m in (0, 1) for u in (0, 1)}),
    }
    return CausalModel(dag, cpts, Roles("X", "Y", ("M",)))


def three_valued_model():
    """Three-valued treatment and outcome with a hidden pre-treatment
    confounder U->X, U->Y and a two-component Z: Z1 before the treatment
    (Z1->X, Z1->Y) and Z2 after it (X->Z2->Y).  Outcome values are strings
    and some rows hold zero probabilities (repeated cumulative values)."""
    rng = np.random.default_rng(2026)
    doms = {"U": (0, 1), "Z1": (0, 1), "X": (0, 1, 2), "Z2": (0, 1, 2),
            "Y": ("lo", "mid", "hi")}
    parents = {"U": (), "Z1": (), "X": ("U", "Z1"), "Z2": ("X",),
               "Y": ("U", "Z1", "Z2")}
    cpts = {}
    for v, pa in parents.items():
        rows = {}
        for i, config in enumerate(product(*(doms[p] for p in pa))):
            row = rng.dirichlet(np.ones(len(doms[v])))
            if len(row) == 3 and i % 3 == 1:
                row[i % 2] = 0.0  # a zero entry
                row /= row.sum()
            rows[config] = tuple(row.tolist())
        cpts[v] = Cpt(pa, rows)
    edges = [(p, v) for v, pa in parents.items() for p in pa]
    return CausalModel(Dag(list(doms), edges, doms), cpts, Roles("X", "Y", ("Z1", "Z2")))


def fig1_dag():
    return Dag(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "Y")])


def napkin_dag():
    return Dag(["U", "V", "W", "Z", "X", "Y"],
               [("W", "Z"), ("Z", "X"), ("X", "Y"), ("V", "W"), ("V", "X"),
                ("U", "W"), ("U", "Y")])


# -- streams ---------------------------------------------------------------

def eight_obs_stream():
    """(z, x, y) rows (0,1,1),(0,1,0),(0,0,1),(1,1,1),(1,1,1),(1,0,0),
    (0,1,1),(1,1,0) as observations; the treated value is 1."""
    rows = [(0, 1, 1), (0, 1, 0), (0, 0, 1), (1, 1, 1),
            (1, 1, 1), (1, 0, 0), (0, 1, 1), (1, 1, 0)]
    return [Observation(x, y, (z,)) for z, x, y in rows]


def code_rows(table, rows):
    """The cell codes of observations for ``table.ingest_codes``, each coded
    by the domain check ``CountTable.ingest`` makes, which raises on an
    invalid row."""
    ny, nz = len(table.layout.y_domain), len(table.layout.z_values)
    return np.array([(x * ny + y) * nz + z for x, y, z in map(table.layout.indices, rows)],
                    dtype=np.intp)


def binary_table(stream=()):
    table = CountTable(Layout((0, 1), (0, 1), ((0, 1),)))
    for obs in stream:
        table.ingest(obs)
    return table


def random_table(rng, min_n=5, max_n=1200):
    """A CountTable over random finite domains filled with a random
    categorical stream; returns (table, observations)."""
    cx = int(rng.integers(2, 4))
    cy = int(rng.integers(2, 4))
    z_doms = [tuple(range(rng.integers(2, 4)))
              for _ in range(int(rng.integers(1, 3)))]
    n = int(rng.integers(min_n, max_n))
    x_dom, y_dom = tuple(range(cx)), tuple(range(cy))
    cells = [(x, y, z) for x in x_dom for y in y_dom
             for z in product(*z_doms)]
    probs = rng.random(len(cells)) + 1e-3
    probs /= probs.sum()
    draws = rng.choice(len(cells), size=n, p=probs)
    obs = [Observation(*cells[i]) for i in draws]
    table = CountTable(Layout(x_dom, y_dom, z_doms))
    table.ingest_codes(code_rows(table, obs))
    return table, obs


def grid_table(cx, cz, n, treated):
    """Deterministic table with exact treated count: `treated` observations
    carry x=0 cycling through z cells, the rest cycle over the other
    (x, z) cells.  All cells are hit when treated >= cz and
    n - treated >= (cx-1)*cz."""
    obs = []
    for i in range(treated):
        obs.append(Observation(0, 0, (i % cz,)))
    others = [(x, z) for x in range(1, cx) for z in range(cz)]
    for i in range(n - treated):
        x, z = others[i % len(others)]
        obs.append(Observation(x, 0, (z,)))
    table = CountTable(Layout(tuple(range(cx)), (0, 1), (tuple(range(cz)),)))
    table.ingest_codes(code_rows(table, obs))
    return table


# -- reference sampler (oracle side) ----------------------------------------

def _cumulative_rows(model: CausalModel) -> dict:
    out = {}
    for v, cpt in model.cpts.items():
        out[v] = {config: list(accumulate(row)) for config, row in cpt.rows.items()}
    return out


def reference_sample_adaptive(model: CausalModel, policy: Policy, n: int,
                              seed) -> list[Observation]:
    """The step-by-step adaptive sampler: one scalar inverse-CDF draw per
    vertex per step, in the order pre-treatment vertices, policy, the
    treatment's descendants.  sample_adaptive must return the same stream."""
    rng = as_generator(seed)
    policy.reset(model, rng.spawn(1)[0])
    dag, roles = model.dag, model.roles
    x_name = roles.x
    desc = dag.descendants(x_name)
    pre = [v for v in dag.topological_order() if v != x_name and v not in desc]
    post = [v for v in dag.topological_order() if v in desc]
    role_vars = {roles.x, roles.y, *roles.z}
    visible_pre = [v for v in pre if v in role_vars]
    x_dom = set(dag.domains[x_name])
    cum = _cumulative_rows(model)

    def draw(v, assignment):
        cpt = model.cpts[v]
        crow = cum[v][tuple(assignment[p] for p in cpt.parents)]
        return dag.domains[v][bisect_right(crow, rng.random() * crow[-1])]

    history: list[Observation] = []
    for _ in range(n):
        assignment = {}
        for v in pre:
            assignment[v] = draw(v, assignment)
        if policy.sees_mechanism:
            shown = dict(assignment)
        else:
            shown = {name: assignment[name] for name in visible_pre}
        xv = policy.choose(history, shown)
        if xv not in x_dom:
            raise ValueError(f"policy returned {xv!r}, not a treatment value")
        assignment[x_name] = xv
        for v in post:
            assignment[v] = draw(v, assignment)
        history.append(Observation(assignment[x_name], assignment[roles.y],
                                   tuple(assignment[name] for name in roles.z)))
    return history


# -- reference JSONL reader (oracle side) -----------------------------------

def reference_read_jsonl(lines):
    """``read_jsonl`` without its line cache: every line is parsed."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservationParseError(lineno, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise ObservationParseError(lineno, "expected a JSON object")
        if lineno == 1 and 'format_version' in rec and 'x' not in rec:
            continue
        try:
            x, y, z = rec['x'], rec['y'], rec['z']
        except KeyError as exc:
            raise ObservationParseError(lineno, f"missing field {exc.args[0]!r}") from exc
        if not isinstance(z, list):
            raise ObservationParseError(lineno, "field 'z' must be an array")
        yield Observation(x, y, tuple(z))


def reference_read_csv(lines, columns):
    """``read_csv`` of well-formed rows without its cache: every row is parsed."""
    def value(cell):
        try:
            return json.loads(cell)
        except json.JSONDecodeError:
            return cell
    for row in csv.DictReader(lines):
        x, y, *z = (value(row[c]) for c in [columns['x'], columns['y'], *columns['z']])
        yield Observation(x, y, tuple(z))


# -- the row path (oracle side) ----------------------------------------------
# the reference every bulk path of CountTable is checked against: each line
# parsed as read_jsonl or read_csv parses it, with no cache and no chunks, then
# CountTable.ingest row by row

class ObservationStream:
    """Observations parsed from text lines one row at a time, remembering
    where they are.

    Iterating yields :class:`Observation` rows.  ``line`` is the 1-based
    number of the last line read, which is the last line of the row most
    recently yielded, so an error found while handling that row can name
    its line.  Leaving a ``with`` block closes the lines' file.
    """

    def __init__(self, lines: Iterable[str], columns: dict | None = None):
        self.line = 0
        self._lines = lines
        self._rows = self._csv_rows(columns) if columns else self._jsonl_rows()

    def _jsonl_rows(self) -> Iterator[Observation]:
        for self.line, text in enumerate(self._lines, start=1):
            obs = _parse_line(self.line, text)
            if obs is not None:
                yield obs

    def _csv_rows(self, columns: dict) -> Iterator[Observation]:
        for self.line, cells in _csv_cells(self._lines, columns):
            yield _csv_observation(self.line, cells)

    def __iter__(self) -> Iterator[Observation]:
        return self._rows

    def __enter__(self) -> "ObservationStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self._lines.close()


# -- naive recounts (oracle side) -------------------------------------------

def naive_dyadic_floor(n):
    if n < 2:
        return 1
    p = 2
    while p * 2 <= n:
        p *= 2
    return p


def naive_count(obs, x=None, y=None, z=None, upto=None):
    sub = obs if upto is None else obs[:upto]
    hits = 0
    for o in sub:
        if x is not None and o.x != x:
            continue
        if y is not None and o.y != y:
            continue
        if z is not None and o.z != z:
            continue
        hits += 1
    return hits


def dyadic_rows(obs, conditions):
    """The 1-based rows at which the count of some condition in
    ``conditions`` (each a dict of x and z values, {} for the whole stream)
    reaches a power of two."""
    rows = set()
    for cond in conditions:
        seen = 0
        for t, o in enumerate(obs, start=1):
            if all(getattr(o, k) == v for k, v in cond.items()):
                seen += 1
                if seen & (seen - 1) == 0:
                    rows.add(t)
    return rows


def read_conditions(criterion, x, xs, zs):
    """The conditions of the probabilities that an anytime query for
    P(y | do(x)) estimates: the whole stream and (x, z) for the back-door
    formula; the whole stream, x and every (x', z) for the front-door one."""
    if criterion == 'backdoor':
        return [{}] + [{'x': x, 'z': z} for z in zs]
    return [{}, {'x': x}] + [{'x': v, 'z': z} for v in xs for z in zs]


def naive_dyadic_estimate(obs, event, cond, upto=None):
    """Fraction of the first naive_dyadic_floor(#cond) condition
    occurrences that match the event; None with no occurrences."""
    sub = obs if upto is None else obs[:upto]
    occ = [o for o in sub if cond(o)]
    if not occ:
        return None
    k = naive_dyadic_floor(len(occ))
    return sum(1 for o in occ[:k] if event(o)) / k


# -- single-delta radii ---------------------------------------------------------

@dataclass(frozen=True)
class Radius:
    """A non-negative half-width; ``unbounded`` means "no information"."""

    value: float

    def __post_init__(self):
        if not (self.value >= 0):
            raise ValueError("radius must be non-negative")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value)

    def __float__(self) -> float:
        return self.value


UNBOUNDED = Radius(math.inf)


def _check_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def hoeffding_halfwidth(n: int, delta: float) -> Radius:
    """Fixed-n radius of a (1-delta) confidence interval for a Bernoulli
    mean estimated from n observations."""
    _check_delta(delta)
    return Radius(hoeffding_term(n, 2 / delta))


def lil_halfwidth(n: int, delta: float) -> Radius:
    """Radius of a (1-delta) confidence sequence at time n, paired with the
    mean of the first dyadic_floor(n) observations.  Constant on each
    dyadic block [2**k, 2**(k+1)); unbounded for n < 2."""
    _check_delta(delta)
    return Radius(lil_term(n, 3.3 / delta))


# -- high-precision half-width formulas --------------------------------------

def mp_hoeff(n, ratio):
    if n == 0:
        return mp.inf
    return mp.sqrt(mp.log(ratio) / (2 * n))


def mp_lil(count, ratio):
    k = naive_dyadic_floor(count)
    if k < 2:
        return mp.inf
    j = round(math.log2(k))
    return mp.sqrt((2 * mp.log(j) + mp.log(ratio)) / (2 * k))


def _sizes(table):
    return len(table.layout.x_domain), len(table.layout.z_values)


def mp_backdoor_iid_halfwidth(table, obs, xt, delta, toy=False):
    _, cz = _sizes(table)
    ratio = (mp.mpf(6) if toy else 4 * mp.mpf(cz)) / mp.mpf(delta)
    hw = cz * mp_hoeff(len(obs), ratio)
    for z in table.layout.z_values:
        hw += mp_hoeff(naive_count(obs, x=xt, z=z), ratio)
    return hw


def mp_backdoor_adaptive_halfwidth(table, obs, xt, delta, toy=False):
    _, cz = _sizes(table)
    h_ratio = (mp.mpf(6) if toy else 4 * mp.mpf(cz)) / mp.mpf(delta)
    l_ratio = (mp.mpf(10) if toy else mp.mpf('6.6') * cz) / mp.mpf(delta)
    hw = cz * mp_hoeff(len(obs), h_ratio)
    for z in table.layout.z_values:
        hw += mp_lil(naive_count(obs, x=xt, z=z), l_ratio)
    return hw


def mp_backdoor_anytime_halfwidth(table, obs, xt, delta, toy=False, upto=None):
    _, cz = _sizes(table)
    n = len(obs) if upto is None else upto
    ratio = (mp.mpf(10) if toy else mp.mpf('6.6') * cz) / mp.mpf(delta)
    hw = cz * mp_lil(n, ratio)
    for z in table.layout.z_values:
        hw += mp_lil(naive_count(obs, x=xt, z=z, upto=n), ratio)
    return hw


def mp_frontdoor_iid_halfwidth(table, obs, xt, delta, form='expanded'):
    cx, cz = _sizes(table)
    k = cx * cz + cx + cz
    ratio = 2 * mp.mpf(k) / mp.mpf(delta)
    coeff_n = {'expanded': cx * cz, 'horner-z': cx * cz, 'horner-x': cx}[form]
    coeff_t = {'expanded': cx * cz, 'horner-z': cz, 'horner-x': cx * cz}[form]
    hw = coeff_n * mp_hoeff(len(obs), ratio)
    hw += coeff_t * mp_hoeff(naive_count(obs, x=xt), ratio)
    for xv in table.layout.x_domain:
        for z in table.layout.z_values:
            hw += mp_hoeff(naive_count(obs, x=xv, z=z), ratio)
    return hw


def mp_frontdoor_adaptive_halfwidth(table, obs, xt, delta):
    cx, cz = _sizes(table)
    k = cx * cz + cx + cz
    h_ratio = 2 * mp.mpf(k) / mp.mpf(delta)
    l_ratio = mp.mpf('3.3') * k / mp.mpf(delta)
    hw = cx * cz * mp_hoeff(len(obs), h_ratio)
    hw += cx * cz * mp_lil(naive_count(obs, x=xt), l_ratio)
    for xv in table.layout.x_domain:
        for z in table.layout.z_values:
            hw += mp_lil(naive_count(obs, x=xv, z=z), l_ratio)
    return hw


def mp_frontdoor_anytime_halfwidth(table, obs, xt, delta, upto=None):
    cx, cz = _sizes(table)
    n = len(obs) if upto is None else upto
    k = cx * cz + cx + cz
    ratio = mp.mpf('3.3') * k / mp.mpf(delta)
    hw = cx * cz * mp_lil(n, ratio)
    hw += cx * cz * mp_lil(naive_count(obs, x=xt, upto=n), ratio)
    for xv in table.layout.x_domain:
        for z in table.layout.z_values:
            hw += mp_lil(naive_count(obs, x=xv, z=z, upto=n), ratio)
    return hw


def mp_backdoor_iid_midpoint(table, obs, xt, yv):
    if not obs:
        return mp.mpf(0)
    total = mp.mpf(0)
    for z in table.layout.z_values:
        c_xz = naive_count(obs, x=xt, z=z)
        if c_xz:
            cond = mp.mpf(naive_count(obs, x=xt, y=yv, z=z)) / c_xz
            total += cond * mp.mpf(naive_count(obs, z=z)) / len(obs)
    return total


# -- naive midpoint recounts ---------------------------------------------------

def _zero(v):
    return 0.0 if v is None else v


def naive_midpoint(table, obs, xt, yv, criterion, regime, upto=None):
    """Plug-in adjustment midpoint recomputed from the raw stream with the
    naive prefix logic (independent of the table's checkpoint machinery)."""
    n = len(obs) if upto is None else upto
    sub = obs[:n]
    if n == 0:
        return 0.0

    def ddot(event, cond):
        return _zero(naive_dyadic_estimate(obs, event, cond, upto=n))

    if criterion == 'backdoor':
        total = 0.0
        for z in table.layout.z_values:
            cond = (lambda o, z=z: o.x == xt and o.z == z)
            event = (lambda o: o.y == yv)
            if regime == 'iid':
                c = naive_count(sub, x=xt, z=z)
                factor = naive_count(sub, x=xt, y=yv, z=z) / c if c else 0.0
                marg = naive_count(sub, z=z) / n
            elif regime == 'adaptive-fixed':
                factor = ddot(event, cond)
                marg = naive_count(sub, z=z) / n
            else:
                factor = ddot(event, cond)
                marg = ddot(lambda o, z=z: o.z == z, lambda o: True)
            total += factor * marg
        return total

    total = 0.0
    for z in table.layout.z_values:
        if regime == 'iid':
            c = naive_count(sub, x=xt)
            pz = naive_count(sub, x=xt, z=z) / c if c else 0.0
        else:
            pz = ddot(lambda o, z=z: o.z == z, lambda o: o.x == xt)
        inner = 0.0
        for xv in table.layout.x_domain:
            if regime == 'iid':
                c = naive_count(sub, x=xv, z=z)
                py = naive_count(sub, x=xv, y=yv, z=z) / c if c else 0.0
            else:
                py = ddot(lambda o: o.y == yv,
                          lambda o, xv=xv, z=z: o.x == xv and o.z == z)
            if regime == 'anytime':
                px = ddot(lambda o, xv=xv: o.x == xv, lambda o: True)
            else:
                px = naive_count(sub, x=xv) / n
            inner += py * px
        total += pz * inner
    return total


# -- naive d-separation oracle ------------------------------------------------

def oracle_paths(vertices, edges, a, b):
    """All simple undirected paths from a to b by filtering every vertex
    sequence (pure brute force; fine for <= 7 vertices)."""
    adjacent = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    rest = [v for v in vertices if v not in (a, b)]
    found = []
    for r in range(len(rest) + 1):
        for middle in permutations(rest, r):
            path = (a, *middle, b)
            if all((u, v) in adjacent for u, v in zip(path, path[1:])):
                found.append(path)
    return found


def oracle_descendants(edges, v):
    desc = set()
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            if a == u and b not in desc:
                desc.add(b)
                frontier.append(b)
    return desc


def oracle_blocked(path, cond, edges):
    cond = set(cond)
    edge_set = set(edges)
    for i in range(1, len(path) - 1):
        v = path[i]
        into_prev = (path[i - 1], v) in edge_set
        into_next = (path[i + 1], v) in edge_set
        if into_prev and into_next:
            if not cond & ({v} | oracle_descendants(edges, v)):
                return True
        elif v in cond:
            return True
    return False


def oracle_backdoor(vertices, edges, xs, ys, zs):
    for xv in xs:
        for zv in zs:
            if zv in oracle_descendants(edges, xv):
                return False
    edge_set = set(edges)
    for xv in xs:
        for yv in ys:
            for path in oracle_paths(vertices, edges, xv, yv):
                if (path[1], xv) in edge_set and not oracle_blocked(path, zs, edges):
                    return False
    return True


def oracle_frontdoor(vertices, edges, x, y, zs):
    edge_set = set(edges)
    for path in oracle_paths(vertices, edges, x, y):
        directed = all((u, v) in edge_set for u, v in zip(path, path[1:]))
        if directed and not set(path[1:-1]) & set(zs):
            return False
    for zv in zs:
        for path in oracle_paths(vertices, edges, x, zv):
            if (path[1], x) in edge_set and not oracle_blocked(path, set(), edges):
                return False
        for path in oracle_paths(vertices, edges, zv, y):
            if (path[1], zv) in edge_set and not oracle_blocked(path, {x}, edges):
                return False
    return True


def random_dag(rng, max_vertices=6, p_edge=0.4, min_vertices=3):
    """Random DAG over a random topological order."""
    k = int(rng.integers(min_vertices, max_vertices + 1))
    names = [f"V{i}" for i in range(k)]
    order = list(rng.permutation(k))
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < p_edge:
                edges.append((names[order[i]], names[order[j]]))
    return Dag(names, edges)


# -- the criterion checks by listing every path, then filtering it -----------

def reference_paths(dag, a, b, directed=False):
    """Simple paths from a to b, by recursion depth first over neighbours
    (children only if directed) in declaration order: the order in which
    the checks report their witnesses."""
    order = {v: i for i, v in enumerate(dag.vertices)}
    near = {v: sorted(dag.children(v) + (() if directed else dag.parents(v)),
                      key=order.get) for v in dag.vertices}
    paths, stack = [], [a]

    def walk(v):
        for w in near[v]:
            if w == b:
                paths.append((*stack, b))
            elif w not in stack:
                stack.append(w)
                walk(w)
                stack.pop()

    walk(a)
    return paths


def _open_backdoor_paths(dag, a, b, cond):
    return [format_path(dag, p) for p in reference_paths(dag, a, b)
            if (p[1], a) in dag.edges and not oracle_blocked(p, cond, dag.edges)]


def reference_check_backdoor(dag, xs, ys, zs):
    """The violations of check_backdoor, listed path by path."""
    xs, ys, zs = (sorted(s, key=dag.vertices.index) for s in (xs, ys, zs))
    return tuple([f"{zv} is a descendant of {xv}" for xv in xs for zv in zs
                  if zv in oracle_descendants(dag.edges, xv)]
                 + [f"unblocked backdoor path {p}" for xv in xs for yv in ys
                    for p in _open_backdoor_paths(dag, xv, yv, zs)])


def reference_check_frontdoor(dag, x, y, zs):
    """The violations of check_frontdoor, listed path by path."""
    zs = sorted(zs, key=dag.vertices.index)
    violations = [f"directed path {format_path(dag, p)} avoids the set"
                  for p in reference_paths(dag, x, y, directed=True)
                  if not set(zs) & set(p[1:-1])]
    for zv in zs:
        violations += [f"unblocked backdoor path {p} into the set"
                       for p in _open_backdoor_paths(dag, x, zv, ())]
        violations += [f"backdoor path {p} not blocked by {x}"
                       for p in _open_backdoor_paths(dag, zv, y, {x})]
    return tuple(violations)


# -- interval arithmetic and the expression route (oracle side) --------------
# Clipped interval arithmetic on [0,1] and radius propagation.
#
# A ProbInterval is ``midpoint ± halfwidth`` realized as the subset
# ``[mid-hw, mid+hw] ∩ [0,1]``; an infinite halfwidth realizes exactly
# [0,1].  The binary operations return the *sound superset* forms
#
#     (a ± Δa) + (b ± Δb)  ⊆  (a+b) ± (Δa+Δb)
#     (a ± Δa) × (b ± Δb)  ⊆  (a·b) ± (Δa+Δb)
#
# rather than the tight products, because the effect half-widths are defined
# in terms of these forms.  Evaluating an expression tree of +, −, × over
# bound intervals therefore yields midpoint = expression at the midpoints
# and halfwidth = sum of the leaf halfwidths counted with multiplicity
# (every occurrence of a variable contributes once).
#
# Midpoints may leave [0,1] transiently (after a subtraction); only realized
# sets are clipped.
#
# Guarantee domain: the superset property (pointwise composed set inside
# midpoint ± summed radii) is proved by induction over the operations, and
# the product step needs both operand midpoints in [0,1].  It therefore
# holds whenever every node of the tree evaluates, at the bound midpoints,
# to a value in [0,1] — true for every probability-adjustment polynomial,
# whose partial sums are estimate-weighted averages.  Outside that domain
# (an intermediate midpoint above 1 whose clipped set is still non-empty)
# the product rule can genuinely under-cover.  The oracles below sample the
# pointwise semantics (``exact_range``) and check the condition
# (``node_midpoints``); interval_via_expression rebuilds every effect
# interval through this calculus.

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


def interval_via_expression(table: CountTable, query: EffectQuery,
                            n: int | None = None) -> EffectInterval:
    """Rebuild the same interval through the generic machinery: bind every
    estimated probability to midpoint ± radius, form the adjustment
    polynomial as an expression tree, and propagate.  Agrees with the
    direct construction up to floating-point summation order; used as a
    structural cross-check of the multiplicities."""
    families, n, estimates, radii = _bind(table, query, n)
    leaves, bindings, cells = [], {}, zip(estimates[0].tolist(), radii[0].tolist())
    for fam in families:
        names = [f"{fam.name}{k}" for k in range(len(fam.cells))]
        leaves.append([Var(name) for name in names])
        bindings.update((name, ProbInterval(*pair)) for name, pair in zip(names, cells))
    if query.criterion == 'backdoor':
        terms = [cond * marg for marg, cond in zip(*leaves)]
    else:
        treat, med, out = leaves
        out = [out[j * len(med):(j + 1) * len(med)] for j in range(len(treat))]
        if query.frontdoor_form == 'horner-z':
            terms = [pz * reduce(add, [out[j][i] * px for j, px in enumerate(treat)])
                     for i, pz in enumerate(med)]
        elif query.frontdoor_form == 'horner-x':
            terms = [px * reduce(add, [out[j][i] * pz for i, pz in enumerate(med)])
                     for j, px in enumerate(treat)]
        else:
            terms = [(pz * out[j][i]) * px for i, pz in enumerate(med)
                     for j, px in enumerate(treat)]
    result = eval_expr(reduce(add, terms), bindings)
    return EffectInterval.build(n, result.midpoint, result.halfwidth)


def loop_interval(table: CountTable, query: EffectQuery, n: int | None = None
                  ) -> EffectInterval:
    """The interval as scalar loops compute it, one leaf at a time: each
    cell's (count, hits) from ``table.leaf``, its estimate hits / count and
    its radius, then the polynomial and the radii summed left to right in
    Python floats, a term whose w or b is 0 skipped.  The array evaluator
    must give these floats bit for bit, at every prefix."""
    n = table.n if n is None else n
    families = _plan(query, table.layout)[0]
    bound = []
    for fam in families:
        radius, row = lil_term if fam.dyadic else hoeffding_term, []
        for event, given in fam.cells:
            count, hits = table.leaf(event, given, n if fam.dyadic else None)
            row.append((hits / count if count else 0.0, radius(count, fam.ratio)))
        bound.append(row)
    iw, ia, ib = (0, 1, None) if query.criterion == 'backdoor' else (1, 2, 0)
    w, a = bound[iw], bound[ia]
    b = [(1.0, 0.0)] if ib is None else bound[ib]
    mid = 0.0
    for i, (wz, _) in enumerate(w):
        if wz != 0.0:
            inner = 0.0
            for j, (bj, _) in enumerate(b):
                if bj != 0.0:
                    inner += a[j * len(w) + i][0] * bj
            mid += wz * inner
    hw = 0.0
    for fam, pairs in zip(families, bound):
        if fam.shared:
            hw += (len(pairs) * fam.mult) * pairs[0][1]
        else:
            for _, r in pairs:
                hw += fam.mult * r
    return EffectInterval.build(n, mid, hw)


# -- interval-composition oracles -------------------------------------------
# exact_range samples the pointwise semantics of the interval operations,
# where each operation's result set is intersected with [0,1]; sampled
# combinations whose value escapes [0,1] at an intermediate node are
# infeasible and dropped, so the reported range never overstates the true
# composed set.  node_midpoints checks the guarantee's domain (see the
# interval-arithmetic section above).

def node_midpoints(expr: Expr, bindings: Mapping[str, ProbInterval]) -> list[float]:
    """Midpoint evaluation of every node (leaves included), root last.

    The composition guarantee — exact_range inside eval_expr's realized
    set — holds when all of these lie in [0,1]; see the interval-arithmetic
    section above.
    """
    out: list[float] = []

    def walk(node: Expr) -> float:
        if isinstance(node, Var):
            try:
                value = bindings[node.name].midpoint
            except KeyError:
                raise ValueError(f"unbound variable {node.name!r}") from None
        else:
            assert isinstance(node, BinOp)
            left = walk(node.left)
            right = walk(node.right)
            value = {'+': left + right, '-': left - right,
                     '*': left * right}[node.op]
        out.append(value)
        return value

    walk(expr)
    return out


MAX_EXACT_LEAVES = 12


def exact_range(expr: Expr, bindings: Mapping[str, ProbInterval],
                grid: int = 4) -> tuple[float, float] | None:
    """Sampled range of the pointwise interval-composition semantics.

    Every leaf occurrence ranges independently over its binding's realized
    set (repeats of the same variable are treated as independent, matching
    the duplicate-counting halfwidth accounting).  Samples are the
    realized endpoints plus a small grid; each operation's values are
    restricted to [0,1], combinations escaping it are dropped.  Returns
    None when the composed set is empty.  Because the tree is multilinear
    in every leaf occurrence and clipping is monotone, the endpoint
    samples alone already attain the extrema of the feasible combinations.
    """
    occurrences = list(expr.leaves())
    if len(occurrences) > MAX_EXACT_LEAVES:
        raise ValueError(f"expression too large ({len(occurrences)} leaves, "
                         f"max {MAX_EXACT_LEAVES})")
    axes = []
    for leaf in occurrences:
        if leaf.name not in bindings:
            raise ValueError(f"unbound variable {leaf.name!r}")
        realized = bindings[leaf.name].realized()
        if realized is None:
            return None
        lo, hi = realized
        pts = np.unique(np.concatenate([np.linspace(lo, hi, max(grid, 2)), [lo, hi]]))
        axes.append(pts)
    total = math.prod(len(a) for a in axes)
    if total > 300_000:  # corners still attain the extrema
        axes = [np.unique(np.array([a[0], a[-1]])) for a in axes]
    mesh = np.meshgrid(*axes, indexing='ij')
    columns = iter(m.reshape(-1) for m in mesh)

    def walk(node: Expr) -> np.ndarray:
        if isinstance(node, Var):
            return next(columns)
        assert isinstance(node, BinOp)
        left = walk(node.left)
        right = walk(node.right)
        if node.op == '+':
            vals = left + right
        elif node.op == '-':
            vals = left - right
        else:
            vals = left * right
        return np.where((vals < 0.0) | (vals > 1.0), np.nan, vals)

    values = walk(expr)
    if np.all(np.isnan(values)):
        return None
    return float(np.nanmin(values)), float(np.nanmax(values))


# fig1's roles are x X, y Y and z [Z]; each case overrides some of them
MALFORMED_ROLES = [
    ({"z": ["Z", "Z"]}, "roles.z names 'Z', which roles.z names too: the roles name "
                        "distinct vertices"),
    ({"z": ["X"]}, "roles.z names 'X', which roles.x names too: the roles name "
                   "distinct vertices"),
    ({"z": ["Z", "Y"]}, "roles.z names 'Y', which roles.y names too: the roles name "
                        "distinct vertices"),
    ({"y": "X"}, "roles.y names 'X', which roles.x names too: the roles name "
                 "distinct vertices"),
    ({"z": []}, "roles.z must be a non-empty JSON list of variables, got []"),
    ({"z": "ZW"}, "roles.z must be a non-empty JSON list of variables, got 'ZW'"),
    ({"z": "Z"}, "roles.z must be a non-empty JSON list of variables, got 'Z'"),
]
