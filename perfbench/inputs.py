"""Seeded inputs for the causalci benchmark.

Observation streams come from this module's own ancestral sampler over a
model document's CPTs, not from ``causalci.simulator``, so a change to the
library's sampler cannot change what ``analyze`` is given.  The DAG set is
drawn from the same seed.  Everything here depends only on numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CHUNK = 10_000


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, 'rb') as handle:
        for block in iter(lambda: handle.read(1 << 20), b''):
            digest.update(block)
    return digest.hexdigest()


# -- observation streams ------------------------------------------------------

@dataclass
class Stream:
    """A generated stream: domain-index columns plus the JSONL file."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray  # one column per z component, shape (n, |roles.z|)
    x_domain: tuple
    y_domain: tuple
    z_domains: tuple
    path: Path
    sha256: str


def _topological(names: list[str], edges: list) -> list[str]:
    indegree = {v: 0 for v in names}
    children = {v: [] for v in names}
    for a, b in edges:
        indegree[b] += 1
        children[a].append(b)
    ready = [v for v in names if indegree[v] == 0]
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in children[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    if len(order) != len(names):
        raise ValueError("model graph has a cycle")
    return order


def sample_model(doc: dict, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """n ancestral draws from a model document; domain indices per vertex."""
    domains = {v['name']: list(v['domain']) for v in doc['variables']}
    drawn: dict[str, np.ndarray] = {}
    for v in _topological(list(domains), doc['edges']):
        spec = doc['cpts'][v]
        parents = spec['parents']
        sizes = [len(domains[p]) for p in parents]
        cum = np.empty((math.prod(sizes), len(domains[v])))
        for row in spec['rows']:
            config = 0
            for p, size, value in zip(parents, sizes, row['given']):
                config = config * size + domains[p].index(value)
            cum[config] = np.cumsum(row['p'])
        config = np.zeros(n, dtype=np.int64)
        for p, size in zip(parents, sizes):
            config = config * size + drawn[p]
        rows = cum[config]
        u = rng.random(n) * rows[:, -1]
        drawn[v] = np.minimum((rows <= u[:, None]).sum(axis=1), rows.shape[1] - 1)
    return drawn


def write_stream(doc: dict, n: int, rng: np.random.Generator, path: Path) -> Stream:
    """Sample n rows and write them as a JSON-lines observation stream."""
    drawn = sample_model(doc, n, rng)
    domains = {v['name']: tuple(v['domain']) for v in doc['variables']}
    roles = doc['roles']
    x, y = drawn[roles['x']], drawn[roles['y']]
    z = np.stack([drawn[name] for name in roles['z']], axis=1)
    text = {name: [json.dumps(value) for value in dom] for name, dom in domains.items()}
    xt, yt = text[roles['x']], text[roles['y']]
    zt = [text[name] for name in roles['z']]
    with open(path, 'w', encoding='utf-8') as handle:
        for lo in range(0, n, _CHUNK):  # in chunks, to keep the bench's own memory small
            hi = min(n, lo + _CHUNK)
            z_cells = [', '.join(zt[j][i] for j, i in enumerate(row))
                       for row in z[lo:hi].tolist()]
            handle.write(''.join(f'{{"x": {xt[a]}, "y": {yt[b]}, "z": [{c}]}}\n'
                                 for a, b, c in zip(x[lo:hi].tolist(), y[lo:hi].tolist(),
                                                    z_cells)))
    return Stream(x, y, z, domains[roles['x']], domains[roles['y']],
                  tuple(domains[name] for name in roles['z']), path, sha256_file(path))


# -- DAG set ------------------------------------------------------------------

@dataclass(frozen=True)
class DagCase:
    """One random DAG with the two criterion checks the benchmark runs."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    x: str
    y: str
    z_backdoor: tuple[str, str]
    z_frontdoor: tuple[str]


def dag_set(rng: np.random.Generator, count: int, sizes=(8, 9, 10, 11),
            p: float = 0.5) -> list[DagCase]:
    """count random DAGs, cycling over the vertex counts.  Each is G(k, p)
    over a random topological order; x precedes y in that order, and the
    Z vertices are drawn from the rest."""
    cases = []
    for i in range(count):
        k = sizes[i % len(sizes)]
        names = [f"V{j}" for j in range(k)]
        order = rng.permutation(k)  # order[j] is the j-th vertex in topological order
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        kept = rng.random(len(pairs)) < p
        edges = tuple((names[order[a]], names[order[b]])
                      for (a, b), keep in zip(pairs, kept) if keep)
        roles = rng.permutation(k)[:5]
        x, y = sorted(roles[:2])
        cases.append(DagCase(tuple(names), edges, names[order[x]], names[order[y]],
                             (names[order[roles[2]]], names[order[roles[3]]]),
                             (names[order[roles[4]]],)))
    return cases


def dag_set_text(cases: list[DagCase]) -> str:
    """Canonical text of a DAG set, for its digest."""
    return json.dumps([[c.vertices, c.edges, c.x, c.y, c.z_backdoor, c.z_frontdoor]
                       for c in cases])
