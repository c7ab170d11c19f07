"""Finite-variable DAGs and the back-door / front-door adjustment criteria.

Blocking follows standard d-separation semantics: a path between two
vertices is *blocked* by a conditioning set S iff it contains an interior
vertex v such that either

* v is a non-collider on the path (at least one of its two path edges
  points away from v) and v is in S, or
* v is a collider on the path (both path edges point into v) and v is
  neither in S nor an ancestor of a vertex of S.

A *backdoor path* from a to b is a path whose first edge points into a.
The back-door criterion for disjoint vertex sets X, Y, Z requires that no
Z-vertex is a descendant of any X-vertex and that Z blocks every backdoor
path from every X-vertex to every Y-vertex.  The front-door criterion for
single vertices x, y and a set Z requires that (i) every directed path
from x to y passes through Z, (ii) no backdoor path from x to a Z-vertex
is unblocked given the empty set, and (iii) every backdoor path from a
Z-vertex to y is blocked by {x}.

One depth-first walker lists paths for ``enumerate_paths`` and for every
clause of both checks.  In a check it drops a partial path at its first
blocking vertex (by the one rule that ``path_blocked`` applies too), so a
check reports the open paths in the order of ``enumerate_paths`` without
listing the blocked ones.  A Dag holds only its adjacency: the collider
rule reads S's ancestors, one reverse traversal from S per clause (the
Bayes-Ball view of d-separation; Shachter 1998).

Criterion checks are advisory: the effect estimators accept user overrides
for situations where graph knowledge (e.g. about unobserved confounders
kept out of the adjustment formula) justifies skipping the structural
test.

Dags are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence


class DagParseError(ValueError):
    """Raised by the text-format parser; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Dag:
    """A directed acyclic graph over named variables with finite domains."""

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]],
                 domains: dict | None = None):
        self.vertices = tuple(vertices)
        edges = [(a, b) for a, b in edges]
        endpoints = [v for edge in edges for v in edge]
        for kind, names in (("vertex name", self.vertices), ("edge endpoint", endpoints)):
            for v in names:
                if not isinstance(v, str):
                    raise ValueError(f"{kind} {v!r} is not a string")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        vset = set(self.vertices)
        self.edges = frozenset(edges)
        for a, b in self.edges:
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a}, {b}) uses an undeclared vertex")
            if a == b:
                raise ValueError(f"self-loop at {a}")
        domains = domains or {}
        for v in domains:
            if v not in vset:
                raise ValueError(f"domain given for undeclared vertex {v!r}")
        self.domains = {v: tuple(domains.get(v, (0, 1))) for v in self.vertices}
        for v, dom in self.domains.items():
            if not dom:
                raise ValueError(f"empty domain for {v}")
            if len(set(dom)) != len(dom):
                raise ValueError(f"duplicate values in the domain of {v!r}: {dom!r}")

        self._children = {v: [] for v in self.vertices}
        self._parents = {v: [] for v in self.vertices}
        self._order = order = {v: i for i, v in enumerate(self.vertices)}
        for a, b in sorted(self.edges, key=lambda e: (order[e[0]], order[e[1]])):
            self._children[a].append(b)
            self._parents[b].append(a)
        self._neighbours = {v: sorted(self._children[v] + self._parents[v], key=order.get)
                            for v in self.vertices}
        self._topo = self._topological_sort()

    def _topological_sort(self) -> tuple[str, ...]:
        indeg = {v: len(self._parents[v]) for v in self.vertices}
        ready = [v for v in self.vertices if indeg[v] == 0]
        out: list[str] = []
        while ready:
            v = ready.pop(0)
            out.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(out) != len(self.vertices):
            cyclic = sorted(v for v in self.vertices if indeg[v] > 0)
            raise ValueError(f"graph has a cycle through {cyclic}")
        return tuple(out)

    def _reach(self, starts: Iterable[str], step: dict[str, list[str]]) -> frozenset:
        """Vertices reached from starts in one or more steps along step."""
        seen: set[str] = set()
        todo = list(starts)
        while todo:
            for w in step[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return frozenset(seen)

    def parents(self, v: str) -> tuple[str, ...]:
        return tuple(self._parents[v])

    def children(self, v: str) -> tuple[str, ...]:
        return tuple(self._children[v])

    def descendants(self, v: str) -> frozenset:
        """All vertices reachable from v by directed edges (v excluded)."""
        self.require(v)
        return self._reach((v,), self._children)

    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges

    def require(self, *names: str) -> None:
        for name in names:
            if name not in self._children:
                raise ValueError(f"unknown variable {name!r}")


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of a criterion check with human-readable witnesses."""

    satisfied: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.satisfied != (not self.violations):
            raise ValueError("satisfied flag inconsistent with violations")

    @classmethod
    def from_violations(cls, violations: Sequence[str]) -> "CriterionReport":
        vs = tuple(violations)
        return cls(satisfied=not vs, violations=vs)


def _walk(dag: Dag, a: str, b: str,
          step: Callable[[list[str], str], bool]) -> Iterator[tuple[str, ...]]:
    """Simple paths from a to b ignoring edge direction, depth first over
    neighbours in declaration order, extending a partial path to w only where
    ``step(path, w)`` allows.  The search keeps its own stack, so no
    recursion limit bounds the path length."""
    path, on_path, todo = [a], {a}, [iter(dag._neighbours[a])]
    while todo:
        for w in todo[-1]:
            if w in on_path or not step(path, w):
                continue
            if w == b:
                yield (*path, b)
            else:
                path.append(w)
                on_path.add(w)
                todo.append(iter(dag._neighbours[w]))
                break
        else:
            todo.pop()
            on_path.discard(path.pop())


def _passes(dag: Dag, conditioning: Iterable[str]) -> Callable[[str, str, str], bool]:
    """The blocking rule: ``passes(u, v, w)`` is whether a path through u, v,
    w stays open at its interior vertex v given the conditioning set."""
    cond = set(conditioning)
    dag.require(*cond)
    opens = cond | dag._reach(cond, dag._parents)

    def passes(u: str, v: str, w: str) -> bool:
        if dag.has_edge(u, v) and dag.has_edge(w, v):  # a collider
            return v in opens
        return v not in cond

    return passes


def enumerate_paths(dag: Dag, a: str, b: str) -> list[tuple[str, ...]]:
    """All simple paths between a and b ignoring edge direction, depth first
    over neighbours in declaration order.  Each path is the tuple of visited
    vertices; per-edge orientation is recoverable from the dag."""
    dag.require(a, b)
    if a == b:
        raise ValueError("endpoints must differ")
    return list(_walk(dag, a, b, lambda path, w: True))


def format_path(dag: Dag, path: Sequence[str]) -> str:
    """Render a path with its edge orientations, e.g. ``X←Z→Y``."""
    parts = [path[0]]
    for u, v in zip(path, path[1:]):
        parts.append('→' if dag.has_edge(u, v) else '←')
        parts.append(v)
    return ''.join(parts)


def path_blocked(path: Sequence[str], conditioning: Iterable[str], dag: Dag) -> bool:
    """d-separation blocking test for one path (see module docstring); a
    sequence of vertices that is not a simple path of the dag is refused."""
    dag.require(*path)
    for u, v in zip(path, path[1:]):
        if not (dag.has_edge(u, v) or dag.has_edge(v, u)):
            raise ValueError(f"{u!r} and {v!r} are not adjacent")
    if len(set(path)) != len(path):
        repeated = next(v for i, v in enumerate(path) if v in path[:i])
        raise ValueError(f"vertex {repeated!r} repeats on the path")
    passes = _passes(dag, conditioning)
    return not all(passes(*triple) for triple in zip(path, path[1:], path[2:]))


def _open_backdoor(dag: Dag, a: str, b: str,
                   conditioning: Iterable[str]) -> Iterator[tuple[str, ...]]:
    """The backdoor paths from a to b that the conditioning set leaves open."""
    passes = _passes(dag, conditioning)
    return _walk(dag, a, b, lambda path, w: passes(path[-2], path[-1], w)
                 if len(path) > 1 else dag.has_edge(w, a))


def check_backdoor(dag: Dag, x_set: Iterable[str], y_set: Iterable[str],
                   z_set: Iterable[str]) -> CriterionReport:
    """Does z_set satisfy the back-door criterion relative to (x_set, y_set)?"""
    xs, ys, zs = set(x_set), set(y_set), set(z_set)
    _check_disjoint(dag, xs, ys, zs)
    order = dag._order.get
    violations = []
    for xv in sorted(xs, key=order):
        desc = dag.descendants(xv)
        violations += [f"{zv} is a descendant of {xv}" for zv in sorted(zs, key=order)
                       if zv in desc]
    for xv in sorted(xs, key=order):
        for yv in sorted(ys, key=order):
            for path in _open_backdoor(dag, xv, yv, zs):
                violations.append(f"unblocked backdoor path {format_path(dag, path)}")
    return CriterionReport.from_violations(violations)


def check_frontdoor(dag: Dag, x: str, y: str, z_set: Iterable[str]) -> CriterionReport:
    """Does z_set satisfy the front-door criterion relative to (x, y)?"""
    zs = set(z_set)
    _check_disjoint(dag, {x}, {y}, zs)
    violations = []
    for path in _walk(dag, x, y, lambda path, w: dag.has_edge(path[-1], w) and w not in zs):
        violations.append(f"directed path {format_path(dag, path)} avoids the set")
    for zv in sorted(zs, key=dag._order.get):
        for path in _open_backdoor(dag, x, zv, ()):
            violations.append(
                f"unblocked backdoor path {format_path(dag, path)} into the set")
        for path in _open_backdoor(dag, zv, y, {x}):
            violations.append(
                f"backdoor path {format_path(dag, path)} not blocked by {x}")
    return CriterionReport.from_violations(violations)


def _check_disjoint(dag: Dag, xs: set, ys: set, zs: set) -> None:
    dag.require(*sorted(xs | ys | zs))
    if not (xs and ys and zs):
        raise ValueError("X, Y and Z must be non-empty")
    for a, b, names in ((xs, ys, "X and Y"), (xs, zs, "X and Z"), (ys, zs, "Y and Z")):
        if a & b:
            raise ValueError(f"{names} overlap on {sorted(a & b)}")


# -- text format --------------------------------------------------------------
#
#   # comment
#   var Z : 0 1
#   var X            (domain defaults to 0 1)
#   Z -> X
#
# One declaration or edge per line; values parse as integers when they look
# like integers, otherwise as strings.

def parse_dag_text(text: str) -> Dag:
    vertices: list[str] = []
    domains: dict[str, tuple] = {}
    edges: list[tuple[str, str]] = []
    edge_lines = [0]  # edge_lines[k]: the line of the k-th edge, counted from 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        if line.startswith('var '):
            body = line[4:]
            name, _, dom = body.partition(':')
            name = name.strip()
            if not name or ' ' in name:
                raise DagParseError(lineno, f"bad variable declaration {raw.strip()!r}")
            if name in domains:
                raise DagParseError(lineno, f"variable {name!r} declared twice")
            vertices.append(name)
            values = tuple(_parse_value(t) for t in dom.split()) if dom.strip() else (0, 1)
            if len(set(values)) != len(values):
                raise DagParseError(lineno, f"duplicate values in domain of {name!r}")
            domains[name] = values
        elif '->' in line:
            a, _, b = line.partition('->')
            a, b = a.strip(), b.strip()
            if not a or not b or '->' in b:
                raise DagParseError(lineno, f"bad edge line {raw.strip()!r}")
            if a not in domains or b not in domains:
                missing = a if a not in domains else b
                raise DagParseError(lineno, f"edge uses undeclared vertex {missing!r}")
            edges.append((a, b))
            edge_lines.append(lineno)
        else:
            raise DagParseError(lineno, f"cannot parse {raw.strip()!r}")
    try:
        return Dag(vertices, edges, domains)
    except ValueError as exc:
        error = exc
    # name the first edge line after which the edges read so far are refused:
    # a self-loop, or the edge that closes a cycle
    good, bad = 0, len(edges)  # the first `good` edges load, the first `bad` do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            Dag(vertices, edges[:mid], domains)
            good = mid
        except ValueError as exc:
            bad, error = mid, exc
    raise DagParseError(edge_lines[bad], str(error)) from error


def _parse_value(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def load_dag(path: str) -> Dag:
    with open(path, 'r', encoding='utf-8') as handle:
        return parse_dag_text(handle.read())
