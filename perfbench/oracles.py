"""Independent references the benchmark checks causalci's outputs against.

The plug-in midpoints are recomputed with ``numpy.bincount`` from the
generated columns, and the criterion verdicts with networkx's d-separation
test on the mutilated graphs; neither calls into causalci.  networkx is
imported only by the graph oracles, so that it adds nothing to the memory
of the workloads that do not use them.
"""

from __future__ import annotations

import numpy as np

from inputs import DagCase, Stream


def _dyadic_floor(count: int) -> int:
    return 1 if count < 2 else 1 << (count.bit_length() - 1)


def _cell(stream: Stream) -> np.ndarray:
    """Mixed-radix index of each row's z tuple."""
    cell = np.zeros(len(stream.x), dtype=np.int64)
    for j, dom in enumerate(stream.z_domains):
        cell = cell * len(dom) + stream.z[:, j]
    return cell


def backdoor_iid_midpoint(stream: Stream, x_index: int, y_index: int) -> float:
    """sum over z of p(y|x,z) p(z) with full-sample estimates; a z cell the
    treatment value never met contributes 0."""
    n = len(stream.x)
    cells = int(np.prod([len(d) for d in stream.z_domains]))
    cell = _cell(stream)
    treated = stream.x == x_index
    n_z = np.bincount(cell, minlength=cells)
    n_xz = np.bincount(cell[treated], minlength=cells)
    n_xyz = np.bincount(cell[treated & (stream.y == y_index)], minlength=cells)
    total = 0.0
    for c in range(cells):
        cond = int(n_xyz[c]) / int(n_xz[c]) if n_xz[c] else 0.0
        total += cond * (int(n_z[c]) / n)
    return total


def frontdoor_dyadic_midpoint(stream: Stream, x_index: int, y_index: int) -> float:
    """sum over z of p(z|x) sum over x' of p(y|x',z) p(x'), every estimate
    taken over the first dyadic_floor(count) occurrences of its condition."""
    n = len(stream.x)
    cells = int(np.prod([len(d) for d in stream.z_domains]))
    cell = _cell(stream)

    def dyadic(rows: np.ndarray, outcome: np.ndarray, value: int, size: int) -> float:
        if len(rows) == 0:
            return 0.0
        first = rows[:_dyadic_floor(len(rows))]
        return int(np.bincount(outcome[first], minlength=size)[value]) / len(first)

    everything = np.arange(n)
    treated = np.flatnonzero(stream.x == x_index)
    total = 0.0
    for c in range(cells):
        inner = 0.0
        for xv in range(len(stream.x_domain)):
            rows = np.flatnonzero((stream.x == xv) & (cell == c))
            inner += (dyadic(rows, stream.y, y_index, len(stream.y_domain))
                      * dyadic(everything, stream.x, xv, len(stream.x_domain)))
        total += dyadic(treated, cell, c, cells) * inner
    return total


def _without_out_edges(graph, v: str):
    cut = graph.copy()
    cut.remove_edges_from(list(graph.out_edges(v)))
    return cut


def graph_of(case: DagCase):
    import networkx as nx
    graph = nx.DiGraph()
    graph.add_nodes_from(case.vertices)
    graph.add_edges_from(case.edges)
    return graph


def backdoor_holds(graph, x: str, y: str, zs) -> bool:
    """No z descends from x, and z d-separates x and y once x's out-edges go."""
    import networkx as nx
    zs = set(zs)
    if zs & nx.descendants(graph, x):
        return False
    return nx.is_d_separator(_without_out_edges(graph, x), {x}, {y}, zs)


def frontdoor_holds(graph, x: str, y: str, zs) -> bool:
    """(i) z intercepts every directed x->y path, (ii) no open back-door path
    from x to z, (iii) x blocks every back-door path from z to y."""
    import networkx as nx
    zs = set(zs)
    if nx.has_path(graph.subgraph(set(graph) - zs), x, y):
        return False
    if not nx.is_d_separator(_without_out_edges(graph, x), {x}, zs, set()):
        return False
    return all(nx.is_d_separator(_without_out_edges(graph, z), {z}, {y}, {x})
               for z in zs)
