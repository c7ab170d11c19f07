import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from causalci.graph import (CriterionReport, Dag, DagParseError, check_backdoor,
                            check_frontdoor, enumerate_paths, format_path,
                            parse_dag_text, path_blocked)
from helpers import fig1_dag, napkin_dag, oracle_backdoor, oracle_blocked, \
    oracle_descendants, oracle_frontdoor, oracle_paths, random_dag, reference_check_backdoor, \
    reference_check_frontdoor


def test_fig1_paths():
    paths = enumerate_paths(fig1_dag(), "X", "Y")
    assert sorted(paths) == [("X", "Y"), ("X", "Z", "Y")]


def test_disconnected_no_paths():
    dag = Dag(["X", "Y"], [])
    assert enumerate_paths(dag, "X", "Y") == []


def test_napkin_paths():
    paths = enumerate_paths(napkin_dag(), "X", "Y")
    assert sorted(paths) == [("X", "V", "W", "U", "Y"),
                             ("X", "Y"),
                             ("X", "Z", "W", "U", "Y")]
    rendered = {format_path(napkin_dag(), p) for p in paths}
    assert rendered == {"X→Y", "X←V→W←U→Y", "X←Z←W←U→Y"}


def test_unknown_vertex_rejected():
    with pytest.raises(ValueError):
        enumerate_paths(fig1_dag(), "X", "Q")
    with pytest.raises(ValueError):
        enumerate_paths(fig1_dag(), "X", "X")


def test_napkin_blocking():
    dag = napkin_dag()
    chain = ("X", "Z", "W", "U", "Y")
    assert path_blocked(chain, {"Z"}, dag)  # Z is a non-collider on it
    fork = ("X", "V", "W", "U", "Y")
    # W is a collider there, and its descendant Z is conditioned on
    assert not path_blocked(fork, {"Z"}, dag)
    assert path_blocked(fork, set(), dag)  # unconditioned collider blocks


def test_blocking_refuses_an_unknown_conditioning_vertex():
    with pytest.raises(ValueError, match="unknown variable 'Q'"):
        path_blocked(("X", "V", "W", "U", "Y"), {"Z", "Q"}, napkin_dag())


@pytest.mark.parametrize("make, path, message", [
    (fig1_dag, ("X", "Q", "Y"), "unknown variable 'Q'"),
    (napkin_dag, ("X", "W", "U", "Y"), "'X' and 'W' are not adjacent"),
    (fig1_dag, ("X", "Y", "Z", "X"), "vertex 'X' repeats on the path"),
    (napkin_dag, ("X", "V", "W", "Z", "X", "Y"), "vertex 'X' repeats on the path"),
])
def test_blocking_refuses_a_sequence_that_is_not_a_path(make, path, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        path_blocked(path, set(), make())


def test_descendants_of_an_unknown_vertex_are_refused():
    with pytest.raises(ValueError, match="^unknown variable 'Q'$"):
        fig1_dag().descendants("Q")


def test_all_noncolliders_always_block():
    dag = napkin_dag()
    for path in enumerate_paths(dag, "X", "Y"):
        if len(path) < 3:
            continue
        noncolliders = {v for i, v in enumerate(path[1:-1], start=1)
                        if not (dag.has_edge(path[i - 1], v)
                                and dag.has_edge(path[i + 1], v))}
        if noncolliders:
            assert path_blocked(path, noncolliders, dag)


def test_backdoor_fig1_satisfied():
    report = check_backdoor(fig1_dag(), {"X"}, {"Y"}, {"Z"})
    assert report.satisfied
    assert report.violations == ()


def test_backdoor_vacuous_with_isolated_adjustment():
    dag = Dag(["X", "Y", "W"], [("X", "Y")])
    assert check_backdoor(dag, {"X"}, {"Y"}, {"W"}).satisfied


def test_backdoor_napkin_violated_with_witness():
    report = check_backdoor(napkin_dag(), {"X"}, {"Y"}, {"Z"})
    assert not report.satisfied
    assert any("X←V→W←U→Y" in v for v in report.violations)
    # the other backdoor path is blocked by Z, so it is not a witness
    assert not any("X←Z←W←U→Y" in v for v in report.violations)


def test_backdoor_descendant_violation():
    dag = Dag(["X", "M", "Y"], [("X", "M"), ("M", "Y")])
    report = check_backdoor(dag, {"X"}, {"Y"}, {"M"})
    assert not report.satisfied
    assert any("descendant" in v for v in report.violations)


def test_frontdoor_chain_satisfied():
    dag = Dag(["U", "X", "M", "Y"],
              [("U", "X"), ("U", "Y"), ("X", "M"), ("M", "Y")])
    assert check_frontdoor(dag, "X", "Y", {"M"}).satisfied


def test_frontdoor_napkin_violated_by_direct_path():
    report = check_frontdoor(napkin_dag(), "X", "Y", {"Z"})
    assert not report.satisfied
    assert any("X→Y" in v for v in report.violations)


def test_frontdoor_isolated_interceptor_violated():
    dag = Dag(["X", "Y", "W"], [("X", "Y")])
    report = check_frontdoor(dag, "X", "Y", {"W"})
    assert not report.satisfied


def test_overlap_rejected():
    with pytest.raises(ValueError):
        check_backdoor(fig1_dag(), {"X"}, {"Y"}, {"X"})
    with pytest.raises(ValueError):
        check_frontdoor(fig1_dag(), "X", "Y", {"Y"})
    with pytest.raises(ValueError):
        check_backdoor(fig1_dag(), {"X"}, {"Y"}, set())


@pytest.mark.parametrize("check, argument", [
    (lambda dag: check_backdoor(dag, "X", {"Y"}, {"Z"}), "x_set 'X'"),
    (lambda dag: check_backdoor(dag, {"X"}, "Y", {"Z"}), "y_set 'Y'"),
    (lambda dag: check_backdoor(dag, {"X"}, {"Y"}, "Z"), "z_set 'Z'"),
    (lambda dag: check_backdoor(dag, {"X"}, {"Y"}, "Z1"), "z_set 'Z1'"),
    (lambda dag: check_frontdoor(dag, "X", "Y", "Z"), "z_set 'Z'"),
])
def test_a_string_for_a_vertex_set_is_refused(check, argument):
    # not split into its characters, which named "Z" by accident and "1" as unknown
    name, value = argument.split()
    with pytest.raises(ValueError, match=f"^{name} must be a collection of vertex names, "
                                         f"not {value}$"):
        check(fig1_dag())


def test_report_consistency_enforced():
    with pytest.raises(ValueError):
        CriterionReport(satisfied=True, violations=("nope",))


def test_isolated_vertex_never_changes_verdict():
    rng = np.random.default_rng(5)
    for _ in range(60):
        dag = random_dag(rng)
        names = list(dag.vertices)
        if len(names) < 3:
            continue
        x, y, z = names[0], names[1], names[2]
        bigger = Dag(list(dag.vertices) + ["ISO"], dag.edges)
        try:
            before = check_backdoor(dag, {x}, {y}, {z}).satisfied
            after = check_backdoor(bigger, {x}, {y}, {z}).satisfied
        except ValueError:
            continue
        assert before == after
        assert check_frontdoor(dag, x, y, {z}).satisfied \
            == check_frontdoor(bigger, x, y, {z}).satisfied


def test_acyclicity_enforced():
    with pytest.raises(ValueError):
        Dag(["A", "B"], [("A", "B"), ("B", "A")])


@pytest.mark.parametrize("vertices, edges, domains, message", [
    (["A", "B", "A"], [], None, "duplicate vertex names"),
    (["A"], [("A", "B")], None, r"edge \(A, B\) uses an undeclared vertex"),
    (["A", "B"], [("C", "B")], None, r"edge \(C, B\) uses an undeclared vertex"),
    (["A", "B"], [], {"B": ()}, "empty domain for B"),
    (["A"], [], {"A": ([0], [1])}, r"the domain of 'A' holds the unhashable value \[0\]"),
    (["A", "B"], [], {"B": (0, {"b": 1})}, r"the domain of 'B' holds the unhashable value "
                                           r"\{'b': 1\}"),
])
def test_dag_refuses_a_malformed_declaration(vertices, edges, domains, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dag(vertices, edges, domains)


def test_domain_of_an_undeclared_vertex_is_refused():
    with pytest.raises(ValueError, match="^domain given for undeclared vertex 'B'$"):
        Dag(["A"], [], {"B": (0, 1, 2)})


@pytest.mark.parametrize("vertices, name", [([1, 2], "1"), (["A", None], "None"),
                                            (["A", ("B",)], r"\('B',\)")])
def test_vertex_names_must_be_strings(vertices, name):
    with pytest.raises(ValueError, match=f"^vertex name {name} is not a string$"):
        Dag(vertices, [])


@pytest.mark.parametrize("edges, name", [([(1, 2)], "1"), ([("1", 2)], "2"),
                                         ([("1", "2"), (None, "1")], "None"),
                                         ([("1", ["2"])], r"\['2'\]")])
def test_edge_endpoints_must_be_strings(edges, name):
    # an endpoint that only spells a vertex name, as 1 spells '1', names none
    with pytest.raises(ValueError, match=f"^edge endpoint {name} is not a string$"):
        Dag(["1", "2"], edges)


def test_blocking_agrees_with_networkx():
    """All-paths-blocked must coincide with d-separation, checked against
    networkx's reachability-based implementation."""
    rng = np.random.default_rng(17)
    for _ in range(150):
        dag = random_dag(rng)
        g = nx.DiGraph()
        g.add_nodes_from(dag.vertices)
        g.add_edges_from(dag.edges)
        names = list(dag.vertices)
        rng.shuffle(names)
        a, b = names[0], names[1]
        pool = names[2:]
        cond = set(pool[:int(rng.integers(0, len(pool) + 1))])
        mine = all(path_blocked(p, cond, dag) for p in enumerate_paths(dag, a, b))
        assert mine == nx.is_d_separator(g, {a}, {b}, cond)


def test_criteria_agree_with_bruteforce_oracle():
    rng = np.random.default_rng(23)
    for _ in range(250):
        dag = random_dag(rng)
        names = list(dag.vertices)
        rng.shuffle(names)
        if len(names) < 3:
            continue
        nx_count = int(rng.integers(1, 3)) if len(names) >= 4 else 1
        xs = set(names[:nx_count])
        ys = {names[nx_count]}
        zs = set(names[nx_count + 1:nx_count + 1 + int(rng.integers(1, 3))])
        if not zs:
            continue
        got = check_backdoor(dag, xs, ys, zs).satisfied
        want = oracle_backdoor(dag.vertices, dag.edges, xs, ys, zs)
        assert got == want
        got = check_frontdoor(dag, names[0], names[1], {names[2]}).satisfied
        want = oracle_frontdoor(dag.vertices, dag.edges, names[0], names[1],
                                {names[2]})
        assert got == want


def test_path_enumeration_matches_bruteforce():
    rng = np.random.default_rng(29)
    for _ in range(60):
        dag = random_dag(rng, max_vertices=5)
        a, b = dag.vertices[0], dag.vertices[-1]
        assert sorted(enumerate_paths(dag, a, b)) \
            == sorted(oracle_paths(dag.vertices, dag.edges, a, b))


def test_reports_match_the_path_by_path_reference():
    """Whole reports, witnesses and their order included, against the checks
    that list every path and then filter it."""
    rng = np.random.default_rng(31)
    violated = 0
    for _ in range(500):
        dag = random_dag(rng, max_vertices=10, p_edge=float(rng.uniform(0.2, 0.7)),
                         min_vertices=5)
        names = list(dag.vertices)
        rng.shuffle(names)
        nx_count = int(rng.integers(1, 3))
        xs, ys = set(names[:nx_count]), {names[nx_count]}
        zs = set(names[nx_count + 1:nx_count + 1 + int(rng.integers(1, 4))])
        report = check_backdoor(dag, xs, ys, zs)
        assert report.violations == reference_check_backdoor(dag, xs, ys, zs)
        x, y, zs = names[0], names[1], set(names[2:2 + int(rng.integers(1, 3))])
        front = check_frontdoor(dag, x, y, zs)
        assert front.violations == reference_check_frontdoor(dag, x, y, zs)
        violated += len(report.violations) > 1 and len(front.violations) > 1
    assert violated > 100  # many reports list several witnesses


def test_long_paths_need_no_recursion():
    names = [f"V{i}" for i in range(1500)]
    dag = Dag(names, zip(names, names[1:]))
    assert enumerate_paths(dag, "V0", "V1499") == [dag.vertices]
    assert check_frontdoor(dag, "V0", "V1499", {"V700"}).satisfied
    # the walk from V1498 runs back through every vertex to V0
    assert check_backdoor(dag, {"V1498"}, {"V1499"}, {"V0"}).satisfied


def test_descendants_match_the_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        dag = random_dag(rng, max_vertices=9, p_edge=float(rng.uniform(0.1, 0.8)))
        for v in dag.vertices:
            assert dag.descendants(v) == oracle_descendants(dag.edges, v)


def test_a_deep_dag_holds_its_adjacency_only():
    """No per-vertex descendant set: memory grows with the edges, not with
    the square of the depth."""
    names = [f"V{i}" for i in range(3000)]
    tracemalloc.start()
    try:
        dag = Dag(names, zip(names, names[1:]))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 16 * 2**20
    assert len(dag.descendants("V0")) == 2999


def test_backdoor_check_on_a_dense_dag():
    """Conditioning on the parents of X blocks every backdoor path at its
    first interior vertex, however many paths the graph holds."""
    rng = np.random.default_rng(37)
    names = [f"V{i}" for i in range(200)]
    dag = Dag(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                      if rng.random() < 0.5])
    zs = set(dag.parents("V100")) - {"V199"}
    start = time.perf_counter()
    report = check_backdoor(dag, {"V100"}, {"V199"}, zs)
    assert time.perf_counter() - start < 2.0
    assert report.satisfied


DAG_TEXT = """
# three binary variables
var Z : 0 1
var X : 0 1
var Y          # defaults to binary
Z -> X
Z -> Y
X -> Y
"""


def test_parse_dag_text():
    dag = parse_dag_text(DAG_TEXT)
    assert dag.vertices == ("Z", "X", "Y")
    assert dag.edges == frozenset({("Z", "X"), ("Z", "Y"), ("X", "Y")})
    assert dag.domains["Y"] == (0, 1)


def test_parse_dag_text_errors_carry_line_numbers():
    with pytest.raises(DagParseError) as err:
        parse_dag_text("var X : 0 1\nX -> Q\n")
    assert err.value.lineno == 2
    with pytest.raises(DagParseError):
        parse_dag_text("nonsense line")
    with pytest.raises(DagParseError):
        parse_dag_text("var X : 0 1\nvar X : 0 1")


@pytest.mark.parametrize("text, lineno, message", [
    ("var A\nvar B\nA -> B\nB -> A\n", 4, r"graph has a cycle through \['A', 'B'\]"),
    ("var A\nvar B\n\nA -> B\nA -> A\n", 5, "self-loop at A"),
    # the cycle closes at B -> C's line; A -> B and C -> A come before
    ("var A\nvar B\nvar C\nC -> A\nA -> B\n# note\nB -> C\nA -> C\n", 7,
     r"graph has a cycle through \['A', 'B', 'C'\]"),
    # lines the parser refuses before any Dag is built
    ("var A B : 0 1\n", 1, "bad variable declaration 'var A B : 0 1'"),
    ("var : 0 1\n", 1, "bad variable declaration 'var : 0 1'"),
    ("var A\nvar B : 0 1 0\n", 2, "duplicate values in domain of 'B'"),
    ("var A\nvar B\nA -> B -> A\n", 3, "bad edge line 'A -> B -> A'"),
    ("var A\nvar B\n\n-> B\n", 4, "bad edge line '-> B'"),
])
def test_parse_dag_text_names_the_edge_line_a_dag_refuses(text, lineno, message):
    with pytest.raises(DagParseError, match=f"^line {lineno}: {message}$") as err:
        parse_dag_text(text)
    assert err.value.lineno == lineno


def test_string_domains():
    dag = parse_dag_text("var X : low high\nvar Y : 0 1\nX -> Y\n")
    assert dag.domains["X"] == ("low", "high")
