"""The ops the benchmark times, built from causalci alone.

Run as a script, this module does one op in a fresh process that imports
nothing beyond causalci, numpy (which causalci imports) and the standard
library, and prints the process's peak resident memory.  That figure is
then the program's own, not the benchmark's:

    PYTHONPATH=src python3 perfbench/ops.py '<spec JSON>'

The spec names the op: ``{"op": "analyze", "argv": [...]}``,
``{"op": "coverage", "configs": DIR, "replications": R, "seed": [...]}`` or
``{"op": "check-dags", "seed": S, "dags": N}``.  The last line of standard
output is ``{"result": ..., "peak_rss_mb": ...}``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

# back-door and front-door, each IID, adaptive-fixed and anytime, as in
# acceptance criteria 1-3: (model file, criterion, regime, n, binary constants)
COVERAGE_CONFIGS = (
    ('fig1.json', 'backdoor', 'iid', 500, True),
    ('fig1.json', 'backdoor', 'adaptive-fixed', 512, False),
    ('fig1.json', 'backdoor', 'anytime', 4096, False),
    ('frontdoor.json', 'frontdoor', 'iid', 500, False),
    ('frontdoor.json', 'frontdoor', 'adaptive-fixed', 512, False),
    ('frontdoor.json', 'frontdoor', 'anytime', 4096, False),
)


def analyze_argv(model: Path, data: Path, criterion: str, regime: str,
                 output: Path) -> list[str]:
    return ['analyze', '--model', str(model), '--data', str(data),
            '--criterion', criterion, '--regime', regime,
            '--xtilde', '1', '--y', '1', '--output', str(output)]


def coverage_cases(configs: Path) -> list[tuple]:
    """(model, query, n, policy, true value) for each coverage configuration."""
    from causalci.effects import EffectQuery
    from causalci.simulator import AlternatingAdversaryPolicy, load_model
    cases = []
    for model_file, criterion, regime, n, toy in COVERAGE_CONFIGS:
        model = load_model(str(configs / model_file))
        query = EffectQuery(criterion, 1, 1, 0.1, regime=regime, binary_toy=toy)
        policy = None if regime == 'iid' else AlternatingAdversaryPolicy()
        cases.append((model, query, n, policy, model.interventional_probability(1, 1)))
    return cases


def coverage_pass(run_coverage, cases: list[tuple], replications: int, seed: list[int]):
    """One report per configuration; ``run_coverage`` is passed in so that a
    traced run reaches the name it has swapped."""
    return [run_coverage(model, query, n, replications, seed=[*seed, j],
                         policy=policy, workers=1)
            for j, (model, query, n, policy, _) in enumerate(cases)]


def dag_checks(cases) -> list[tuple]:
    """(kind, case, Dag, Z) for a back-door and a front-door check per DAG."""
    from causalci.graph import Dag
    checks = []
    for case in cases:
        dag = Dag(case.vertices, case.edges)
        checks.append(('backdoor', case, dag, set(case.z_backdoor)))
        checks.append(('frontdoor', case, dag, set(case.z_frontdoor)))
    return checks


def run_check(graph, check: tuple):
    kind, case, dag, zs = check
    if kind == 'backdoor':
        return graph.check_backdoor(dag, {case.x}, {case.y}, zs)
    return graph.check_frontdoor(dag, case.x, case.y, zs)


def main(spec: dict):
    if spec['op'] == 'analyze':
        from causalci.cli import main as cli_main
        return cli_main(spec['argv'])
    if spec['op'] == 'coverage':
        from causalci.coverage import run_coverage
        reports = coverage_pass(run_coverage, coverage_cases(Path(spec['configs'])),
                                spec['replications'], spec['seed'])
        return [[r.true_value, r.coverage, r.replications] for r in reports]
    import numpy as np

    import causalci.graph
    import inputs
    cases = inputs.dag_set(np.random.default_rng([spec['seed'], 3]), spec['dags'])
    return [run_check(causalci.graph, check).satisfied for check in dag_checks(cases)]


if __name__ == '__main__':
    result = main(json.loads(sys.argv[1]))
    print(json.dumps({'result': result, 'peak_rss_mb':
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
