"""The benchmark's span tracer (``perfbench/spans.py``) swaps wrappers in at
the names its callers look up.  Installing and uninstalling it here makes a
removed or renamed entry point fail this suite instead of only the traced
benchmark run."""

from pathlib import Path

import causalci.cli as cli
import causalci.counts as counts
import causalci.coverage as coverage
import causalci.graph as graph
from causalci.simulator import AlternatingAdversaryPolicy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (owner, attribute) that the tracer wraps
WRAPPED = [
    (cli, 'main'), (cli, 'effect_interval'), (cli, 'backdoor_cs_anytime'),
    (cli, 'frontdoor_cs_anytime'), (cli, 'check_backdoor'), (cli, 'check_frontdoor'),
    (graph, 'check_backdoor'), (graph, 'check_frontdoor'),
    (graph, 'enumerate_paths'), (graph, 'path_blocked'),
    (coverage, 'run_coverage'), (coverage, 'effect_interval'),
    (coverage, 'sample_iid'), (coverage, 'sample_adaptive'),
    (AlternatingAdversaryPolicy, 'choose'),
    (counts, 'read_jsonl'), (counts.CountTable, 'ingest'),
]


def test_tracer_wraps_and_restores_its_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    owners = {id(owner): owner for owner, _ in WRAPPED}.values()
    before = {id(owner): dict(vars(owner)) for owner in owners}
    tracer = spans.Tracer()
    try:
        tracer.install(AlternatingAdversaryPolicy)
        for owner, attr in WRAPPED:
            assert vars(owner)[attr] is not before[id(owner)][attr], (owner, attr)
    finally:
        tracer.uninstall()
    for owner in owners:
        after = vars(owner)
        assert after.keys() == before[id(owner)].keys()
        assert all(after[k] is v for k, v in before[id(owner)].items()), owner
