"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text(encoding='utf-8'))


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run([sys.executable, 'perfbench/run.py', '--workload', workload,
                           '--seed', '3', '--seconds', '0.5', '--trace', str(trace),
                           '--smoke'], cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize('trace', [0, 1])
# check-dags is runnable but not in BENCHMARK.json (see METRICS.md)
@pytest.mark.parametrize('workload', [w['name'] for w in SPEC['workloads']] + ['check-dags'])
def test_workload_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] and result['failed'] == 0 and result['attempted'] >= 1
    wanted = SPEC['per_layer'] if trace else SPEC['end_to_end']
    assert {m['name']: m['unit'] for m in wanted} == \
        {name: m['unit'] for name, m in result['metrics'].items()}
    if not trace:
        assert all(m['value'] > 0 for m in result['metrics'].values())
    elif workload.startswith('analyze'):
        # counts come from the span arrays: each row is read once and ingested once
        value = {name: m['value'] for name, m in result['metrics'].items()}
        assert value['counts.read_jsonl.rows'] == value['counts.ingest.rows'] > 0
        assert value['cli.emit.records'] == (value['counts.ingest.rows']
                                             if workload == 'analyze-anytime' else 1)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path)
    for path in SPEC['paths']:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns('__pycache__'))
    done = _run(tmp_path, SPEC['workloads'][0]['name'], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
