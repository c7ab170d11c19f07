"""End-to-end and per-layer benchmark of causalci.

One run measures one workload, in this process apart from short-lived
children that time a fresh import and take the peak memory of one op:

    python3 perfbench/run.py --workload analyze-iid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with spans around every layer entry point, and prints
the per-layer metrics and the tracing overhead.  Every input is generated
from ``--seed``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --all --seed 1 --seconds 20

runs every workload, each in a fresh process, one after another, and prints
each workload's metrics under their own names.  ``--smoke`` shrinks every
input to a size that finishes in seconds.  The benchmark imports causalci
from ``src/`` of the checkout it sits in, and reads and writes only there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ('analyze-iid', 'analyze-anytime', 'coverage', 'check-dags')
REQUIRED = ('src/causalci/__init__.py', 'configs/fig1.json', 'configs/frontdoor.json')


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), '--workload', name,
               '--seed', str(args.seed), '--seconds', str(args.seconds),
               '--trace', str(args.trace)] + (['--smoke'] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2][len('report '):])
        if not args.trace:
            metrics = result['metrics']
            named = {key: (value, '1/s') for key, value in report['named'].items()}
            named.update({key: (metrics[key]['value'], metrics[key]['unit'])
                          for key in ('setup_s', 'peak_rss_mb')},
                         failed_frac=(report['failed_frac'], 'ratio'))
            print(f"== {name}: " + ', '.join(f"{key}={value:.6g} {unit}"
                                             for key, (value, unit) in named.items()))
        if not result['correct']:
            status = status or 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument('--workload', choices=WORKLOADS)
    target.add_argument('--all', action='store_true', help="every workload in turn")
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=20.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--smoke', action='store_true', help="tiny inputs")
    args = parser.parse_args(argv)
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not a causalci checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path.insert(0, str(ROOT / 'src'))
    import bench
    return bench.run_one(args)


if __name__ == '__main__':
    sys.exit(main())
