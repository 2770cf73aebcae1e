"""Fail on an e2ebench run that was wrong, not on one that was slow.

Reads the captured stdout of ``e2ebench/run.py`` and requires one JSON
result line per workload named in ``e2ebench/workloads.json``, each with
``correct: true`` (the bit-identical probe and every response check held)
and no failed operation.  No timing is checked.

Usage::

    python3 e2ebench/run.py --workload all --seed 1 --seconds 10 --trace 0 | tee e2e.log
    python ci/check_e2ebench.py e2e.log
"""

import json
import re
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "e2ebench" / "workloads.json"

lines = Path(sys.argv[1]).read_text().splitlines()
expected = list(json.loads(WORKLOADS.read_text())["workloads"])
names = [m.group(1) for m in map(re.compile(r"^workload (\S+) ").match, lines) if m]
results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
assert names == expected and len(results) == len(expected), (names, len(results))
for name, result in zip(names, results):
    assert result["correct"], f"{name}: correct is false"
    assert result["failed"] == 0, f"{name}: {result['failed']} failed operation(s)"
    assert result["attempted"] > 0, f"{name}: no operation attempted"
    print(f"{name}: correct, {result['attempted']} operations, 0 failed")
