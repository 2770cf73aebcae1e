"""Check two uncached ``repro ingest --json`` results of one spec for the
same fingerprint (seed determinism).

Usage::

    python ci/check_determinism.py /tmp/a.json /tmp/b.json
"""

import json
import sys

a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert not a["cache_hit"] and not b["cache_hit"], (a, b)
assert a["fingerprint"] == b["fingerprint"], (a["fingerprint"], b["fingerprint"])
print(f"deterministic: {a['fingerprint'][:16]}...")
