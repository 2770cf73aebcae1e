"""Check one ``repro ingest --json`` result: a non-empty two-class graph.

Usage::

    python ci/check_ingest.py /tmp/ingest.json
"""

import json
import sys

stats = json.load(open(sys.argv[1]))
assert stats["num_nodes"] > 0 and stats["num_edges"] > 0, stats
assert len(stats["class_counts"]) == 2, stats["class_counts"]
print(f"ingest OK: {stats['num_nodes']} nodes, "
      f"{stats['num_edges']} edges, {len(stats['relations'])} relation(s)")
