#!/usr/bin/env python3
"""Digest of the simulated results in a widir-sweep-v1 document.

The digest is a SHA-256 over every result object with the host-side
fields (``host_*``) and the frontend echo (``frontend``, which names
trace paths) removed. Two sweeps that simulated the same machines to
the same results have the same digest, whatever host ran them, so a
perf change can show it left the simulation untouched:

    python3 perfbench/digest.py bench/out/fig10_scalability.json
"""

import hashlib
import json
import sys


def digest(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "widir-sweep-v1":
        raise ValueError(f"{path}: not a widir-sweep-v1 document")
    results = [
        {k: v for k, v in r.items() if not k.startswith("host_") and k != "frontend"}
        for r in doc["results"]
    ]
    canon = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: digest.py SWEEP_JSON")
    print(digest(sys.argv[1]))
