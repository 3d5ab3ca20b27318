"""Pin the correctness reference of every benchmark workload.

    python3 perfbench/pin.py

Run from the root of a checkout of the commit whose verdicts are the
reference.  Writes ``perfbench/reference.json`` with each workload's
``[check_id, verdict, cases]`` list, and for the seeded ``suite-fast`` the
pinned seed and the report digest (params excluded; see ``child.py``).
Re-pin only when a change is meant to alter verdicts or case counts.
"""

import json
import os
import sys
from time import perf_counter

from run import HERE, spawn, src_digest

SEEDED = {"suite-fast": 0}


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    out = {}
    for name in names:
        seed = SEEDED.get(name)
        child = spawn(root, name, seed or 0, [], perf_counter() + 600)
        if "error" in child:
            print("%s: %s" % (name, child["error"]), file=sys.stderr)
            return 1
        ids = [c[0] for c in child["checks"]]
        if len(set(ids)) != len(ids) or any(c[1] != "pass" or c[2] < 1 for c in child["checks"]):
            print("%s: duplicate ids or a check that does not pass" % name, file=sys.stderr)
            return 1
        out[name] = {"seed": seed, "checks": child["checks"]}
        if "digest" in child:
            out[name]["digest"] = child["digest"]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"src_sha256": src_digest(root), "workloads": out}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
