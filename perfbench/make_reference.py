"""Write perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each named workload (default: all) once at its default seed and stores
the multiset of (certificate kind, verdict) pairs and the headline values the
runner checks reports against.  Regenerate only when a change is meant to
alter the certificates; say so in the change.
"""

import json
import shutil
import sys
import tempfile
import time

from run import HERE, ROOT, child_env, load_json, run_call
from scoring import reference_entry


def main(argv) -> int:
    specs = load_json("workloads.json")["workloads"]
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=tmp_root)
    try:
        for name in argv or sorted(specs):
            spec = specs[name]
            call = run_call(spec, spec["default_seed"], False, workdir, child_env(),
                            time.perf_counter() + 600.0)
            if "error" in call:
                print(f"{name}: {call['error']}", file=sys.stderr)
                return 1
            reference[name] = reference_entry(call["payload"])
            print(f"{name}: {sum(n for _, _, n in reference[name]['kinds'])} certificates, "
                  f"headline {reference[name]['headline']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
