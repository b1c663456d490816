"""Re-record transcript.json and counts.json from the code in this checkout.

    python3 perfbench/record.py

transcript.json holds the exit code and stdout of every CLI call of the
expfam and corpus workloads. counts.json holds the exact counts of expfam
and corpus, and of the generated workload on its tuning batch and its
held-out batch. Record only after a deliberate change of behaviour, in a
change of its own.
"""

from __future__ import annotations

import json
import os
import time
from types import SimpleNamespace

from run import EXACT_LAYERS, HELD_OUT_BATCH, HERE, TUNED_BATCH, spawn

RECORDED = (("expfam", "any"), ("corpus", "any"),
            ("generated", str(TUNED_BATCH)), ("generated", str(HELD_OUT_BATCH)))


def dump(name, data):
    with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def main() -> int:
    dump("transcript.json", {})
    transcript, counts = {}, {}
    for workload, key in RECORDED:
        batch = TUNED_BATCH if key == "any" else int(key)
        args = SimpleNamespace(workload=workload, seed=1, batch_seed=batch, seconds=0, trace=1)
        child = spawn(args, time.perf_counter() + 600)
        failures = {k: v for p in child["passes"] for k, v in p["failures"].items()}
        if failures:
            raise SystemExit(f"{workload}: refusing to record failing jobs: {failures}")
        if workload != "generated":
            transcript[workload] = child["recorded"]
        fp = dict(child["passes"][0]["fingerprint"])
        fp.pop("outputs_sha")
        layers = child["traced"][0]["layers"]
        counts.setdefault(workload, {})[key] = {
            "fingerprint": fp,
            "layers": {k: layers[k] for k in EXACT_LAYERS},
        }
        print(f"recorded {workload} {key}")
    dump("transcript.json", transcript)
    dump("counts.json", counts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
