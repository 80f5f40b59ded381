"""Regenerate pins.json: expected counts and digests per (workload, seed, size).

    python3 perfbench/make_pins.py [--seeds 0-99]

The kg_* pins come from the in-process reference (extract → triples_batch
→ linker → per-document URDNA2015 → set), without Ray. The clean_docs pins
come from one clean_corpus run per size under a 2-CPU Ray session. Run it
only when a change to the package is meant to change outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE)]

from perfbench.workloads import PINS_PATH, WORKLOADS, digest  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-99", help="inclusive range a-b")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    pins = {}
    work = os.path.join(os.path.dirname(HERE), ".pbw_pins")
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in ("kg_build", "kg_full"):
            for scale in ("full", "smoke"):
                for seed in range(lo, hi + 1) if scale == "full" else [0]:
                    wl = WORKLOADS[name](seed, scale)
                    wl.prepare(os.path.join(work, "in"))
                    pins[wl.pin_key()] = wl.reference()
                    print(wl.pin_key(), pins[wl.pin_key()], flush=True)
        import pyarrow.dataset as pads
        import ray

        os.environ["PYTHONPATH"] = os.path.dirname(HERE)
        ray.init(address="local", num_cpus=2, include_dashboard=False, log_to_driver=False, _temp_dir=os.path.join(work, "r"))
        try:
            for scale in ("full", "smoke"):
                wl = WORKLOADS["clean_docs"](0, scale)
                wl.prepare(os.path.join(work, "docs", scale))
                out = os.path.join(work, "clean", scale)
                kept = wl.run(out)["kept"]
                ids = pads.dataset(out).to_table(columns=["doc_id"]).column("doc_id").to_pylist()
                pins[wl.pin_key()] = {"kept": kept, "digest": digest((d,) for d in ids)}
                print(wl.pin_key(), pins[wl.pin_key()], flush=True)
        finally:
            ray.shutdown()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(PINS_PATH, "w") as f:
        json.dump(dict(sorted(pins.items())), f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
