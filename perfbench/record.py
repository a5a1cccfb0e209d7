"""Record the benchmark's reference digests into references.json.

    python3 perfbench/record.py --seeds 0-63 [--workload NAME ...]

For every workload and seed it stores, per request slot, the digest of the
point-wise oracle's answer (on the discrete twin for the dense workload).
For the dense workload it also stores the digest of the canonical rendering
that ``eval_c`` gives at the commit that records it.  Entries already in the
file for other workloads or seeds are kept.  Re-record after changing a
workload's graph, queries or the generator: old digests no longer apply.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REFERENCES, load_recorded, oracle_digests, text_digest  # noqa: E402
from gen import DENSE  # noqa: E402
from workloads import WORKLOADS, make_instance, run_request  # noqa: E402


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(workload, seed: int) -> dict:
    entry = {"points": oracle_digests(workload, seed)}
    if workload.graph.mode == DENSE:
        inst = make_instance(workload, seed)
        entry["renders"] = [
            text_digest(run_request(inst, slot)[0][2]) for slot in range(len(workload.mix))
        ]
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="record reference digests")
    p.add_argument("--seeds", required=True, help="an inclusive range such as 0-63")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    recorded = load_recorded()
    for name in args.workload or sorted(WORKLOADS):
        table = recorded.setdefault(name, {})
        for seed in _seed_range(args.seeds):
            table[str(seed)] = record(WORKLOADS[name], seed)
            print(f"{name} seed {seed}", file=sys.stderr, flush=True)
    ordered = {
        name: dict(sorted(recorded[name].items(), key=lambda kv: int(kv[0])))
        for name in sorted(recorded)
    }
    REFERENCES.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
