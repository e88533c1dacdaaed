"""Run every workload on ten seeds and report each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/spread.py --out perfbench/records/spread.json

Each run lasts ``run_seconds`` of ``BENCHMARK.json``.  The spread of a
metric is the distance between the first and third quartiles of its ten
values (``statistics.quantiles(values, n=4)``) as a share of their
median.  ``BENCHMARK.json`` bounds it.  The same spreads of the times
as timed, without the host-speed scaling, are recorded beside them
under ``raw``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("endsystem_bursty", "diff_campaign", "aggregation_1m")
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs: dict[str, list[dict]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        record = Path(tmp) / "record.json"
        for workload in WORKLOADS:
            for seed in SEEDS:
                subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--record", str(record)],
                    capture_output=True, text=True, check=True,
                )
                full = json.loads(record.read_text())
                runs.setdefault(workload, []).append(
                    {"seed": seed, **full["result"], "raw": full["raw"]}
                )

    def stats(values: list[float]) -> dict:
        return {"median": statistics.median(values), "spread": spread(values)}

    summary = {
        workload: {
            "correct": all(r["correct"] for r in rs),
            **{
                metric: stats([r["metrics"][metric]["value"] for r in rs])
                for metric in rs[0]["metrics"]
            },
            "raw": {
                metric: stats([r["raw"][metric] for r in rs]) for metric in rs[0]["raw"]
            },
        }
        for workload, rs in runs.items()
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seconds": seconds, "summary": summary, "runs": runs},
        indent=1, sort_keys=True,
    ) + "\n")
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
