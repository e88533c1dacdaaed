"""Regenerate the numbers in ``perfbench/README.md`` from run records.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload diff_campaign --seed 0 --trace 0 \\
        --record perfbench/records/diff_campaign.trace0.json
    ...
    python3 perfbench/report.py

Every ``*.json`` record under ``perfbench/records`` is read; the text
between the two ``generated`` markers of the README is replaced.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
README = HERE / "README.md"
BEGIN = "<!-- generated from perfbench/records by perfbench/report.py -->"
END = "<!-- end of generated text -->"
ORDER = ("endsystem_bursty", "diff_campaign", "aggregation_1m")


def load(records_dir: Path) -> tuple[list[dict], list[dict]]:
    """Run records, each marked ``held_out`` when its file name says so,
    and the spread records written by ``spread.py``."""
    records, spreads = [], []
    for path in sorted(records_dir.glob("*.json")):
        record = json.loads(path.read_text())
        if path.name.startswith("spread"):
            spreads.append(record)
            continue
        record["held_out"] = "heldout" in path.name
        records.append(record)
    return records, spreads


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def render_spreads(spreads: list[dict]) -> list[str]:
    lines = ["### Spread over ten seeds", ""]
    for record in spreads:
        seeds = [r["seed"] for r in next(iter(record["runs"].values()))]
        lines.append(
            f"Seeds {min(seeds)}–{max(seeds)}, {record['seconds']:g} s per run;"
            " spread is the interquartile range over the median; the raw columns"
            " are the same figures as timed, without the host-speed scaling."
        )
        lines += [
            "",
            "| workload | all correct | failed checks | metric | median | spread | raw median | raw spread |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for name in ORDER:
            summary = record["summary"].get(name)
            if summary is None:
                continue
            runs = record["runs"][name]
            failed = f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
            for metric, stats in summary.items():
                if metric in ("correct", "raw"):
                    continue
                raw = summary["raw"].get(metric)
                lines.append(
                    f"| `{name}` | {summary['correct']} | {failed} | `{metric}`"
                    f" | {fmt(stats['median'])}"
                    f" | {stats['spread']:.1%} | "
                    + (f"{fmt(raw['median'])} | {raw['spread']:.1%} |" if raw else " | |")
                )
        lines.append("")
    return lines


def render(records: list[dict], spreads: list[dict]) -> str:
    plain = {r["workload"]: r for r in records if not r["trace"] and not r["held_out"]}
    traced = {r["workload"]: r for r in records if r["trace"]}
    held = [r for r in records if r["held_out"]]
    lines = ["### End-to-end metrics (untraced run)", ""]
    lines.append("| workload | seed | setup_s | throughput_per_s | peak_rss_mb | error_rate | digest |")
    lines.append("|---|---|---|---|---|---|---|")
    for name in ORDER:
        r = plain.get(name)
        if r is None:
            continue
        m = {k: v["value"] for k, v in r["result"]["metrics"].items()}
        res = r["result"]
        lines.append(
            f"| `{name}` | {r['seed']} | {fmt(m['setup_s'])} | {fmt(m['throughput_per_s'])}"
            f" | {fmt(m['peak_rss_mb'])} | {res['failed']}/{res['attempted']} | `{r['digest']}` |"
        )
    lines += ["", "Throughput under its workload-specific name, and simulated results:", ""]
    for name in ORDER:
        r = plain.get(name)
        if r is None:
            continue
        items = {**r["info"], **{k: v for k, v in r["sim"].items() if k.startswith("sim") or k == "share_error"}}
        lines.append(f"- `{name}`: " + ", ".join(f"{k} {fmt(v)}" for k, v in items.items()))
    lines += [
        "", "### Self-time shares (traced run)", "",
        "Shares of the summed self time of all spans per traced rep, set-up"
        " spans (the 1M joins of `aggregation_1m`) included; `sim.run` is the"
        " DES loop's own time.", "",
    ]
    for name in ORDER:
        r = traced.get(name)
        if r is None:
            continue
        m = {k: v["value"] for k, v in r["result"]["metrics"].items()}
        selfs = {k[: -len(".self_s")]: v for k, v in m.items() if k.endswith(".self_s") and v > 0}
        total = sum(selfs.values())
        lines.append(
            f"`{name}` (seed {r['seed']}): tracing overhead {m['trace.overhead_ratio']:.3f}×"
            f" per unit of work, set-up {m['trace.setup_overhead_ratio']:.3f}×;"
            f" spans cover {m['trace.span_coverage']:.1%} of the timed phases."
        )
        lines += ["", "| layer | calls per rep | self_s per rep | share |", "|---|---|---|---|"]
        for layer, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            calls = m.get(f"{layer}.calls")
            lines.append(
                f"| `{layer}` | {fmt(calls) if calls is not None else ''} | {value:.4f} | {value / total:.1%} |"
            )
        lines.append("")
    lines += render_spreads(spreads)
    if held:
        lines += ["### Held-out seed", ""]
        for r in held:
            res = r["result"]
            lines.append(
                f"- `{r['workload']}` seed {r['seed']}: error_rate {res['failed']}/{res['attempted']},"
                f" digest `{r['digest']}`"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    records, spreads = load(HERE / "records")
    if not records:
        print("no records under perfbench/records", file=sys.stderr)
        return 1
    text = README.read_text()
    head, rest = text.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    README.write_text(head + BEGIN + "\n\n" + render(records, spreads) + "\n" + END + tail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
