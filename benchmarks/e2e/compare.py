"""Compare result files of ``run.py``: ``compare.py A B``.

A is the base (the parent commit), B the change; each is one result file or
a directory of result files from repeated runs (the claim protocol in
README.md asks for ten alternating pairs).  For every workload and
end-to-end metric this prints both medians, the ratio B/A with its base, the
run-to-run spread and a verdict, using the directions and bounds declared in
``BENCHMARK.json``:

* ``ok``          B is no worse than A by more than the bound;
* ``regressed``   B is worse than A by more than the bound;
* ``unresolved``  the spread of a side's own values is wider than the bound,
                  so neither of the above can be said — unless every value
                  of B reads better than every value of A.

The spread is the distance between the quartiles over the median: of a
side's runs when it has four or more, otherwise of the per-round values
inside its files.  ``comm_bytes`` and every per-layer *count* must be
exactly equal in every file: they repeat exactly for one code and seed, so
any difference is a change of behaviour and is reported as ``regressed``,
whichever way it points.  Exit status: 0 all ok or unresolved, 1 a
regression or a raised share of failed operations, 2 the files cannot be
compared (profile, seed, seconds, workload sizes, config or environment
differ, or a file is unusable).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXACT_END_TO_END = ("comm_bytes",)
MIN_RUNS_FOR_SPREAD = 4


def load(path: str) -> list[dict]:
    """The result files behind one side: a file, or every file of a directory."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        raise ValueError(f"{path} holds no result files")
    return [json.loads(f.read_text()) for f in files]


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def incomparable(runs: list[dict]) -> list[str]:
    """Why these runs must not be compared (empty when they may be)."""
    reasons = []
    first = runs[0]
    for other in runs[1:]:
        for key in ("profile", "seed", "seconds", "env", "thread_pins"):
            if first["manifest"][key] != other["manifest"][key]:
                reasons.append(
                    f"{key}: {first['manifest'][key]!r} vs {other['manifest'][key]!r}"
                )
        if set(first["workloads"]) != set(other["workloads"]):
            reasons.append("the files hold different workloads")
            continue
        for name, workload in first["workloads"].items():
            for key in ("sizes", "config_sha256"):
                if workload.get(key) != other["workloads"][name].get(key):
                    reasons.append(f"{name}: {key} differs")
    return sorted(set(reasons))


class Side:
    """One metric of one workload, over all runs of one side."""

    def __init__(self, runs: list[dict], workload: str, metric: str) -> None:
        entries = [run["workloads"][workload]["metrics"][metric] for run in runs]
        self.values = [e["value"] for e in entries]
        self.value = statistics.median(self.values)
        # What the spread is taken over: the runs themselves when there are
        # enough of them, else the rounds inside the files.
        self.samples = (
            self.values if len(runs) >= MIN_RUNS_FOR_SPREAD
            else [x for e in entries for x in e["per_round"]]
        )


def judge(metric: dict, a: Side, b: Side) -> tuple[str, float]:
    """(verdict, spread) for one workload and metric."""
    lower = metric["better"] == "lower"
    if metric["name"] in EXACT_END_TO_END:
        same = len(set(a.values + b.values)) == 1
        return ("ok" if same else "regressed"), 0.0
    worse = (b.value - a.value) / a.value if lower else (a.value - b.value) / a.value
    wide = max(spread(a.samples), spread(b.samples))
    if wide > metric["bound"]:
        if lower:
            clear = max(b.samples) < min(a.samples)
        else:
            clear = min(b.samples) > max(a.samples)
        return ("ok" if clear else "unresolved"), wide
    return ("regressed" if worse > metric["bound"] else "ok"), wide


def failed_share(runs: list[dict], workload: str) -> float:
    parts = [
        run["workloads"][workload][key]
        for run in runs for key in ("metrics_run", "layers_run")
        if key in run["workloads"][workload]
    ]
    return sum(p["ops_failed"] for p in parts) / sum(p["ops_attempted"] for p in parts)


def compare(a_runs: list[dict], b_runs: list[dict], declared: dict) -> int:
    status = 0
    print(f"A: {len(a_runs)} run(s), B: {len(b_runs)} run(s)")
    for name in a_runs[0]["workloads"]:
        print(name)
        for metric in declared["end_to_end"]:
            a, b = (Side(runs, name, metric["name"]) for runs in (a_runs, b_runs))
            verdict, wide = judge(metric, a, b)
            if verdict == "regressed":
                status = 1
            print(
                f"  {metric['name']:<16} A={a.value:<12.6g} B={b.value:<12.6g}"
                f" B/A={b.value / a.value:.3f}x of {a.value:.6g} {metric['unit']}"
                f"  bound {metric['bound']:.0%}  spread {wide:.1%}  {verdict}"
            )
        layers = [run["workloads"][name].get("layers", {}) for run in a_runs + b_runs]
        for key, entry in layers[0].items():
            seen = {json.dumps(l[key]["value"]) for l in layers}
            if entry.get("exact") and len(seen) > 1:
                status = 1
                print(f"  {key:<30} count differs: {sorted(seen)}  regressed")
        fa, fb = failed_share(a_runs, name), failed_share(b_runs, name)
        if fb > fa:
            status = 1
            print(f"  failed operations rose: {fa:.2%} -> {fb:.2%}  regressed")
    return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    try:
        a_runs, b_runs = load(args[0]), load(args[1])
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reasons = incomparable(a_runs + b_runs)
    if reasons:
        print("error: refusing to compare:\n  " + "\n  ".join(reasons), file=sys.stderr)
        return 2
    return compare(a_runs, b_runs, declared)


if __name__ == "__main__":
    sys.exit(main())
