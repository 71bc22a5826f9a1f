"""The repo's wall-clock benchmark: five workloads, end to end and by layer.

    python3 benchmarks/e2e/run.py                      # all five -> result file
    python3 benchmarks/e2e/run.py --smoke              # same path, tiny sizes
    python3 benchmarks/e2e/run.py --selftest           # checks of the harness
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The last form is one measured run and is what ``BENCHMARK.json`` names: it
repeats the workload's round (see ``workloads.py``) for ``--seconds``,
prints every metric by name and unit and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0`` (tracing off), the per-layer metrics with
``--trace 1`` (untraced and traced rounds alternate; the traced digest must
equal the untraced one).  Without ``--workload`` every workload is run both
ways, each in a fresh subprocess, and the numbers plus a run manifest go to
a result file that ``compare.py`` reads.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# This directory holds a module named ``trace``; import it as ``e2e.trace``
# through the parent so the standard library's ``trace`` stays reachable.
sys.path[0] = str(HERE.parent)
sys.path.insert(1, str(ROOT / "src"))

#: BLAS/OpenMP pools are pinned to one thread so nothing contends for a core
#: inside a workload; must be in the environment before numpy is imported.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: A run repeats its round until --seconds have passed, at least and at most
#: this many times (a traced run traces every other round).
MIN_ROUNDS = 3
MAX_ROUNDS = 8


# ---------------------------------------------------------------------- #
# One measured run of one workload (what BENCHMARK.json's command runs)
# ---------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, traced: bool, profile: str):
    """Repeat the workload's round for ``seconds``; returns the record."""
    from e2e import metrics, workloads
    from e2e.trace import Tracer
    from repro import RunConfig

    spec = workloads.SPECS[profile][name]
    cfg = RunConfig(seed=seed, **spec.config)
    start = time.perf_counter()
    plain, with_trace, checkers, inputs = [], [], [], None
    while True:
        n = len(plain) + len(with_trace)
        elapsed = time.perf_counter() - start
        if n >= MAX_ROUNDS or (n >= MIN_ROUNDS and elapsed >= seconds):
            break
        tracer = Tracer() if traced and n % 2 == 1 else None
        # As timeit does: no collector pauses inside a round; collect between.
        gc.collect()
        gc.disable()
        try:
            rnd, checker, inputs = workloads.run_round(spec, cfg, inputs, tracer)
        finally:
            gc.enable()
        checkers.append(checker)
        if tracer is None:
            plain.append(rnd)
        else:
            with_trace.append((rnd, tracer))
    # Before the verification pass: its full-graph reference inference is
    # not part of the workload and would set the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = plain + [r for r, _ in with_trace]
    checkers[0].verify()  # round 0; the others are held to its digest
    digests = {r.digest for r in rounds}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + sum(c.failed for c in checkers)
    record = {
        "workload": name,
        "profile": profile,
        "seed": seed,
        "trace": int(traced),
        "rounds": len(rounds),
        "ops_attempted": attempted,
        "ops_failed": failed,
        # One digest: every round, traced or not, reproduced the same
        # losses, weights and logits bit for bit.
        "correct": failed == 0 and len(digests) == 1,
        "digest": rounds[0].digest,
        "config": cfg.to_dict(),
        "config_sha256": hashlib.sha256(
            json.dumps(cfg.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
        "sizes": rounds[0].sizes,
        "open_loop": rounds[0].open_loop,
    }
    if traced:
        record["metrics"], record["layer_table"] = metrics.per_layer(plain, with_trace)
        record["entry_shares"] = metrics.entry_shares(record["layer_table"])
    else:
        record["metrics"] = metrics.end_to_end(plain, peak_rss_mb)
    return record


def print_record(record: dict) -> None:
    print(
        f"{record['workload']}  profile={record['profile']} seed={record['seed']} "
        f"trace={record['trace']} rounds={record['rounds']} "
        f"ops={record['ops_attempted']} failed={record['ops_failed']} "
        f"correct={record['correct']}"
    )
    for name, m in record["metrics"].items():
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}{n}")
    if "layer_table" in record:
        print("  layers (self time: outside every traced callee; entry: under "
              "the spans the harness calls into)")
        for row in record["layer_table"]:
            print(
                f"    {row['span']:<24} self {row['self_s']:8.4f} s {row['self_share']:6.1%}"
                f"   entry {row['entry_s']:8.4f} s {row['entry_share']:6.1%}"
                f"   calls {row['calls']}"
            )
        print("  by entry layer: " + "  ".join(
            f"{layer} {share:.1%}" for layer, share in record["entry_shares"].items()
        ))


def contract_line(record: dict) -> str:
    """The one JSON object the benchmark contract asks for."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]}
            for k, m in record["metrics"].items()
        },
    })


# ---------------------------------------------------------------------- #
# All workloads -> one result file
# ---------------------------------------------------------------------- #
def manifest(seed: int, seconds: float, profile: str) -> dict:
    from repro.bench import env_fingerprint

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"  # a checkout that is not a git repository
    return {
        "git_rev": rev,
        "env": env_fingerprint(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "seconds": seconds,
        "profile": profile,
    }


def run_all(seed: int, seconds: float, profile: str, out: Path) -> int:
    from e2e.workloads import WORKLOADS

    result = {"schema": 1, "manifest": manifest(seed, seconds, profile), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        merged = {}
        for trace_flag in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace_flag), "--emit-record",
            ] + (["--smoke"] if profile == "smoke" else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            records = [l for l in lines if l.startswith("record: ")]
            print("\n".join(l for l in lines[:-1] if not l.startswith("record: ")))
            if proc.returncode != 0 or not records:
                sys.stderr.write(proc.stderr)
                print(f"{name} --trace {trace_flag}: exit {proc.returncode}")
                ok = False
                continue
            record = json.loads(records[0][len("record: "):])
            ok = ok and record["correct"]
            key = "layers" if trace_flag else "metrics"
            merged.update({
                k: record[k]
                for k in ("config", "config_sha256", "sizes", "open_loop", "digest")
            })
            merged[key] = record["metrics"]
            merged[f"{key}_run"] = {
                k: record[k]
                for k in ("rounds", "ops_attempted", "ops_failed", "correct")
            }
            if trace_flag:
                merged["layer_table"] = record["layer_table"]
                merged["entry_shares"] = record["entry_shares"]
        result["workloads"][name] = merged
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}" + ("" if ok else "  (with failures)"))
    return 0 if ok else 1


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (see BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", type=Path, help="result file (all-workload mode)")
    parser.add_argument("--emit-record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before anything imports numpy
    if args.selftest:
        from e2e.selftest import selftest

        return selftest()

    profile = "smoke" if args.smoke else "full"
    seconds = args.seconds
    if seconds is None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        seconds = 0.5 if args.smoke else float(declared)
    if args.workload is None:
        out = args.out or HERE / "out" / f"e2e_{profile}_seed{args.seed}.json"
        return run_all(args.seed, seconds, profile, out)

    from e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, seconds, bool(args.trace), profile)
    print_record(record)
    if args.emit_record:
        print("record: " + json.dumps(record))
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
