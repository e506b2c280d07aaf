#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the optik-kv store.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (`perfbench/`,
its own cargo workspace over the repository's crates) twice into
`$CARGO_TARGET_DIR` (default `perfbench/target`): an untraced release
binary and, with the `probe` feature, a traced one. Then:

  --trace 0  runs the untraced binary and reports the end-to-end metrics;
  --trace 1  runs the untraced binary, then the traced one on the same
             seed, checks the per-layer expectations of `metrics.json`
             (metrics predicted to do work are non-zero, those predicted
             zero are zero) and reports every per-layer metric, including
             the tracing overhead.

Every metric is printed as a table first; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Exits non-zero, without that line, if the build or a run fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target_dir):
    """Builds both binaries; returns (untraced, traced) paths."""
    manifest = str(HERE / "Cargo.toml")
    for extra in (["--release"], ["--profile", "traced", "--features", "probe"]):
        cmd = ["cargo", "build", "--offline", "--quiet", "--manifest-path", manifest,
               "--target-dir", str(target_dir)] + extra
        # Cargo's own output goes to stderr so stdout stays the result.
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return target_dir / "release" / "perfbench", target_dir / "traced" / "perfbench"


def run(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{binary.name} printed no result")
    return json.loads(lines[-1])


def table(title, rows):
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:38} {value:>16.6g} {unit:8} {note}")


def samples_note(name, samples):
    for kind in ("multi_get", "range_scan", "get", "write"):
        if name.startswith(kind + "_p"):
            return f"(n={samples[kind]})"
    return ""


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    # Names, units and bounds come from BENCHMARK.json; metrics.json adds
    # what each metric means, the metrics only some workloads have, and the
    # per-layer predictions the traced run checks.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "metrics.json").read_text())
    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target")).resolve()
    untraced_bin, traced_bin = build(target_dir)

    base = run(untraced_bin, args)
    if base["workload"] != args.workload:
        raise RuntimeError("result is for another workload")
    host = base["host"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"clients {base['clients']} available_parallelism {host['available_parallelism']} "
          f"host_calibration_ms {host['calibration_ms']:.3f} "
          f"core_rtt_ns {host['rtt_start_ns']:.0f}->{host['rtt_end_ns']:.0f} "
          f"setups {base['setups']} intervals {base['intervals']}")
    rows = [(m["name"], base["metrics"][m["name"]]["value"], m["unit"],
             samples_note(m["name"], base["samples"]))
            for m in bench["end_to_end"] + notes["reported"]]
    table("end-to-end (untraced)", rows)

    correct = base["correct"]
    attempted = base["attempted"]
    failed = base["failed"]
    if args.trace == 0:
        metrics = {m["name"]: {"value": base["metrics"][m["name"]]["value"], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    else:
        traced = run(traced_bin, args)
        correct = correct and traced["correct"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = {m["name"]: traced["metrics"].get(m["name"], {}).get("value")
                  for m in bench["per_layer"]}
        values["trace.overhead_pct"] = 100.0 * (
            1.0 - traced["metrics"]["throughput_ops_s"]["value"]
            / base["metrics"]["throughput_ops_s"]["value"])
        # Traced-run validity: every per-layer metric is reported, and the
        # predictions of metrics.json hold on this workload.
        for m in bench["per_layer"]:
            v = values[m["name"]]
            predicted = notes["per_layer"][m["name"]]
            problem = None
            if v is None:
                problem = "not reported"
            elif args.workload in predicted["on"] and v == 0:
                problem = "predicted to do work here, but is zero"
            elif args.workload in predicted["zero"] and v != 0:
                problem = f"predicted zero here, but is {v}"
            attempted += 1
            if problem:
                failed += 1
                correct = False
                log(f"check failed: {m['name']}: {problem}")
        table("per-layer (traced)",
              [(m["name"], values[m["name"]] or 0.0, m["unit"], "") for m in bench["per_layer"]])
        metrics = {m["name"]: {"value": values[m["name"]] or 0.0, "unit": m["unit"]}
                   for m in bench["per_layer"]}

    print(json.dumps({"correct": bool(correct and failed == 0), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
