"""Benchmark of the coarsefine index life cycle on seeded synthetic corpora.

    python3 benchmarks/run.py --workload decode-heavy --seed 0 --seconds 36 --trace 0

Runs one workload in this process as a single-threaded closed loop, in
rounds (see workloads.py), until --seconds have passed, checking every
round's outputs. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it wraps each layer's public functions in spans and reports the
per-layer metrics instead, writing the spans to benchmarks/out/. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--quick runs the same workload at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOAD_NAMES = ["decode-heavy", "fine-heavy", "ingest"]  # as in workloads.py, read before numpy loads

SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_LATENCY_SAMPLES = 200  # so the 95th percentile has ten samples beyond it
CHECKED_QUERIES = 10  # queries per round checked against the reference decoder

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "retrieve_qps": "queries/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "add_docs_per_s": "docs/s",
    "train_pairs_per_s": "pair-epochs/s",
    "recall_at_10": "fraction",
    "index_mb": "MB",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for smoke tests")
    parser.add_argument("--write-fingerprints", action="store_true",
                        help=f"store this run's output fingerprint in {os.path.basename(FINGERPRINTS)}")
    return parser.parse_args(argv)


def time_import() -> None:
    """A fresh interpreter importing the CLI: what every command line pays."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import coarsefine.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coarsefine", "cli.py")):
        print(f"error: {SRC}/coarsefine not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One BLAS thread: each workload is a single-threaded closed loop. This
    # must happen before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: str) -> int:
    import coarsefine
    import checks
    import speed
    import tracing
    import workloads

    if not os.path.abspath(coarsefine.__file__).startswith(SRC + os.sep):
        print(f"error: imported coarsefine from {coarsefine.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.quick:
        workload = workload.quick()

    # Set-up, repeated so its median is steady: a fresh interpreter importing
    # the CLI, input generation and file writing, and an untimed warm-up round
    # on tiny inputs that lets lazy imports and first-call costs finish.
    calibrator = speed.Calibrator()
    setup_measured, setup_adjusted = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrator.kernel_s()
        t0 = time.perf_counter()
        time_import()
        files = workloads.write_inputs(workload, args.seed, os.path.join(work, "inputs"))
        tiny = workloads.write_inputs(workload.quick(), args.seed, os.path.join(work, "warm-inputs"))
        warm = workloads.run_round(workload.quick(), tiny, os.path.join(work, "warm"), calibrator)
        if warm.failed:
            print(f"error: warm-up round failed: {warm.failure}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - t0
        setup_measured.append(elapsed)
        setup_adjusted.append(elapsed * calibrator.factor(before, calibrator.kernel_s()))
    del warm

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rounds, problems, digests, durations = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = workloads.run_round(workload, files, os.path.join(work, "round"), calibrator)
        attempted += rnd.attempted
        failed += rnd.failed
        if tracer:
            tracer.enabled = False  # the checks call into the program too
        if rnd.failed:
            print(f"round {len(durations)}: {rnd.failure}", file=sys.stderr)
        else:
            found, recall = checks.check_round(rnd, files, workload.epochs, CHECKED_QUERIES,
                                               workloads.K)
            digest = checks.file_digests(rnd.index_dir)
            digest.update(checks.file_digests(*os.path.split(rnd.results_path)))
            if digests and digest != digests[0]:
                found.append("index or retrieve output bytes differ from the first round")
            for problem in found[:20]:
                print(f"round {len(durations)}: check failed: {problem}", file=sys.stderr)
            problems += found
            digests.append(digest)
            rounds.append({
                "adjusted": per_round(workload, rnd.adjusted),
                "measured": per_round(workload, rnd.measured),
                "recall": recall,
                "index_bytes": workloads.directory_bytes(rnd.index_dir),
                "speed": (total_seconds(rnd.adjusted), total_seconds(rnd.measured)),
            })
            m = rnd.measured
            print(f"round {len(durations)}: build {m['build']:.3f} s, add {m['add']:.3f} s, "
                  f"train {m['train']:.3f} s, retrieve {m['retrieve']:.3f} s, library p50 "
                  f"{statistics.median(m['latencies']) * 1e3:.2f} ms as measured; speed factor "
                  f"{rnd.adjusted['build'] / m['build']:.3f}")
        del rnd
        if tracer:
            tracer.enabled = True
        durations.append(time.perf_counter() - t0)
        samples = sum(len(r["adjusted"]["latencies"]) for r in rounds)
        if len(durations) >= MIN_ROUNDS and (samples >= MIN_LATENCY_SAMPLES or not rounds):
            # stop once the deadline is less than half a typical round away
            if time.perf_counter() - start + statistics.median(durations) / 2 >= args.seconds:
                break
    if tracer:
        tracer.uninstall()
    print(f"rounds {len(durations)}, measured {time.perf_counter() - start:.1f} s")
    print(f"operations {args.workload}: attempted {attempted}, failed {failed}")

    metrics = {}
    if rounds:
        if len({r["recall"] for r in rounds}) != 1:
            problems.append("recall differs between rounds")
        report_fingerprint(args, digests[0])
        end_to_end = summarise(rounds, "adjusted", setup_adjusted)
        print(f"as measured {json.dumps(summarise(rounds, 'measured', setup_measured))}")
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        if tracer:
            print(f"traced end-to-end {json.dumps(end_to_end, sort_keys=True)}")
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(path)
            print(f"{len(tracer.spans)} spans -> {os.path.relpath(path, ROOT)}")
            # layer times at reference speed too, by the run's overall speed factor
            scale = sum(r["speed"][0] for r in rounds) / sum(r["speed"][1] for r in rounds)
            values = tracing.layer_metrics(tracer.spans)
            metrics = {name: {"value": values[name] * (scale if unit in TIME_UNITS else 1.0),
                              "unit": unit}
                       for name, unit in tracing.LAYER_METRICS.items()}
    print(json.dumps({"correct": bool(rounds) and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


TIME_UNITS = ("s", "ms", "us")


def total_seconds(times: dict) -> float:
    return times["build"] + times["add"] + times["train"] + times["retrieve"] + sum(times["latencies"])


def per_round(workload, times: dict) -> dict:
    return {
        "build_s": times["build"],
        "add_docs_per_s": workload.added.n_docs / times["add"],
        "train_pairs_per_s": workload.pairs * workload.epochs / times["train"],
        "retrieve_qps": workload.queries / times["retrieve"],
        "latencies": times["latencies"],
    }


def summarise(rounds: list[dict], kind: str, setup_times: list[float]) -> dict:
    """End-to-end metrics from the rounds' `kind` ("adjusted" or "measured") times."""
    latencies = [x for r in rounds for x in r[kind]["latencies"]]
    return {
        "setup_s": statistics.median(setup_times),
        "build_s": statistics.median(r[kind]["build_s"] for r in rounds),
        "retrieve_qps": statistics.median(r[kind]["retrieve_qps"] for r in rounds),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p95_ms": statistics.quantiles(latencies, n=20, method="inclusive")[18] * 1e3,
        "add_docs_per_s": statistics.median(r[kind]["add_docs_per_s"] for r in rounds),
        "train_pairs_per_s": statistics.median(r[kind]["train_pairs_per_s"] for r in rounds),
        "recall_at_10": rounds[-1]["recall"],
        "index_mb": rounds[-1]["index_bytes"] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report_fingerprint(args, digest: dict) -> None:
    """Print the output fingerprint and compare it with the stored reference.

    A difference is reported for a change to explain; it is not a gate."""
    names = ["tree.json", "centroids.bin", "embeddings.bin", "results.jsonl"]
    fingerprint = {name: digest[name] for name in names}
    key = f"{args.workload}{'-quick' if args.quick else ''}/seed{args.seed}"
    stored = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    if args.write_fingerprints:
        stored[key] = fingerprint
        with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if key not in stored:
        status = "no reference"
    elif stored[key] == fingerprint:
        status = "matches reference"
    else:
        status = "DIFFERS from reference in " + ", ".join(
            n for n in names if stored[key].get(n) != fingerprint[n])
    print(f"fingerprint {key}: {status} {json.dumps(fingerprint, sort_keys=True)}")


if __name__ == "__main__":
    sys.exit(main())
