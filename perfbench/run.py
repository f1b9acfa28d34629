#!/usr/bin/env python3
"""polybloch benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload window-sweep --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the timed ops are replayed once more with spans installed
around every layer's public functions (see ``spans.py``), all CLI
subcommands are replayed on ``configs/cosine_sweep.yaml``, and the result
carries the per-layer metrics.  ``--write-reference`` runs every op of the
default seed once and stores the answers the runs are checked against.
``--setup-only`` sets up, prints the set-up time and exits; a ``--trace 0``
run starts it to sample more cold set-ups.
"""

import os
import sys
import time

T_START = time.perf_counter()
CPUS = sorted(os.sched_getaffinity(0))
NPROC = len(CPUS)
# BLAS reads its thread count once, when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
# setup_s is the median of this many cold set-ups, each in a fresh process.
COLD_SETUPS = 3
CLI_CONFIG = "configs/cosine_sweep.yaml"


def import_program():
    """Put the checkout's own sources first; refuse to measure anything else."""
    src = ROOT / "src"
    if not (src / "polybloch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polybloch sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import polybloch

    if Path(polybloch.__file__).resolve().parent != src / "polybloch":
        raise SystemExit(f"perfbench: imported polybloch from {polybloch.__file__}, not {src}")


def start_on(cpu: int) -> None:
    """Move the calling thread to `cpu`, then let it run on every CPU again.

    The scheduler leaves a lone busy thread on the CPU it is on, so the
    thread stays on `cpu` until it blocks.  Other threads, the BLAS
    workers among them, keep their own CPU sets.
    """
    os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(0, CPUS)


def run_ops(wl, seconds: float, indices=None) -> list[dict]:
    """Whole cycles of ops in schedule order until the next cycle would
    likely overrun `seconds` (at least one), or exactly `indices` when given.

    A cycle is the workload's smallest repeating op mix, so every run
    measures the same mix whatever its length.  Op `i` starts on CPU
    `i mod nproc`: each CPU's speed drifts on its own, and a
    single-threaded op would otherwise spend the whole run on one of them.
    """
    records = []
    t0 = time.perf_counter()
    i = 0
    while True:
        op = i if indices is None else indices[i]
        start_on(CPUS[i % len(CPUS)])
        start = time.perf_counter()
        try:
            answer, error = wl.run(op), None
        except Exception as err:  # any raised error is a failed op
            answer, error = None, f"{type(err).__name__}: {err}"
            print(f"perfbench: op {op} failed: {error}", file=sys.stderr)
        records.append({"op": op, "seconds": time.perf_counter() - start, "answer": answer, "error": error})
        i += 1
        elapsed = time.perf_counter() - t0
        if indices is not None:
            if i == len(indices):
                break
        elif i % wl.CYCLE == 0 and elapsed + elapsed / (i // wl.CYCLE) > seconds:
            break
    return records


def load_reference(name: str) -> dict:
    path = REFERENCE / f"{name}.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: no reference answers at {path}; run with --write-reference")
    with open(path) as fh:
        return json.load(fh)


def mismatches(wl, records, seed: int, reference) -> list[str]:
    """Problems with the answers: seed-independent certificates for every
    seed, stored answers for the default seed."""
    out = []
    for rec in records:
        ans = rec["answer"]
        if ans is None:
            continue
        problems = wl.certify(ans, reference)
        if seed == DEFAULT_SEED:
            answers = reference["answers"]
            problems += wl.compare(ans, answers[rec["op"] % len(answers)])
        out += [f"op {rec['op']}: {p}" for p in problems]
    return out


def versions() -> dict:
    import numpy as np
    import scipy

    info = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": NPROC, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def replay_cli(tag: str) -> dict:
    """Every subcommand once, traced, writing into the benchmark's own output."""
    from polybloch import cli
    from spans import CLI_SUBCOMMANDS, Installation, Tracer

    tracer = Tracer()
    out_dir = OUT / f"cli-{tag}"
    metrics = {}
    with open(OUT / f"cli-{tag}.log", "w") as log, Installation(tracer):
        for sub in CLI_SUBCOMMANDS:
            idx = tracer.begin(f"cli.{sub}")
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                try:
                    code = cli.main([sub, "-c", str(ROOT / CLI_CONFIG), "-o", str(out_dir)])
                except Exception as err:  # outside the documented 0/2/3 contract
                    print(f"{sub}: uncaught {type(err).__name__}: {err}", file=log)
                    code = 1
            tracer.end(idx)
            _, start, end, _ = tracer.spans[idx]
            metrics[f"cli.{sub}_s"] = {"value": end - start, "unit": "s"}
            metrics[f"cli.{sub}_exit"] = {"value": code, "unit": "code"}
    tracer.dump(OUT / f"spans-{tag}-cli.jsonl")
    return metrics


def cold_setup_s(workload: str, seed: int) -> float:
    """One set-up in a fresh process: its time from start to inputs ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def write_reference(wl, name: str) -> None:
    records = run_ops(wl, 0.0, indices=list(range(len(wl.inputs))))
    failed = [r for r in records if r["error"]]
    if failed:
        raise SystemExit(f"perfbench: reference ops failed: {[r['error'] for r in failed]}")
    doc = {"workload": name, "seed": DEFAULT_SEED, "answers": [r["answer"] for r in records]}
    problems = [p for r in records for p in wl.certify(r["answer"], doc)]
    if problems:
        raise SystemExit(f"perfbench: reference answers fail their certificates: {problems}")
    REFERENCE.mkdir(exist_ok=True)
    with open(REFERENCE / f"{name}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} reference answers for {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setups = [time.perf_counter() - T_START]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            parser.error("reference answers are stored for the default seed only")
        write_reference(wl, args.workload)
        return 0

    reference = load_reference(args.workload)
    t0 = time.perf_counter()
    records = run_ops(wl, args.seconds)
    timed_s = time.perf_counter() - t0
    problems = mismatches(wl, records, args.seed, reference)

    failed = sum(r["error"] is not None for r in records)
    attempted = len(records)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **versions(),
            "sizes": wl.sizes([r["answer"] for r in records if r["answer"] is not None]),
            "op_p50_samples": attempted, "failed": failed,
            "fail_frac": failed / attempted, "answer_mismatches": len(problems),
            "import_s": import_s}

    if args.trace:
        from spans import Counting, Installation, Tracer, layer_metrics, layer_shares, leftover_wrappers

        OUT.mkdir(exist_ok=True)
        tag = f"{args.workload}-{args.seed}"
        tracer = Tracer()
        ops = [r["op"] for r in records]
        with Installation(tracer):
            traced = run_ops(wl, 0.0, indices=ops)
        overhead_s = sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in records)
        tracer.dump(OUT / f"spans-{tag}.jsonl")
        # Hot-method call counts come from a replay of their own, so that
        # the counters' overhead is in no span's self time.
        with Counting(tracer):
            traced += run_ops(wl, 0.0, indices=ops)
        traced_problems = mismatches(wl, traced, args.seed, reference)
        traced_failed = sum(r["error"] is not None for r in traced)
        metrics = layer_metrics(tracer, overhead_s)
        metrics.update(replay_cli(tag))
        left = leftover_wrappers()
        if left:
            raise SystemExit(f"perfbench: wrappers left installed: {left}")
        problems += [f"traced {p}" for p in traced_problems]
        failed += traced_failed
        attempted += len(traced)
        info.update(layer_self_share=layer_shares(tracer), traced_failed=traced_failed,
                    answer_mismatches=len(problems))
    else:
        durations = [r["seconds"] for r in records]
        certified = attempted - failed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [cold_setup_s(args.workload, args.seed) for _ in range(COLD_SETUPS - 1)]
        info["cold_setups_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": certified / timed_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for p in problems[:20]:
        print(f"perfbench: mismatch: {p}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
