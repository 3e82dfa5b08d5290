#!/usr/bin/env python3
"""tgdkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout: the package is imported from ``src/``.
One run is one workload in this single process. It sets the workload up
several times from the seed (``setup_s`` is the median), then repeats the
workload's protocol until ``--seconds`` have passed and reports medians over
the repetitions. Every output is checked; an operation that raises or fails
a check counts as failed. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A traced run alternates untraced and traced repetitions, so
the tracing overhead is measured in the same process. ``--smoke`` runs every
workload at toy size in both modes and validates the output. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_REPS = {0: 3, 1: 4}  # a traced run needs two of each kind


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, max(0, math.ceil(q / 100 * len(xs)) - 1))]


def environment(threads: str) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "blas_threads": threads,
        **{v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def end_to_end(reps, setup_s: float, peak_rss_mib: float) -> dict:
    return {
        "setup_s": setup_s,
        "run_s": median([r.run_s for r in reps]),
        "train_samples_per_s": median([r.train_samples / r.train_s for r in reps if r.train_s]),
        "denoise_slices_per_s": median([x for r in reps for x in r.denoise_rates]),
        "peak_rss_mib": peak_rss_mib,
    }


def quality(reps) -> dict:
    """Deterministic for a seed (every repetition is checked to agree), but
    they vary across seeds as much as the data do."""
    first = reps[0].values
    return {k: first.get(k) for k in ("final_loss", "val_mse", "eval_mse_vs_truth")}


def per_layer(traced, plain_run_s: list[float]) -> dict:
    """Medians over the traced repetitions of each span's time and count."""
    import tracing

    summaries = [(tracing.summarize(spans), counts, rep) for spans, counts, rep in traced]

    def med(fn):
        return median([fn(s, c, r) for s, c, r in summaries])

    def total(*names):
        return lambda s, c, r: sum(s["total"].get(n, 0.0) for n in names)

    def calls(name):
        return lambda s, c, r: s["calls"].get(name, 0)

    def count(name):
        return lambda s, c, r: c.get(name, 0.0)

    def ratio(num, den):
        return lambda s, c, r: c.get(num, 0.0) / c[den] if c.get(den) else 0.0

    def share(fn):
        return lambda s, c, r: fn(s, c, r) / r.run_s if r.run_s else 0.0

    conv_self = lambda s, c, r: s["conv_self"]  # noqa: E731
    bn = total("ops.batchnorm_forward", "ops.batchnorm_backward")
    relu = total("ops.relu_forward", "ops.relu_backward")
    adam = total("masking.masked_update", "masking.masked_bn_update")
    steps_ms = [ms for s, _, _ in summaries for ms in s["steps_ms"]]
    traced_run_s = median([r.run_s for _, _, r in summaries])
    plain = median(plain_run_s)
    m = {
        "ops.conv.self_s": med(conv_self),
        "ops.conv.calls": med(count("ops.conv.calls")),
        "ops.conv.flops_per_step": med(ratio("ops.conv.train_flops", "training.steps")),
        "ops.conv.bytes_per_step": med(ratio("ops.conv.train_bytes", "training.steps")),
        "ops.conv.flops_per_slice": med(ratio("ops.conv.infer_flops", "model.slices_denoised")),
        "ops.conv.bytes_per_slice": med(ratio("ops.conv.infer_bytes", "model.slices_denoised")),
        "ops.conv.gflop_per_s": med(lambda s, c, r: (
            c.get("ops.conv.train_flops", 0.0) + c.get("ops.conv.infer_flops", 0.0)
        ) / s["conv_self"] / 1e9 if s["conv_self"] else 0.0),
        "ops.conv.share": med(share(conv_self)),
        "ops.batchnorm.share": med(share(bn)),
        "ops.relu.share": med(share(relu)),
        "masking.adam.share": med(share(adam)),
    }
    for op in ("batchnorm_forward", "batchnorm_backward", "relu_forward", "relu_backward"):
        m[f"ops.{op}.s"] = med(total(f"ops.{op}"))
        m[f"ops.{op}.calls"] = med(calls(f"ops.{op}"))
    for name in ("model.forward_train", "model.backward", "model.denoise_volume",
                 "model.save_weights", "model.load_weights", "model.network_hash",
                 "training.mse_loss", "masking.masked_update", "masking.masked_bn_update",
                 "masking.commit_running_stats", "masking.build_masks", "kse.kse_scores",
                 "kse.drop_kernels", "phantom.build_dataset", "phantom.make_study",
                 "phantom.save_study", "phantom.load_study", "metrics.ensemble_bias",
                 "metrics.ensemble_cov", "metrics.mse", "cli.gen-data", "cli.n2n",
                 "cli.evaluate", "cli.prune-eval", "cli.write_manifest"):
        m[f"{name}.s"] = med(total(name))
    for name in ("model.slices_denoised", "training.steps", "training.samples",
                 "kse.channels_scored", "phantom.voxels_simulated", "cli.sha256_file.bytes"):
        m[name] = med(count(name))
    m.update({
        "training.step_ms.p50": percentile(steps_ms, 50),
        "training.step_ms.p99": percentile(steps_ms, 99),
        "masking.retrained_fraction": med(ratio("masking.adam_useful", "masking.adam_entries")),
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - plain,
        "trace.overhead_share": (traced_run_s - plain) / plain if plain else 0.0,
    })
    return m, len(steps_ms)


def measure(args, spec) -> int:
    src = ROOT / "src"
    if not (src / "tgdkit" / "__init__.py").is_file():
        print(f"error: no tgdkit sources under {src}", file=sys.stderr)
        return 2
    # the load comes from this one process with one BLAS thread: on a
    # shared 2-core machine a second thread waits on whatever else runs on
    # the other core, which made runs of the same code spread further
    threads = "1"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path[:0] = [str(src), str(BENCH)]
    t_import = time.perf_counter()
    import tgdkit  # noqa: F401  (numpy, scipy and every tgdkit module)
    import tracing
    import workloads
    import_s = time.perf_counter() - t_import

    workload = workloads.WORKLOADS[args.workload](args.seed, toy=args.size == "toy")
    work = OUT / f"work-{os.getpid()}"
    problems, attempted, failed = [], 0, 0
    try:
        setup_times, prints = [], []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            prints.append(workload.setup(work / f"setup{k}"))
            setup_times.append(time.perf_counter() - t0)
        attempted += 1
        if len(set(prints)) != 1:
            failed += 1
            problems.append("setup: repeated set-ups of one seed differ")

        tracer = tracing.Tracer() if args.trace else None
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i < MIN_REPS[args.trace] or time.perf_counter() < deadline:
            on = args.trace and i % 2 == 1
            rep = workloads.Rep()
            if on:
                tracer.install()
            try:
                workload.run(rep, tracer if on else None, work / f"rep{i}")
            except workloads.OpFailed:
                pass
            finally:
                if on:
                    tracer.uninstall()
            shutil.rmtree(work / f"rep{i}", ignore_errors=True)
            attempted += rep.attempted
            failed += rep.failed
            problems += [f"rep {i}: {p}" for p in rep.problems]
            if on:
                traced.append((*tracer.reset(), rep))
            else:
                plain.append(rep)
            if i == 0:
                # later repetitions can raise the peak by a heap block or
                # not, at random, so the peak is taken once the first is done
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = import_s + median(setup_times)
    e2e = end_to_end(plain, setup_s, peak_rss_mib)
    quality_values = quality(plain)
    print("env " + json.dumps(environment(threads)))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + "
          f"{len(traced)} traced repetitions, set-up {SETUP_REPEATS}x")
    if args.trace:
        metrics, n_steps = per_layer(traced, [r.run_s for r in plain])
        metrics.update(quality_values)
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.dump(dump, [spans for spans, _, _ in traced])
        print(f"spans written to {dump.relative_to(ROOT)}; step percentiles over "
              f"{n_steps} steps; not traced: {', '.join(tracer.missing) or 'none'}")
        declared = spec["per_layer"]
    else:
        metrics = e2e
        declared = spec["end_to_end"]
    for name, value in {**e2e, **quality_values}.items():
        print(f"  {name:<24} {value!r:>24}  (untraced)")
    print(f"  {'op_fail_ratio':<24} {failed / attempted!r:>24}  ({failed}/{attempted})")

    out = {}
    for m in declared:
        value = metrics.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} is {value!r}")
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print(f"  {m['name']:<32} {value!r:>24} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}, allow_nan=False))
    return 0


def smoke(spec) -> int:
    """Every workload at toy size, both modes: the run exits 0, its last line
    is strict JSON with exactly the declared metrics, and all checks pass."""
    ok = True
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "toy"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            errors = []
            try:
                res = json.loads(proc.stdout.splitlines()[-1],
                                 parse_constant=lambda c: 1 / 0)
                want = {m["name"]: m["unit"] for m in spec[kind]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    errors.append(f"metrics differ from {kind}: {sorted(set(got) ^ set(want))}")
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    errors.append(f"keys {sorted(res)}")
                if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                    errors.append(f"correct={res['correct']} failed={res['failed']}")
            except (IndexError, ValueError, KeyError, TypeError, ZeroDivisionError) as e:
                errors.append(f"unreadable result: {e!r}")
            if proc.returncode != 0:
                errors.append(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
            ok &= not errors
            print(f"smoke {w['name']} trace={trace}: {'; '.join(errors) or 'ok'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy: tiny inputs, for the smoke test")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at toy size and validate the output")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        p.error("--workload is required")
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
