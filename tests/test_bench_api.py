"""The benchmark's hold on the package: every workload BENCHMARK.json declares
runs at toy size in-process with no failed operation, and the tracer finds
every function it wraps but the two it is known to miss. The benchmark's
files are loaded by path, as ``bench/run.py`` runs them."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# phantom.background_voxels finds no background in the toy probe study of
# seed 0; the benchmark's smoke run uses seed 1
BACKGROUND_EMPTY = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="toy cli-study-eval seed 0: gen-data fails on 'background region is empty'",
)
# the Adam shims wrap functions that the flat MaskedAdam step replaced
MISSING_SHIMS = ["masking.masked_update", "masking.masked_bn_update"]


def bench_module(name: str):
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run_toy(name: str, seed: int, work: Path, tracer=None):
    """One set-up and one repetition of a workload, as ``bench/run.py``
    runs them; returns the repetition's record."""
    workloads = bench_module("workloads")
    workload = workloads.WORKLOADS[name](seed, toy=True)
    workload.setup(work / "setup")
    rep = workloads.Rep()
    try:
        workload.run(rep, tracer, work / "rep")
    except workloads.OpFailed:
        pass
    return rep


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_toy_run_fails_no_operation(name, seed, tmp_path, request):
    if (name, seed) == ("cli-study-eval", 0):
        request.applymarker(BACKGROUND_EMPTY)
    rep = run_toy(name, seed, tmp_path)
    assert rep.attempted > 0 and rep.failed == 0, rep.problems


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracer_wraps_every_shim_but_the_adam_ones(name, tmp_path):
    tracer = bench_module("tracing").Tracer()
    tracer.install()
    try:
        assert tracer.missing == MISSING_SHIMS
        rep = run_toy(name, 1, tmp_path, tracer)
    finally:
        tracer.uninstall()
    spans, _ = tracer.reset()
    assert rep.failed == 0, rep.problems
    assert spans
