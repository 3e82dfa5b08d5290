"""Every output byte that ``tools/parity.py`` hashes, pinned in
``tests/parity.json``: the four training protocols, a full-slice train step,
the conv ops and a forward and backward at an odd shape, and every file the
README's CLI flow writes; and every conv that ``tools/bands.py`` sweeps,
whose row bands must give the bytes of one band. Each BLAS thread count
gets its own process, because OpenBLAS reads the count at import. The pin
holds for the numpy, BLAS build and Python it was made under; on another,
the tests skip."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tgdkit

ROOT = Path(__file__).resolve().parent.parent
PIN = json.loads((ROOT / "tests" / "parity.json").read_text())
SCRIPT = "import json, sys, parity\njson.dump(parity.pin(), sys.stdout)\n"
THREADS = pytest.mark.parametrize("threads", ["1", None], ids=["1-thread", "default-threads"])


def run_pinned(argv: list[str], threads: str | None) -> dict:
    """The JSON object that ``python argv`` prints with OpenBLAS at
    ``threads`` threads (None: its default); skips the test when the run's
    fingerprint is not the pin's."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    if threads:
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    src = str(Path(tgdkit.__file__).resolve().parents[1])
    path = [src, str(ROOT / "tools"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    run = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    if doc["fingerprint"] != PIN["fingerprint"]:
        pytest.skip(f"pinned under {PIN['fingerprint']}, running under {doc['fingerprint']}")
    return doc


@THREADS
def test_outputs_match_the_pin(threads):
    doc = run_pinned(["-c", SCRIPT], threads)
    want, got = PIN["hashes"], doc["hashes"]
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not differ, f"{len(differ)} of {len(want)} pinned outputs differ: {differ}"


@THREADS
def test_banded_convs_match_one_band_bitwise(threads):
    doc = run_pinned([str(ROOT / "tools" / "bands.py")], threads)
    assert doc["banded"] > 0
    assert not doc["differ"], f"{len(doc['differ'])} of {doc['banded']} banded convs differ"
