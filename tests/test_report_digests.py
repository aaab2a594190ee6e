"""Frozen sha256 digests of the report bytes of a fixed set of CLI runs.

The runs cover the fixture (solve, learn, verify and reach), solve, learn
and verify on one native and one scaled random (3, 2, 16) instance, verify
on one native random (3, 2, 64) instance, whose learner spans several
blocks of stages, solve and reach on one scaled random (8, 4, 256)
instance, whose reports are mostly long per-stage stacks, and one
campaign. They go through termlq.cli.main in one child process with the
environment of PINNED: BLAS and OpenMP at one thread, and OpenBLAS on its
Nehalem kernels, the oldest set that numpy's x86-64-v2 baseline runs on.
Both the thread count and the kernel set OpenBLAS picks for the CPU change
the rounding, and so the report bytes. A change that must keep reports
byte-identical leaves DIGESTS as it is; a deliberate change to report bytes
re-freezes the digests it moves.

Run as a script under PINNED, ``python tests/test_report_digests.py DIR``
writes the random instances to DIR and prints {run: [exit code, stdout
sha256]} as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "fixtures" / "example_instance.json"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "OPENBLAS_CORETYPE": "Nehalem"}
RANDOM_DIMS = (3, 2, 16)
LONG_DIMS = (3, 2, 64)
WIDE_DIMS = (8, 4, 256)
RANDOM_SEED = 0

RUNS = {
    "fixture-solve": ["solve", "--instance", "{fixture}"],
    "fixture-learn": ["learn", "--instance", "{fixture}", "--seed", "7", "--samples", "30"],
    "fixture-verify": ["verify", "--instance", "{fixture}", "--seed", "7"],
    "fixture-reach": ["reach", "--instance", "{fixture}"],
    "native-solve": ["solve", "--instance", "{native}"],
    "native-learn": ["learn", "--instance", "{native}", "--seed", "7"],
    "native-verify": ["verify", "--instance", "{native}", "--seed", "7"],
    "scaled-solve": ["solve", "--instance", "{scaled}"],
    "scaled-learn": ["learn", "--instance", "{scaled}", "--seed", "7"],
    "scaled-verify": ["verify", "--instance", "{scaled}", "--seed", "7"],
    "long-verify": ["verify", "--instance", "{long}", "--seed", "7"],
    "wide-solve": ["solve", "--instance", "{wide}"],
    "wide-reach": ["reach", "--instance", "{wide}"],
    "campaign": ["campaign", "--seed", "3", "--trials", "20"],
}

DIGESTS = {
    "fixture-solve": "8dbc6362ef4b3ec39c2260ec30ce25d02e98a0871bbcdc248f7c3716f0f16ac3",
    "fixture-learn": "d74abc20228fac10836854d1647ecd7b6e1520cbf3483da6f9ed8977181b116b",
    "fixture-verify": "481c3957a118fdc9078334d84ea2ad2c865673b84197c2e3570649939db7a229",
    "fixture-reach": "2b862577ef50c2c025ac13c92d24330544ec22e76ed3cf25274e445411477596",
    "native-solve": "52c76be4ba9ae2b7acf36fe253c0366da707b56e10c9ef47a45d636d9cd73829",
    "native-learn": "71721de2b7432f6b18eb87f09529f820c5599a44789b1a28895e6936ba82bfe7",
    "native-verify": "dc83750c7128e3d16506b0bde774cb16a17f810518e33cee02ce25571327480d",
    "scaled-solve": "c9c8b09acdb33349ee6c23edb8fc5fef6a6f618410f48f81aa3601db67b10924",
    "scaled-learn": "4faf1096b100829a48938e97430460f9f914306be8ee667509167ad42aea52e0",
    "scaled-verify": "b85dce91e175e1a6e2c03402ab92ad19fab2fcef3f7fb0f18f1191a2c7683a8e",
    "long-verify": "283ce9b8c6758a8bd790feb4aa5b3a9c61110badffd6488af6cf3bf4855c62d9",
    "wide-solve": "92b32e7298477e69e06d635775da6e3d2d1583c277434f1ba1cb4060b45332c4",
    "wide-reach": "2730ca0d6f2a65d973fd583e166ddaf88a90ddc1a3b4245eedb029cf19c0a6d4",
    "campaign": "bb5cab2f2818b30f28cd4b94b7fca440dc892bfa94b2a30f032e673fe3654418",
}


def write_random_instances(directory: Path) -> dict[str, Path]:
    """One draw of standard-normal A, B, x0, xi with Q = R = H = I per
    dimension set: at RANDOM_DIMS written with A as drawn ("native") and with
    A scaled by 1/(2 sqrt(n)) ("scaled"), at LONG_DIMS with A as drawn
    ("long"), at WIDE_DIMS with A scaled ("wide"). json writes floats by
    repr, so the files parse back to these exact arrays."""
    import numpy as np

    def draws(dims):
        n, m, N = dims
        rng = np.random.default_rng(RANDOM_SEED)
        A = rng.standard_normal((N + 1, n, n))
        B = rng.standard_normal((N + 1, n, m))
        return A, B, rng.standard_normal(n), rng.standard_normal(n)

    def scaled(draw):
        A, B, x0, xi = draw
        return A / (2.0 * np.sqrt(A.shape[1])), B, x0, xi

    runs = (("native", draws(RANDOM_DIMS)),
            ("scaled", scaled(draws(RANDOM_DIMS))),
            ("long", draws(LONG_DIMS)),
            ("wide", scaled(draws(WIDE_DIMS))))
    paths = {}
    for name, (A_k, B_k, x0_k, xi_k) in runs:
        stages, n, m = B_k.shape
        doc = {"n": n, "m": m, "N": stages - 1, "A": A_k.tolist(), "B": B_k.tolist(),
               "Q": np.eye(n).tolist(), "R": np.eye(m).tolist(), "H": np.eye(n).tolist(),
               "x0": x0_k.tolist(), "xi": xi_k.tolist()}
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def report_digests(directory: Path) -> dict[str, list]:
    from termlq.cli import main

    paths = {"fixture": FIXTURE, **write_random_instances(directory)}
    result = {}
    for name, argv in RUNS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.format(**paths) for arg in argv])
        result[name] = [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]
    return result


def test_report_bytes_match_frozen_digests(tmp_path):
    from test_cli import checkout_env

    env = checkout_env()
    env.update(PINNED)
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert {name: code for name, (code, _) in result.items()} == dict.fromkeys(RUNS, 0)
    assert {name: digest for name, (_, digest) in result.items()} == DIGESTS


if __name__ == "__main__":
    if any(os.environ.get(var) != value for var, value in PINNED.items()):
        sys.exit("set " + " ".join(f"{var}={value}" for var, value in PINNED.items()))
    print(json.dumps(report_digests(Path(sys.argv[1]))))
