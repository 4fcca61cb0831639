"""A pipeline's artifacts do not depend on the BLAS thread count.

numpy's OpenBLAS `eigh` at n = 256 gives other bytes on two threads than
on one, so linalg runs its decompositions on one thread: `schedule`'s and
`convert`'s of the whitened Grams. `eval` decomposes nothing; it checks the
coordinates A that `convert` wrote from its `eigh`. Here the whole
pipeline runs at grouped width 256 in two processes, under
OPENBLAS_NUM_THREADS=1 and =2, and must write the same bytes. Other BLAS
builds, and other CPUs, are out of scope.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kvlatent import linalg
from test_cli import tree_bytes

SRC = Path(__file__).resolve().parents[1] / "src"

# One layer of D = 256 with H = G = 4 heads of 64: n = 256.
PIPELINE = """
import sys
from pathlib import Path
from kvlatent.cli import main

root = Path(sys.argv[1])
model, cov, profile = root / "m/model.json", root / "cov", root / "p.json"
for argv in (
    ["gen", "--out", root / "m", "--seed", 5, "--layers", 1, "--d-model", 256,
     "--n-heads", 4, "--head-dim", 64, "--n-groups", 4, "--seq-len", 64, "--batches", 2],
    ["cov", "--manifest", model, "--out", cov],
    ["schedule", "--manifest", model, "--cov-dir", cov, "--parity", "--out", profile],
    ["convert", "--manifest", model, "--cov-dir", cov, "--profile", profile,
     "--out", root / "c"],
    ["eval", "--source", model, "--converted", root / "c/converted.json",
     "--out", root / "e"],
):
    if main([str(a) for a in argv]) != 0:
        sys.exit(f"{argv[0]} failed")
"""


@pytest.mark.skipif(linalg._openblas_threads() is None,
                    reason="numpy's bundled OpenBLAS is not present")
def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    trees = []
    for threads in (1, 2):
        root = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "OMP_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                           os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", PIPELINE, str(root)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        trees.append(tree_bytes(root))
    # The Grams schedule decomposes, the bundle's copy that eval reads, and
    # the coordinates A that convert takes from its n x n eigh.
    assert "p_grams/layer000_grams.ctf" in trees[0]
    assert "c/grams/layer000_grams.ctf" in trees[0]
    assert "c/factors/layer000_a_k.ctf" in trees[0]
    assert "c/factors/layer000_a_v.ctf" in trees[0]
    assert "e/eval_report.json" in trees[0]
    assert trees[0] == trees[1]
