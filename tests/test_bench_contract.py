"""The names and output that perfbench reads from the package.

A benchmark child imports iqsl2, runs the ROADMAP commands through
``iqsl2.cli.main`` and prints one JSON object as its last line; the runner
parses that line. Its tests take a few names of the package by value. A
change that renames one of them, or prints after the result, breaks the
benchmark, so the contract is checked here with the package's own tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from iqsl2 import _kernel, cli, idp, pbw, qcomb, tensor, verify

ROOT = Path(__file__).resolve().parent.parent


def test_warmup_child_prints_the_roadmap_digests_last():
    env = {**os.environ, "IQSL2_MAX_N": "24", "PYTHONHASHSEED": "0",
           "PYTHONPATH": "src"}
    out = subprocess.run(
        [sys.executable, "perfbench/child.py", str(ROOT), "warmup"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert {"backend", "setup_s"} <= result.keys()
    expected = json.loads((ROOT / "perfbench/expected.json").read_text())
    assert result["roadmap"] == expected["roadmap"]


def test_names_the_benchmark_takes_by_value():
    assert callable(qcomb.qint.cache_info)  # the child reads its hit ratio
    # every name that perfbench's tests take by value
    for fn in (idp.qint, idp.qfact, idp.qbinom, verify.qint, verify.qbinom,
               pbw.qint, pbw.qfact, tensor._mono_mul, idp.delta,
               verify.delta, cli.run_suite, _kernel.kmul):
        assert callable(fn)
    # the memos the tracer swaps for counting dicts
    assert isinstance(pbw._MONO_CACHE, dict)
    assert isinstance(idp._CLOSED_CACHE, dict)
