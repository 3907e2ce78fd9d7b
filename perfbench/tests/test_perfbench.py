"""Tests of the benchmark's own code: statistics, self-time arithmetic,
tracer installation, the reference ticks, the output gate and the set
comparison of steady.py.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import gc
import json
import signal
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402

THRESHOLD = gc.get_threshold()


def test_quartiles_follow_statistics_quantiles():
    assert run.quartiles([1, 2, 3, 4, 5]) == (1.5, 3.0, 4.5)
    assert run.median([4, 1, 3, 2]) == 2.5
    assert run.spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)
    assert run.spread([10.0, 10.0, 10.0]) == 0.0


def test_spread_is_scale_free():
    values = [9.1, 9.7, 10.0, 10.2, 10.9, 11.5]
    assert run.spread(values) == pytest.approx(run.spread([v * 7 for v in values]))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def test_self_times_on_a_nested_call_tree():
    clock = FakeClock()
    tr = tracer.Tracer("synthetic", clock)

    def kmul():
        clock.tick(2)

    def helper():  # a plain coeff function: runs inside the open gcd span
        clock.tick(5)

    def gcd(depth):
        clock.tick(1)
        helper_w()
        kmul_w()
        if depth:
            gcd_w(depth - 1)  # recursion collapses into one span
        clock.tick(1)

    def check():
        clock.tick(1)

    def suite():
        clock.tick(3)
        gcd_w(1)
        check_w()  # same span name: no new span
        clock.tick(4)

    kmul_w = tr.wrap(kmul, "kernel.kmul", "kernel")
    helper_w = tr.wrap(helper, "coeff", "coeff")
    gcd_w = tr.wrap(gcd, "coeff.gcd", "coeff")
    check_w = tr.wrap(check, "verify", "verify")
    suite_w = tr.wrap(suite, "verify", "verify")
    suite_w()

    self_s = tr.self_times()
    # gcd runs twice: 2 * (1 + 5 + 1) of its own, kmul 2 * 2
    assert self_s == {"verify": 8.0, "kernel.kmul": 4.0, "coeff.gcd": 14.0,
                      "coeff": 0.0}
    assert sum(self_s.values()) == clock.t
    calls = dict(zip(tr.names, tr.calls))
    assert calls == {"kernel.kmul": 2, "coeff": 2, "coeff.gcd": 2, "verify": 2}
    # one verify span, one gcd span, and a kmul span for each kmul call
    assert len(tr.span_name) == 4


def test_aggregate_self_times_subtracts_direct_children_only():
    names = ["a", "b"]
    # a[0,10] has children b[2,5] and a[6,8]; b[2,5] has child a[3,4]
    spans = [(0, -1, 0, 10), (1, 0, 2, 5), (0, 0, 6, 8), (0, 1, 3, 4)]
    out = tracer.aggregate_self_times(
        names, [s[0] for s in spans], [s[1] for s in spans],
        [s[2] for s in spans], [s[3] for s in spans])
    assert out == {"a": 5.0 + 2.0 + 1.0, "b": 2.0}


def test_counting_dict_counts_get():
    d = tracer.CountingDict({1: "x"})
    assert d.get(1) == "x" and d.get(2) is None
    assert (d.hits, d.misses) == (1, 1)


def test_sampler_ticks_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        end = time.perf_counter() + 3 * reference.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.spent >= sum(sampler.samples) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_tick_runs_with_the_collector_off_and_restores_it():
    seen = []

    def callback(phase, info):
        seen.append(phase)

    gc.callbacks.append(callback)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            gc.set_threshold(1)  # a collection on nearly every allocation
            seen.clear()
            assert reference.tick() > 0
            assert seen == []
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(callback)
        gc.set_threshold(*THRESHOLD)
        gc.enable()


def test_rescaling_divides_by_the_tick_ratio():
    child = {"wall_s": 2.0, "tick_s": 2 * reference.NOMINAL_S}
    assert run.rescaled_wall(child) == pytest.approx(1.0)


REPORT = {"suite": "s", "parameters": {"bound": 2},
          "checks": [{"id": "c", "params": [1], "pass": True},
                     {"id": "c", "params": [2], "pass": True}],
          "wall_time_s": 1.25}


def test_report_digest_ignores_wall_time_only():
    units, failed, digest = workloads.report_digest(json.dumps(REPORT))
    assert (units, failed) == (2, 0)
    slower = dict(REPORT, wall_time_s=9.5)
    assert workloads.report_digest(json.dumps(slower))[2] == digest
    tampered = json.loads(json.dumps(REPORT))
    tampered["checks"][1]["pass"] = False
    assert workloads.report_digest(json.dumps(tampered))[1:] != (0, digest)


def test_tampered_output_fails_every_unit_of_the_gate():
    units, _, digest = workloads.table_digest("h\nrow1\nrow2\n")
    pinned = {"units": units, "sha256": digest}
    good = {"rc": 0, "units": units, "sha256": digest}
    assert units == 2
    assert run.gate(good, pinned) == 0
    tampered = workloads.table_digest("h\nrow1\nrow3\n")
    assert run.gate(dict(good, sha256=tampered[2]), pinned) == 2
    assert run.gate(dict(good, units=3), pinned) == 2
    assert run.gate(dict(good, rc=1), pinned) == 2
    assert run.gate(None, pinned) == 2


def test_roadmap_digests_match_the_pins():
    expected = json.loads((HERE / "expected.json").read_text())
    warm = run.run_child(run.child_env(), "warmup")
    assert warm is not None
    assert warm["roadmap"] == expected["roadmap"]


INSTALL_PROBE = """
import json, sys, time
import iqsl2, iqsl2.cli
import tracer
t = tracer.Tracer("probe")
found = tracer.install(t)
import iqsl2.idp as idp, iqsl2.verify as verify, iqsl2.pbw as pbw
import iqsl2.tensor as tensor, iqsl2.cli as cli
by_value = [idp.qint, idp.qfact, idp.qbinom, verify.qint, verify.qbinom,
            pbw.qint, pbw.qfact, tensor._mono_mul, idp.delta, verify.delta,
            cli.run_suite, iqsl2._kernel.kmul]
start = time.perf_counter()
report = iqsl2.run_suite("comult-odd", 3)
wall = time.perf_counter() - start
self_s = t.self_times()
calls = dict(zip(t.names, t.calls))
traced = [getattr(getattr(f, "__code__", None), "co_name", "") == "traced"
          for f in by_value]
print(json.dumps({"wrapped": traced,
                  "found": sorted(found), "passed": report.passed,
                  "share": sum(self_s.values()) / wall, "calls": calls}))
"""


def test_install_reaches_names_imported_by_value():
    env = run.child_env()
    env["PYTHONPATH"] += ":" + str(HERE)
    proc = subprocess.run([sys.executable, "-c", INSTALL_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(out["wrapped"])
    assert out["passed"]
    assert set(tracer.SUB_SPANS.values()) <= set(out["found"])
    assert out["calls"]["pbw"] > 0 and out["calls"]["tensor"] > 0
    assert out["calls"]["coeff.gcd"] > 0
    assert 0.9 < out["share"] <= 1.0


def _save_set(directory, runs):
    """Write one set of run records: [(workload, seed, correct, metrics)]."""
    directory.mkdir()
    for name, seed, correct, metrics in runs:
        record = {"env": {"workload": name, "seed": seed, "python": "3.x",
                          "backend": "python"},
                  "result": {"correct": correct, "attempted": 1, "failed": 0,
                             "metrics": {k: {"value": v, "unit": "s"}
                                         for k, v in metrics.items()}}}
        (directory / f"{name}-{seed}.json").write_text(json.dumps(record))


FULL = {name: 1.0 for name in steady.BOUNDS}


def test_compare_passes_two_agreeing_sets(tmp_path):
    _save_set(tmp_path / "a", [("w", 1, True, FULL), ("w", 2, True, FULL)])
    _save_set(tmp_path / "b", [("w", 3, True, FULL)])
    assert steady.compare(Namespace(sets=[tmp_path / "a", tmp_path / "b"])) == 0


@pytest.mark.parametrize("second", [
    [("w", 3, False, FULL)],                               # not correct
    [("w", 3, True, {"setup_s": 1.0})],                    # metrics missing
    [("w", 3, True, FULL), ("v", 4, True, FULL)],          # extra workload
    [("v", 3, True, FULL)],                                # nothing compared
    [("w", 3, True, dict(FULL, wall_s=2.0))],              # worse than bound
])
def test_compare_fails_when_it_cannot_vouch(tmp_path, second):
    _save_set(tmp_path / "a", [("w", 1, True, FULL)])
    _save_set(tmp_path / "b", second)
    assert steady.compare(Namespace(sets=[tmp_path / "a", tmp_path / "b"])) == 1
