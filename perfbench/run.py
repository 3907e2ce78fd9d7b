"""Cold-process benchmark of iqsl2: verify, table and the Laurent kernel.

Usage:
  python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                           [--trace 0|1] [--out PATH]

Every workload call runs in a fresh interpreter (perfbench/child.py), so it
pays the cold memo caches that every ``iqsl2`` invocation pays. One run is:

* a warm-up child, whose timings are discarded: it imports the package
  (compiling ``__pycache__`` on a fresh checkout) and checks the pinned
  ROADMAP digests of ``table --max 14`` and ``expand comult --n 5``;
* rounds of children in an order drawn from ``--seed``, repeated until
  ``--seconds`` have passed (at least two rounds untraced, one traced).
  Untraced, a round is one workload call plus three import-only children;
  traced, it is one untraced and one traced workload call.

Timings are rescaled by reference ticks timed in the same child (see
reference.py). Every workload call is gated: its check or row count and the
sha256 of its output must equal the values pinned in perfbench/expected.json,
or all of its units count as failed. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the metrics are the
end-to-end ones untraced and the per-layer ones traced (see README.md). The
tracer self-check shows there as ``trace.selfcheck_pass_ratio``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170
SETUP_PROBES_PER_ROUND = 3
MIN_ROUNDS = {0: 2, 1: 1}
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workloads  # noqa: E402

# Pinned environment of every child. IQSL2_MAX_N is the default ceiling,
# pinned because table-emit sits exactly at it.
CHILD_ENV = {"IQSL2_MAX_N": "24", "PYTHONHASHSEED": "0"}


median = statistics.median


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def child_env():
    """The caller's environment without IQSL2_* and PYTHON* settings, then
    the pinned values; IQSL2_KERNEL is passed on as recorded."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("IQSL2_", "PYTHON"))}
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    if "IQSL2_KERNEL" in os.environ:
        env["IQSL2_KERNEL"] = os.environ["IQSL2_KERNEL"]
    return env


def _commit():
    """The checked-out commit read from .git, or None outside a git checkout."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "iqsl2").iterdir()):
        if path.suffix in (".py", ".pyx"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, env):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "iqsl2_env": {k: v for k, v in os.environ.items()
                      if k.startswith("IQSL2_")},
        "child_env": {k: env[k] for k in sorted(env)
                      if k.startswith("IQSL2_") or k == "PYTHONHASHSEED"},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_child(env, mode, *args):
    """Run one child to completion; its JSON result, or None if it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), mode, *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"child {mode} {' '.join(args)} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child {mode} {' '.join(args)} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(result, pinned):
    """Units failed by one workload call: all of them unless it exited 0
    with the pinned unit count and output digest."""
    ok = (result is not None and result["rc"] == 0
          and result["units"] == pinned["units"]
          and result["sha256"] == pinned["sha256"])
    return 0 if ok else pinned["units"]


def run_rounds(names, trace, seconds, rng, env, pinned):
    """Children in seed-drawn order until ``seconds`` pass; samples by workload."""
    tasks = []
    for name in names:
        tasks += [(name, "run"), (name, "trace")] if trace else [(name, "run")]
    if not trace:
        tasks += [(None, "setup")] * SETUP_PROBES_PER_ROUND
    samples = {name: {"run": [], "trace": [], "failed": 0, "attempted": 0}
               for name in names}
    setup = []
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS[trace] or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        for name, mode in rng.sample(tasks, len(tasks)):
            args = () if name is None else (name, f"{name}-{rounds}-{mode}")
            res = run_child(env, mode, *args)
            if res is not None:
                setup.append(res["setup_s"] * reference.NOMINAL_S
                             / res["setup_tick_s"])
            if name is None:
                continue
            s = samples[name]
            s["attempted"] += pinned[name]["units"]
            failed = gate(res, pinned[name])
            s["failed"] += failed
            if not failed:
                s[mode].append(res)
        rounds += 1
        last = time.perf_counter() - t
    return samples, setup


def rescaled_wall(r):
    """A child's wall time at the speed where a reference tick takes
    reference.NOMINAL_S (see reference.py)."""
    return r["wall_s"] * reference.NOMINAL_S / r["tick_s"]


def end_to_end(s, setup, pinned_units):
    runs = s["run"]
    walls = [rescaled_wall(r) for r in runs]
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(walls), "s"),
        "units_per_s": (median([pinned_units / w for w in walls]), "1/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in runs]), "MB"),
        "pass_ratio": (1 - s["failed"] / s["attempted"], "ratio"),
    }


LAYER_UNITS = (("_s", "s"), ("_ratio", "ratio"))


def per_layer(s):
    traced = s["trace"]
    keys = traced[0]["layers"]
    out = {}
    for key in keys:
        unit = next((u for suffix, u in LAYER_UNITS if key.endswith(suffix)),
                    "count")
        out[key] = (median([r["layers"][key] for r in traced]), unit)
    out["trace.overhead_ratio"] = (
        median([rescaled_wall(r) for r in traced])
        / median([rescaled_wall(r) for r in s["run"]]), "ratio")
    return out


def self_check(name, s, expected):
    """(passed, description) for each tracer prediction on this workload.

    The sum check compares the layer self times, which add up to the
    root ``cli.main`` span by construction, with the wall time measured
    around the call: it catches time spent outside every span, not an error
    in the self-time arithmetic (the tests cover that).
    """
    checks = []
    layers = s["trace"][0]["layers"]
    ops = {"==": lambda a, b: a == b, ">": lambda a, b: a > b}
    for p in expected["predictions"]:
        if name in p["workloads"]:
            value = layers.get(p["metric"])
            ok = value is not None and ops[p["op"]](value, p["value"])
            checks.append((ok, f"{p['metric']} {p['op']} {p['value']} "
                               f"on {name} (got {value})"))
    tol = expected["self_sum_tolerance"]
    for r in s["trace"]:
        share = r["self_sum_s"] / r["wall_s"]
        checks.append((abs(share - 1) <= tol,
                       f"layer self times sum to {share:.4f} of the traced "
                       f"wall time on {name} (tolerance {tol})"))
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the children; the inputs are fixed grids")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write samples, environment and result here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "iqsl2" / "__init__.py").is_file():
        print(f"error: no iqsl2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    pinned = expected["workloads"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": environment(args, env)}

    warm = run_child(env, "warmup")
    roadmap_ok = warm is not None and warm["roadmap"] == expected["roadmap"]
    if warm is not None:
        record["env"]["backend"] = warm["backend"]
        bad = sorted(k for k, v in expected["roadmap"].items()
                     if warm["roadmap"].get(k) != v)
        print(f"roadmap digests: {len(expected['roadmap']) - len(bad)}/"
              f"{len(expected['roadmap'])} match {' '.join(bad)}".rstrip())
    print("env " + json.dumps(record["env"], sort_keys=True))

    samples, setup = run_rounds(names, args.trace, args.seconds, rng, env, pinned)
    metrics, checks = {}, []
    attempted = sum(s["attempted"] for s in samples.values())
    failed = sum(s["failed"] for s in samples.values())
    for name in sorted(names):
        s = samples[name]
        if args.trace:
            if not (s["trace"] and s["run"]):
                continue
            m = per_layer(s)
            own = self_check(name, s, expected)
            m["trace.selfcheck_pass_ratio"] = (
                sum(ok for ok, _ in own) / len(own), "ratio")
            checks += own
        else:
            if not (s["run"] and setup):
                continue
            m = end_to_end(s, setup, pinned[name]["units"])
            for key, values in (
                    ("wall_s measured", [r["wall_s"] for r in s["run"]]),
                    ("wall_s rescaled", [rescaled_wall(r) for r in s["run"]]),
                    ("setup_s rescaled", setup)):
                if len(values) > 1:
                    q1, q2, q3 = quartiles(values)
                    print(f"{name} {key}: median {q2:.4f} s, "
                          f"quartiles {q1:.4f}..{q3:.4f}, n={len(values)}")
        for key, (value, unit) in m.items():
            print(f"{name} {key} = {value:.6g} {unit}")
            full = key if len(names) == 1 else f"{name}.{key}"
            metrics[full] = {"value": value, "unit": unit}
    for ok, text in checks:
        print(f"selfcheck {'PASS' if ok else 'FAIL'} {text}")

    correct = roadmap_ok and failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        record.update(samples=samples, setup_s=setup, result=result,
                      selfcheck=[{"pass": ok, "check": t} for ok, t in checks])
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
