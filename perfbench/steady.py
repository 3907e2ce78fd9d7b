"""Repeat the benchmark over seeds and judge its spread, or compare two sets.

Usage:
  python3 perfbench/steady.py collect --save DIR --workload W [W ...]
                                      --seeds S [S ...]
  python3 perfbench/steady.py compare DIR_A DIR_B

``collect`` runs perfbench/run.py untraced once per workload and seed with
the ``run_seconds`` of BENCHMARK.json, saves each run's record in DIR and
prints, for every end-to-end metric, the distance between the first and third
quartile of the runs as a share of their median, next to the metric's bound.
It exits 1 if a run's output was not correct.
``compare`` prints each end-to-end metric's median in both sets and how much
worse the second is, as a share of the first. It exits 0 only if every
workload of either set is in both, every record is correct and has every
end-to-end metric, and no metric is worse than its bound; it refuses two sets
whose kernel backend or interpreter differ.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import median, spread  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def load(directory):
    """Records of one set by workload: {workload: [record, ...]}."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        out.setdefault(record["env"]["workload"], []).append(record)
    return out


def collect(args):
    save = Path(args.save)
    save.mkdir(parents=True, exist_ok=True)
    all_correct = True
    for name in args.workload:
        values = {}
        for seed in args.seeds:
            path = save / f"{name}-seed{seed}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                   "--trace", "0", "--out", str(path)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                                  text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            all_correct = all_correct and result["correct"]
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        for key, vals in values.items():
            if key in BOUNDS and len(vals) > 1:
                bound = BOUNDS[key]["bound"]
                s = spread(vals)
                verdict = ("steady" if s < bound / 3 else
                           "within bound" if s <= bound else "TOO WIDE")
                print(f"{name} {key}: median {median(vals):.6g}, spread "
                      f"{s:.4f} of median, bound {bound} -> {verdict}")
    return 0 if all_correct else 1


def compare(args):
    a, b = load(args.sets[0]), load(args.sets[1])
    envs = {(r["env"].get("backend"), r["env"]["python"])
            for runs in (*a.values(), *b.values()) for r in runs}
    if len(envs) != 1:
        print(f"refusing to compare results from different backends or "
              f"interpreters: {sorted(envs, key=str)}", file=sys.stderr)
        return 2
    problems = []
    for name in sorted(set(a) ^ set(b)):
        problems.append(f"{name}: in one set only")
    for label, runs in (("first", a), ("second", b)):
        for name in sorted(runs):
            for r in runs[name]:
                seed = r["env"]["seed"]
                if not r["result"]["correct"]:
                    problems.append(f"{name} seed {seed} of the {label} set: "
                                    f"not correct")
                missing = sorted(set(BOUNDS) - set(r["result"]["metrics"]))
                if missing:
                    problems.append(f"{name} seed {seed} of the {label} set: "
                                    f"no {', '.join(missing)}")
    compared = 0
    for name in sorted(set(a) & set(b)):
        for key, meta in BOUNDS.items():
            va = [r["result"]["metrics"][key]["value"] for r in a[name]
                  if key in r["result"]["metrics"]]
            vb = [r["result"]["metrics"][key]["value"] for r in b[name]
                  if key in r["result"]["metrics"]]
            if not (va and vb):
                continue
            compared += 1
            ma, mb = median(va), median(vb)
            worse = (mb - ma) / ma if meta["better"] == "lower" else (ma - mb) / ma
            if worse > meta["bound"]:
                problems.append(f"{name} {key}: worse by more than its bound")
            print(f"{name} {key}: {ma:.6g} -> {mb:.6g} {meta['unit']}, "
                  f"worse by {worse:+.4f} (bound {meta['bound']})")
    if not compared:
        problems.append("nothing compared")
    for text in problems:
        print(f"FAIL {text}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--save", required=True)
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p = sub.add_parser("compare")
    p.add_argument("sets", nargs=2)
    args = parser.parse_args(argv)
    if args.cmd == "collect":
        return collect(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
