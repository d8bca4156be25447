#!/usr/bin/env python3
"""Summarise repeated benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmark/stats.py BENCHMARK.json RESULT_DIR

RESULT_DIR holds one stdout capture per run, named set<k>-seed<s>.txt
(benchmark/repeat.sh writes them). For every metric the table shows
the median, the quartiles as statistics.quantiles(values, n=4) gives
them, the interquartile range and the min-max range as shares of the
median, and the metric's bound. A metric is flagged when its
interquartile share exceeds the bound ("NOISY"), or a third of it
("tight"). With two sets, set 2's median is also compared with set 1's
("WORSE" when it is worse by more than the bound), and every seed run
in both sets must give bitwise the same quality_x. Exits 1 when any
flag other than "tight" was raised.
"""
import json
import pathlib
import re
import statistics
import sys


def load_runs(result_dir):
    """{set: {seed: result}} from the last line of each capture."""
    runs = {}
    for path in sorted(pathlib.Path(result_dir).glob("set*-seed*.txt")):
        m = re.fullmatch(r"set(\d+)-seed(\d+)\.txt", path.name)
        lines = path.read_text().strip().splitlines()
        if not m or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "metrics": {}}
        runs.setdefault(int(m[1]), {})[int(m[2])] = result
    return runs


def main(spec_path, result_dir):
    spec = json.loads(pathlib.Path(spec_path).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = load_runs(result_dir)
    if not runs:
        sys.exit(f"no runs in {result_dir}")
    bad = False
    for set_id, by_seed in sorted(runs.items()):
        failed = [s for s, r in by_seed.items() if not r.get("correct")]
        if failed:
            print(f"set {set_id}: runs with failed checks, seeds {failed}")
            bad = True
    names = []
    for by_seed in runs.values():
        for r in by_seed.values():
            names += [n for n in r["metrics"] if n not in names]

    header = (f"{'metric':28} {'set':>3} {'n':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr%':>7} {'range%':>7} {'bound%':>7}  flag")
    print(header)
    medians = {}
    for name in names:
        spec_m = bounds.get(name)
        for set_id, by_seed in sorted(runs.items()):
            vals = [r["metrics"][name]["value"] for r in by_seed.values()
                    if name in r["metrics"]]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            iqr = (q3 - q1) / med if med else 0.0
            spread = (max(vals) - min(vals)) / med if med else 0.0
            medians[(name, set_id)] = med
            flag = ""
            bound = spec_m["bound"] if spec_m else None
            if bound is not None and name != "setup_s":
                if iqr > bound:
                    flag, bad = "NOISY", True
                elif iqr > bound / 3:
                    flag = "tight"
            if bound is not None and set_id > 1:
                first = medians.get((name, 1))
                worse = ((med - first) / first if spec_m["better"] == "lower"
                         else (first - med) / first) if first else 0.0
                if worse > bound:
                    flag, bad = f"WORSE {worse:+.1%}", True
                else:
                    flag = (flag + f" vs set 1 {worse:+.1%}").strip()
            print(f"{name:28} {set_id:>3} {len(vals):>3} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {100 * iqr:>7.2f} "
                  f"{100 * spread:>7.2f} "
                  f"{'' if bound is None else f'{100 * bound:.0f}':>7}  {flag}")

    if len(runs) > 1:
        sets = sorted(runs)
        common = set.intersection(*(set(runs[s]) for s in sets))
        differ = [s for s in sorted(common)
                  if len({runs[k][s]["metrics"].get("quality_x", {})
                          .get("value") for k in sets}) > 1]
        print(f"quality_x bitwise equal across sets on {len(common)} seeds"
              if not differ else f"quality_x DIFFERS on seeds {differ}")
        bad = bad or bool(differ)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
