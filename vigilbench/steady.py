#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs two sets of runs of the same code, interleaved in one session: for
each seed and each workload, one run of set A and one of set B, the order
of the pair alternating from seed to seed, so both sets see the same host
drift. For every end-to-end metric of BENCHMARK.json it reports, per set,
the median, the quartiles (as statistics.quantiles(values, n=4) gives
them) and the spread: the distance between the quartiles as a share of
the median. It then compares the two medians in both directions.

A metric passes when its spread is below a third of its bound (setup_s
excepted, whose bound only limits how far its median may move) and the
two sets' medians differ by at most the bound, |B - A| / A <= bound. The
exit status is 0 only if every metric of every workload passes and every
run passed its correctness gate.

Run it from the repository root:

    python3 vigilbench/steady.py                      # every workload, seeds 1-10
    python3 vigilbench/steady.py --workloads spine-storm --seeds 5 --sets 1
    python3 vigilbench/steady.py --write vigilbench/STEADINESS.json

With --write, the session is appended to the file's list of sessions.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload} seed {seed} printed no result ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    facts = [json.loads(l[len("facts "):]) for l in lines if l.startswith("facts ")]
    result["steal_frac"] = facts[0]["steal_frac"] if facts else None
    if not result["correct"]:
        failed = [l for l in lines if l.startswith("check") and "FAILED" in l]
        print(f"{workload} seed {seed}: correctness gate failed: {failed}", flush=True)
    return result


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "bound": bound,
        "below_third_of_bound": (q3 - q1) / med < bound / 3,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", help="workloads to run (default: all)")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload and set, seeds first-seed..first-seed+N-1")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2, help="interleaved sets of runs")
    ap.add_argument("--write", help="append the session as JSON to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    sets = "AB"[:args.sets]
    results = {s: {w: [] for w in names} for s in sets}
    for i, seed in enumerate(seeds):
        for w in names:
            for s in (sets if i % 2 == 0 else sets[::-1]):
                results[s][w].append(run_once(spec, w, seed))

    session = {"run_seconds": spec["run_seconds"], "seeds": seeds, "sets": {}}
    ok = True
    for s in sets:
        session["sets"][s] = {}
        for w in names:
            rs = results[s][w]
            incorrect = [seed for seed, r in zip(seeds, rs) if not r["correct"]]
            ok = ok and not incorrect
            rows = {"incorrect_seeds": incorrect, "steal_frac": [r["steal_frac"] for r in rs]}
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in rs]
                r = rows[m["name"]] = summarize(values, m["bound"])
                steady = r["below_third_of_bound"] or m["name"] == "setup_s"
                ok = ok and steady
                print(f"set {s} {w:14s} {m['name']:18s} median {r['median']:12.5g} {m['unit']:5s} "
                      f"q1 {r['q1']:12.5g} q3 {r['q3']:12.5g} spread {r['spread']:7.2%} "
                      f"bound {m['bound']:.0%} {'ok' if steady else 'WIDE'} "
                      f"[{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
            session["sets"][s][w] = rows
    if len(sets) == 2:
        session["agreement"] = agreement(session["sets"]["A"], session["sets"]["B"], spec)
        ok = ok and all(a["within_bound"] for rows in session["agreement"].values() for a in rows.values())
    session["passed"] = ok
    if args.write:
        try:
            with open(args.write) as f:
                record = json.load(f)
        except FileNotFoundError:
            record = {}
        record.setdefault("sessions", []).append(session)
        with open(args.write, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def agreement(a, b, spec):
    """Compares each median of set B with set A's, in both directions: the
    two sets agree when |B - A| / A stays within the metric's bound. It also
    records how much worse B is than A, as a later change is judged."""
    out = {}
    for w, rows in b.items():
        out[w] = {}
        for m in spec["end_to_end"]:
            old, new = a[w][m["name"]]["median"], rows[m["name"]]["median"]
            diff = (new - old) / old
            worse = diff if m["better"] == "lower" else -diff
            within = abs(diff) <= m["bound"]
            out[w][m["name"]] = {"a": old, "b": new, "diff": diff, "b_worse_than_a": worse,
                                 "bound": m["bound"], "within_bound": within}
            print(f"{w:14s} {m['name']:18s} median A {old:12.5g}  B {new:12.5g}: "
                  f"{diff:+7.2%} (|diff| bound {m['bound']:.0%}) {'agree' if within else 'DISAGREE'}", flush=True)
    return out


if __name__ == "__main__":
    sys.exit(main())
