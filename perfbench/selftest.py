#!/usr/bin/env python3
"""Self-test of the ambb benchmark: one short pass per workload.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at its default seed:
  1. --trace 0 prints exactly the end_to_end metrics and --trace 1
     exactly the per_layer metrics, each with the unit BENCHMARK.json
     names, and both passes are correct;
  2. a copy of pins.txt with this workload's honest_bits off by one makes
     every run fail: correct is false, failed == attempted, and the exit
     code is non-zero.
Then, on the first workload, a tampered ext-coding pin fails the --trace 1
pass, whose ext.* phases come from pinned ext-coding runs.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: build() and paths)

SECONDS = "0.1"  # one warm-up run plus one timed run per pass


def result_of(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    pins_path = os.path.join(run.HERE, "pins.txt")
    with open(pins_path) as f:
        pin_lines = [l.split() for l in f if l.strip() and not l.startswith("#")]
    default_seed = {p[0]: p[1] for p in pin_lines}

    exe = run.build()
    if exe is None:
        return 1
    failures = []

    def tamper(name):
        """A copy of pins.txt with name's honest_bits off by one."""
        path = os.path.join(os.path.dirname(exe), "tampered_pins.txt")
        with open(path, "w") as f:
            for p in pin_lines:
                if p[0] == name:
                    p = p[:2] + [str(int(p[2]) + 1)] + p[3:]
                f.write(" ".join(p) + "\n")
        return path

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        seed = default_seed[w]
        base = [exe, "--workload", w, "--seed", seed, "--seconds", SECONDS]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            rc, res = result_of(base + ["--trace", str(trace), "--pins", pins_path])
            got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
            check(rc == 0 and res is not None and res["correct"] and res["failed"] == 0,
                  f"{w} --trace {trace}: exit 0, correct, no failed runs")
            check(got == want, f"{w} --trace {trace}: prints every {key} metric "
                               f"with its unit"
                  + ("" if got == want else f" (missing {sorted(set(want) - set(got))},"
                                            f" extra {sorted(set(got) - set(want))},"
                                            f" unit mismatches "
                                            f"{sorted(k for k in want if k in got and got[k] != want[k])})"))

        rc, res = result_of(base + ["--trace", "0", "--pins", tamper(w)])
        check(rc != 0 and res is not None and not res["correct"]
              and res["failed"] == res["attempted"] > 0,
              f"{w}: a tampered pin fails every run (failed_frac 1) and exits non-zero")

    w = bench["workloads"][0]["name"]
    rc, res = result_of([exe, "--workload", w, "--seed", default_seed[w],
                         "--seconds", SECONDS, "--trace", "1",
                         "--pins", tamper("ext-coding")])
    check(rc != 0 and res is not None and not res["correct"] and res["failed"] > 0,
          f"{w} --trace 1: a tampered ext-coding pin fails the pass and exits non-zero")

    print("selftest: " + ("OK" if not failures else f"{len(failures)} check(s) failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
