"""Run `classify` with the cap lifted on the large rungs, one child process
per rung, and print the largest rung of each family that finishes.

    python tools/ladder.py [--budget SECONDS] [--memory MIB]

The families are M_n(GF(3)), the twist pair of full_relation(n), and the
group rings GF(q)[C_m] for q = 2, 3 and 5.  Each rung runs
`python -m quasicartan.cli classify` on an input whose cap is 10^1000,
under an address-space limit of MIB (RLIMIT_AS) and a wall-clock budget of
SECONDS, after which it is killed.  One line per rung gives its seconds,
its peak RSS (ru_maxrss from os.wait4) and its exit code, or "timeout".
The rungs of a family run in increasing |A|, and once one does not exit 0
in time the larger ones are skipped.  The last lines give, per family, the
largest rung that exited 0 within the budget.  Run from anywhere; the
package is read from src/ beside this script's parent.  The exit code is 0
whatever the rungs do: the ladder reports, it does not gate.
"""

import argparse
import os
import pathlib
import resource
import signal
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CAP = "1" + "0" * 1000

# family -> [(rung, ring, groupoid)], in increasing |A|
FAMILIES = {
    "M_n(GF(3))": [(f"M_{n}(GF(3))", "gf(3,1)", f"full_relation({n})")
                   for n in (9, 11, 13, 16, 20, 24)],
    "GF(2)[C_m]": [(f"GF(2)[C{m}]", "gf(2,1)", f"group(cyclic({m}))")
                   for m in (16, 30, 60, 120, 240)],
    "GF(3)[C_m]": [(f"GF(3)[C{m}]", "gf(3,1)", f"group(cyclic({m}))")
                   for m in (9, 11, 16, 32, 64, 128)],
    "GF(5)[C_m]": [(f"GF(5)[C{m}]", "gf(5,1)", f"group(cyclic({m}))")
                   for m in (12, 24, 48, 96)],
}


def run_rung(path, budget, memory):
    """(seconds, peak RSS in MiB, exit code or None on timeout) of one
    classify child under the limits."""
    limit = memory * 2 ** 20
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "quasicartan.cli", "classify", str(path)],
        env=env, preexec_fn=limit_address_space,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timed_out = False
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - start > budget:
            child.send_signal(signal.SIGKILL)
            _, status, usage = os.wait4(child.pid, 0)
            timed_out = True
            break
        time.sleep(0.01)
    seconds = time.perf_counter() - start
    # the child is reaped here, so Popen must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    return (seconds, usage.ru_maxrss / 1024,
            None if timed_out else child.returncode)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget", type=float, default=10.0,
                        help="wall-clock seconds per rung (default 10)")
    parser.add_argument("--memory", type=int, default=1024,
                        help="address-space limit per rung in MiB "
                             "(default 1024)")
    args = parser.parse_args(argv)
    print(f"classify, cap lifted, budget {args.budget:g} s and "
          f"{args.memory} MiB per rung")
    largest = {}
    with tempfile.TemporaryDirectory() as scratch:
        for family, rungs in FAMILIES.items():
            stopped = False
            for rung, ring, groupoid in rungs:
                if stopped:
                    print(f"  {rung}: skipped")
                    continue
                path = pathlib.Path(scratch) / "input.txt"
                path.write_text(f"[ring]\n{ring}\n[groupoid]\n{groupoid}\n"
                                f"[cocycle]\ntrivial\n[options]\ncap = {CAP}\n")
                seconds, rss, code = run_rung(path, args.budget, args.memory)
                shown = "timeout" if code is None else f"exit {code}"
                print(f"  {rung}: {seconds:.2f} s, {rss:.1f} MiB, {shown}")
                if code == 0:
                    largest[family] = rung
                else:
                    stopped = True
    print("largest rung within the budget:")
    for family in FAMILIES:
        print(f"  {family}: {largest.get(family, 'none')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
