"""Print one JSON line per bench job: its workload, name and seed, the
sha1 of its stdout and of its stderr, and its exit code.

    python tools/outputs.py [SEED ...]

The jobs are those of bench/jobs.py, every workload, at each seed given
(default 0).  Each job runs `python -m quasicartan.cli COMMAND INPUT` as
a child process in a temporary directory that holds its input, so no path
of this machine enters the output; the package is read from src/ beside
this script's parent.  To see whether a change moves any output, run it
on two checkouts and compare:

    python tools/outputs.py 0 1 2 > after.jsonl
    (cd PARENT && python tools/outputs.py 0 1 2) | diff - after.jsonl
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import jobs  # noqa: E402  (bench/jobs.py, read from the path set above)


def sha1(data):
    return hashlib.sha1(data).hexdigest()


def main(argv):
    seeds = [int(seed) for seed in argv[1:]] or [0]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    with tempfile.TemporaryDirectory() as scratch:
        for seed in seeds:
            for workload, make_jobs in jobs.WORKLOADS.items():
                for job in make_jobs(seed):
                    name = job.name.replace("/", "_") + ".txt"
                    (pathlib.Path(scratch) / name).write_text(
                        job.text, encoding="utf-8")
                    child = subprocess.run(
                        [sys.executable, "-m", "quasicartan.cli",
                         job.command, name],
                        cwd=scratch, env=env, capture_output=True)
                    print(json.dumps({
                        "workload": workload, "job": job.name, "seed": seed,
                        "stdout": sha1(child.stdout),
                        "stderr": sha1(child.stderr),
                        "code": child.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
