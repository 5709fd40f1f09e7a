"""Run one varlam command and fail if its peak RSS passes a bound.

    PYTHONPATH=src python tests/peak_rss.py BOUND_MB [--golden PATH] -- ARGS...

runs ``python -W error -m varlam.cli ARGS...`` (so a warning fails it too)
and prints the child's peak resident set size.  With ``--golden`` the
command's output is printed and must equal the file byte for byte; without
it the output is discarded.  The exit status is the command's own if it
failed, else 1 with a message if the peak is over BOUND_MB megabytes or the
output differs from the golden, else 0.
"""

import argparse
import pathlib
import resource
import subprocess
import sys


def main() -> int | str:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bound", type=float, help="the largest peak RSS allowed, in MB")
    parser.add_argument("--golden", type=pathlib.Path, help="a file the output must equal")
    parser.add_argument("args", nargs="+", help="the varlam command and its arguments")
    opts = parser.parse_args()
    run = subprocess.run([sys.executable, "-W", "error", "-m", "varlam.cli", *opts.args],
                         stdout=subprocess.PIPE if opts.golden else subprocess.DEVNULL)
    if opts.golden:
        sys.stdout.buffer.write(run.stdout)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB", flush=True)
    return (run.returncode or (peak > opts.bound and f"peak RSS over {opts.bound:g} MB")
            or (opts.golden and run.stdout != opts.golden.read_bytes()
                and f"report differs from {opts.golden}") or 0)


if __name__ == "__main__":
    sys.exit(main())
