"""Write every job's stdout into a directory, or compare two such directories.

    python3 perfbench/snapshot.py write DIR [--seed N]
    python3 perfbench/snapshot.py compare DIR_A DIR_B

``write`` runs the jobs of every workload once, untraced, and stores the
bytes each job printed as ``DIR/<workload>/<job>.out``.  Write one directory at
the parent commit and one at the change, then ``compare`` them: it exits
0 only when both hold the same files with the same bytes, which shows that
a speed-up left the JSON output unchanged.  Nothing written here is meant
to be committed.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import sys

import runner
import workloads


def write(directory: str, seed: int) -> int:
    runner.warm_up()
    failed = 0
    for name in workloads.WORKLOADS:
        os.makedirs(os.path.join(directory, name), exist_ok=True)
        for job in workloads.build(name, seed):
            result = runner.run_job(job)
            with open(os.path.join(directory, name, job.name + ".out"), "wb") as fh:
                fh.write(result.stdout)
            if result.failed:
                failed += not result.known_fault
                print(f"{'known fault' if result.known_fault else 'FAIL'} {name}/{job.name}: "
                      f"{result.problem}", file=sys.stderr)
    return 1 if failed else 0


def compare(a: str, b: str) -> int:
    differ = []

    def walk(cmp: filecmp.dircmp, prefix: str) -> None:
        _, mismatch, errors = filecmp.cmpfiles(cmp.left, cmp.right, cmp.common_files, shallow=False)
        differ.extend(os.path.join(prefix, f) for f in mismatch + errors + cmp.left_only + cmp.right_only)
        for sub, sub_cmp in cmp.subdirs.items():
            walk(sub_cmp, os.path.join(prefix, sub))

    walk(filecmp.dircmp(a, b), "")
    for name in sorted(differ):
        print(f"differs: {name}")
    print(f"{'identical' if not differ else f'{len(differ)} files differ'}: {a} vs {b}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write")
    p_write.add_argument("directory")
    p_write.add_argument("--seed", type=int, default=1)
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("a")
    p_compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.directory, args.seed)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
