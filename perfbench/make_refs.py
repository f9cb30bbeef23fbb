"""Write the reference outputs in ``refs/`` from the current sources.

Usage, from the repository root: ``python3 perfbench/make_refs.py``.

Every op any seed can generate is run once in a child interpreter, the
same way the benchmark runs it.  The references define correct output,
so regenerate them only at a commit whose outputs have been accepted
(the commit that introduced the benchmark, or one that changes the
output on purpose).
"""
import gzip
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    ops = workloads.all_ops()
    out_dir = os.path.join(root, ".perfbench_out", "refs")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result = run.run_child(src, out_dir, "refs", ops)
    manifest = {}
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    for op, got, path in zip(ops, result["ops"], result["outputs"]):
        if got["error"]:
            print(f"error: {op['id']} raised:\n{got['error']}", file=sys.stderr)
            return 1
        with open(path, "rb") as fh:
            data = fh.read()
        with open(workloads.ref_path(op), "wb") as fh:
            fh.write(gzip.compress(data, mtime=0))
        manifest[op["id"]] = {"argv": op["argv"], "exit": got["exit"]}
    with open(workloads.MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(manifest)} references to {os.path.relpath(workloads.REFS_DIR, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
