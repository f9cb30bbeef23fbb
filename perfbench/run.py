"""Benchmark of the dcbruhat command line, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload catalogue|cosets|orbits \\
        --seed N --seconds S --trace 0|1

The benchmark drives ``dcbruhat.cli.main(argv)`` in a closed loop with
one client: each repetition is a fresh child interpreter (``child.py``)
that imports the CLI and runs the workload's op list, and the next child
starts only after the previous one has exited.  Fresh interpreters keep
the package's caches (``leq``, descent profiles, order tables) cold, as
every CLI call finds them.  Repetitions continue while one more fits in
``--seconds`` (at least one runs).  Every output goes to a file under
``.perfbench_out/<workload>/`` and is checked against ``refs/``.

End-to-end metrics (``--trace 0``), medians over the repetitions:

* ``wall_s``: the op list in the child, import excluded;
* ``setup_s``: ``import dcbruhat.cli`` in the child, also sampled by a
  few import-only children before the loop;
* ``peak_rss_mb``: the child's maximum resident set size at exit.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of ``tracing.py`` (medians over the traced children),
the ``-X importtime`` split of the import, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those declared in ``BENCHMARK.json``.  The full run record
(machine, versions, revision, every sample) is written next to the
outputs as ``record.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: Children run with a fixed hash seed so that set order repeats.
HASH_SEED = "0"
#: Import-only children started during set-up, after one warm-up child
#: that writes the bytecode caches.
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    """A child interpreter crashed, hung or imported the wrong package."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(src: str, out_dir: str, tag: str, ops: list[dict], trace: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and return its result.

    Output files of earlier repetitions are removed first, so a stale
    file cannot pass for this repetition's output.
    """
    paths = [os.path.join(out_dir, f"op{k}.out") for k in range(len(ops))]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    spec_path = os.path.join(out_dir, f"{tag}.spec.json")
    result_path = os.path.join(out_dir, f"{tag}.result.json")
    spec = {
        "ops": [{"id": op["id"], "argv": op["argv"], "output": p} for op, p in zip(ops, paths)],
        "trace": trace,
        "spans_out": os.path.join(out_dir, f"{tag}.spans.tsv"),
        "result": result_path,
    }
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, "-s"] + (["-X", "importtime"] if trace else []) + [CHILD, src, spec_path]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {tag} ran longer than {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise ChildFailed(f"child {tag} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not os.path.abspath(result["dcbruhat_file"]).startswith(src + os.sep):
        raise ChildFailed(f"child imported dcbruhat from {result['dcbruhat_file']}, not {src}")
    if trace:
        result["layers"].update(tracing.import_times(proc.stderr))
    result["outputs"] = paths
    return result


def check_rep(ops: list[dict], result: dict, expected_exit: dict[str, int],
              refs: dict[str, bytes]) -> list[tuple[str, str]]:
    """The failed ops of one repetition, as (op id, reason) pairs."""
    failures = []
    for op, got, path in zip(ops, result["ops"], result["outputs"]):
        if got["error"]:
            failures.append((op["id"], got["error"].strip().splitlines()[-1]))
            continue
        data = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        why = workloads.check_output(op, got["exit"], expected_exit[op["id"]], data, refs[op["id"]])
        if why:
            failures.append((op["id"], why))
    return failures


def machine_record(root: str, src: str) -> dict:
    def first_line(path: str, prefix: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "mem_total": first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "git_revision": git_revision(root),
        "source_sha256": digest.hexdigest(),
    }


def git_revision(root: str) -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics(root: str, trace: bool) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def load_refs(ops: list[dict]) -> tuple[dict[str, int], dict[str, bytes]]:
    manifest = workloads.load_manifest()
    expected = {op["id"]: manifest[op["id"]]["exit"] for op in ops}
    refs = {op["id"]: workloads.load_ref(op) for op in ops}
    return expected, refs


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its record; ``values`` holds the metrics."""
    src = os.path.join(root, "src")
    ops = workloads.make_ops(workload, seed)
    expected, refs = load_refs(ops)
    out_dir = os.path.join(root, ".perfbench_out", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    t_setup = time.perf_counter()
    run_child(src, out_dir, "warmup", [])
    import_children = [run_child(src, out_dir, "import", []) for _ in range(IMPORT_SAMPLES)]
    setup_phase_s = time.perf_counter() - t_setup

    plain, traced, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    rep = 0
    while True:
        rep_start = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            tag = f"rep{rep}-traced" if is_traced else f"rep{rep}"
            res = run_child(src, out_dir, tag, ops, is_traced)
            attempted += len(ops)
            failures += [(rep, is_traced, op_id, why)
                         for op_id, why in check_rep(ops, res, expected, refs)]
            if is_traced and res["unrestored"]:
                failures.append((rep, True, "tracing", f"not restored: {res['unrestored']}"))
            (traced if is_traced else plain).append(res)
        rep += 1
        # Stop when one more repetition as long as the last would overrun.
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break

    setup_children = import_children + plain
    wall = [r["wall_s"] for r in plain]
    setup = [r["import_s"] for r in setup_children]
    values = {
        "wall_s": median(wall),
        "setup_s": median(setup),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    if trace:
        for name in traced[0]["layers"]:
            values[name] = median([r["layers"][name] for r in traced])
        values["trace.overhead_ratio"] = median([r["wall_s"] for r in traced]) / values["wall_s"]

    op_seconds = {
        op["id"]: median([r["ops"][k]["seconds"] for r in plain]) for k, op in enumerate(ops)
    }
    failed = len({(rep_, t, op_id) for rep_, t, op_id, _ in failures})
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": [op["argv"] for op in ops],
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "samples": {"wall_s": len(wall), "setup_s": len(setup), "peak_rss_mb": len(plain)},
        "setup_phase_s": setup_phase_s,
        "python_hash_seed": HASH_SEED,
        "networkx_version": plain[0]["networkx_version"],
        "machine": machine_record(root, src),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "values": values,
        "op_seconds_median": op_seconds,
        "wall_s_samples": wall,
        "setup_s_samples": setup,
        "peak_rss_mb_samples": [r["peak_rss_mb"] for r in plain],
        "traced_wall_s_samples": [r["wall_s"] for r in traced],
        "spans_per_traced_rep": [r["spans"] for r in traced],
    }
    with open(os.path.join(out_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_summary(record: dict, out_path: str) -> None:
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} repetitions={record['repetitions']} "
          f"traced={record['traced_repetitions']}")
    machine = record["machine"]
    print(f"  machine: nproc={machine['nproc']} cpu={machine['cpu_model']} "
          f"mem={machine['mem_total']} python={machine['python']} "
          f"networkx={record['networkx_version']} revision={machine['git_revision']} "
          f"PYTHONHASHSEED={record['python_hash_seed']}")
    for argv in record["ops"]:
        print("  op: dcbruhat " + " ".join(argv))
    values = record["values"]
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")):
        print(f"  {name:<12} {values[name]:.4f} {unit} (median of {record['samples'][name]})")
    print(f"  error_rate   {record['error_rate']:.4f} ({record['failed']} failed of "
          f"{record['attempted']} ops)")
    for rep, traced, op_id, why in record["failures"][:20]:
        print(f"  FAILED rep {rep}{' traced' if traced else ''} {op_id}: {why}")
    if record["trace"]:
        total = statistics.median(record["traced_wall_s_samples"])
        print(f"  traced wall_s {total:.4f} s; self time by layer (share of it):")
        layers = sorted((v, k) for k, v in values.items() if k.endswith(".self_s"))
        for v, k in reversed(layers):
            if v > 0:
                print(f"    {k:<40} {v:9.4f} s  {v / total:6.1%}")
        print(f"  bruhat.leq.cache_hit_ratio {values['bruhat.leq.cache_hit_ratio']:.4f} "
              f"(base: {values['bruhat.leq.cache_lookups']:.0f} lookups)")
    print(f"  record: {out_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dcbruhat", "cli.py")):
        print(f"error: no dcbruhat sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    declared = declared_metrics(root, bool(args.trace))
    try:
        record = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = record["values"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print_summary(record, os.path.join(".perfbench_out", args.workload, "record.json"))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
