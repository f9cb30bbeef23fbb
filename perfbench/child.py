"""One repetition in a fresh interpreter: import the CLI, run the op list.

Usage: ``python child.py SRC_DIR SPEC_JSON``.  Only ``sys`` and ``time``
are imported before ``dcbruhat.cli``, so the measured import is what a
CLI start pays.  The spec names the ops (argv plus output file), whether
to trace, and where to write the result and the span dump.
"""
import sys
import time

src_dir, spec_path = sys.argv[1], sys.argv[2]
sys.path.insert(0, src_dir)

t0 = time.perf_counter()
import dcbruhat.cli  # noqa: E402
import_s = time.perf_counter() - t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    recorder = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        recorder = tracing.Recorder()
        patches = tracing.install(recorder)
        leq_before = tracing.leq_cache_info()
    op_results = []
    t_start = time.perf_counter()
    for k, op in enumerate(spec["ops"]):
        argv = op["argv"] + ["--output", op["output"]]
        if recorder is not None:
            recorder.op = k
        t = time.perf_counter()
        error = None
        try:
            code = dcbruhat.cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        op_results.append({"id": op["id"], "exit": code, "error": error,
                           "seconds": time.perf_counter() - t})
    wall_s = time.perf_counter() - t_start
    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": op_results,
        "dcbruhat_file": dcbruhat.__file__,
        "networkx_version": getattr(sys.modules.get("networkx"), "__version__", None),
    }
    if recorder is not None:
        leq_after = tracing.leq_cache_info()
        tracing.remove(patches)
        result["unrestored"] = tracing.unrestored(patches)
        result["layers"] = recorder.layer_metrics()
        result["layers"].update(tracing.leq_cache_metrics(leq_before, leq_after))
        result["spans"] = recorder.dump(spec["spans_out"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


main()
