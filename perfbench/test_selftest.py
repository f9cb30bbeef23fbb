"""Self-test of the benchmark harness, on small inputs (degree 6 or below).

Run from the repository root: ``python3 -m pytest -q perfbench``.
Scratch files go under ``.perfbench_out/selftest``.
"""
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_OPS = [
    {"id": "verify-4..6", "argv": ["verify", "--degrees", "4..6", "--format", "json"]},
    {"id": "cosets-5", "argv": ["cosets", "--degree", "5", "--ic", "{1,3}", "--jc", "{2}",
                                "--format", "table"]},
    {"id": "hasse-5", "argv": ["hasse", "--degree", "5", "--ic", "{1}", "--jc", "{2,3}",
                               "--format", "dot"]},
    {"id": "tight-4", "argv": ["tight", "--degree", "4", "--format", "json"]},
    {"id": "orbit-4", "argv": ["orbit", "--theta", "3/2,1,1,0", "--format", "dot"]},
]


@pytest.fixture
def scratch(request):
    path = os.path.join(ROOT, ".perfbench_out", "selftest", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_traced_and_untraced_runs_give_identical_outputs(scratch):
    plain = run.run_child(SRC, scratch, "plain", SMALL_OPS)
    plain_outputs = [_read(p) for p in plain["outputs"]]
    traced = run.run_child(SRC, scratch, "traced", SMALL_OPS, trace=True)
    assert [op["exit"] for op in traced["ops"]] == [op["exit"] for op in plain["ops"]]
    assert [_read(p) for p in traced["outputs"]] == plain_outputs
    assert traced["unrestored"] == []
    layers = traced["layers"]
    assert layers["cli.main.calls"] == len(SMALL_OPS)
    for name in ("spherical.verify_case", "bruhat.leq", "parabolic.decompose",
                 "poset.from_relation", "weights.dominance_leq", "poset.render"):
        assert layers[f"{name}.calls"] > 0, name
    assert layers["symgroup.all_permutations.elements"] > 0
    assert 0 < layers["bruhat.leq.cache_hit_ratio"] < 1
    assert layers["setup.import.dcbruhat_s"] >= layers["setup.import.networkx_s"] > 0
    assert traced["spans"] > 0


def test_tracing_puts_every_original_back(scratch):
    sys.path.insert(0, SRC)
    import dcbruhat.cli
    from dcbruhat import bruhat, parabolic, poset, spherical

    def snapshot():
        names = {(m.__name__, k): v for m in tracing._package_modules() for k, v in vars(m).items()}
        names.update({("FinitePoset", k): v for k, v in vars(poset.FinitePoset).items()})
        return names

    before = snapshot()
    leq, order_tables = bruhat.leq, bruhat.order_tables
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    assert spherical.leq is not leq and parabolic.order_tables is not order_tables
    code = dcbruhat.cli.main(["verify", "--degrees", "5", "--format", "json",
                              "--output", os.path.join(scratch, "verify-5.json")])
    tracing.remove(patches)
    assert code == 0
    assert rec.layer_metrics()["spherical.verify_case.calls"] > 0
    assert tracing.unrestored(patches) == []
    assert spherical.leq is bruhat.leq is leq
    assert parabolic.order_tables is bruhat.order_tables is order_tables
    after = snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_output_against_a_wrong_reference_counts_as_failed(scratch):
    ops = workloads.make_ops("catalogue", 0)[:2]
    result = run.run_child(SRC, scratch, "wrongref", ops)
    expected, refs = run.load_refs(ops)
    assert run.check_rep(ops, result, expected, refs) == []
    wrong = dict(refs)
    wrong[ops[0]["id"]] = refs[ops[1]["id"]]
    assert [op_id for op_id, _ in run.check_rep(ops, result, expected, wrong)] == [ops[0]["id"]]
    wrong_exit = dict(expected)
    wrong_exit[ops[1]["id"]] = 1
    assert [op_id for op_id, _ in run.check_rep(ops, result, wrong_exit, refs)] == [ops[1]["id"]]


def test_byte_and_json_comparison_rules():
    op = workloads.cosets_op("{1,3,5}", "{2,4}", "table")
    ref = workloads.load_ref(op)
    assert workloads.check_output(op, 0, 0, ref, ref) is None
    assert workloads.check_output(op, 0, 0, ref + b" ", ref) is not None
    ref = {"a": [1, {"b": 2}]}
    assert workloads.json_covers(ref, {"a": [1, {"b": 2, "new": 0}], "c": 1}) is None
    assert workloads.json_covers(ref, {"a": [1, {"b": 3}]}) == "$.a[1].b"
    assert workloads.json_covers({"a": True}, {"a": 1}) == "$.a"
    assert workloads.json_covers({"a": 1}, {}) == "$.a (missing)"


def test_self_time_subtracts_child_spans():
    rec = tracing.Recorder()
    outer, inner = rec.layer("outer", None), rec.layer("inner", None)
    a = rec.open(outer)
    b = rec.open(inner)
    rec.close(b)
    rec.close(a)
    rec.span_start[:] = [0.0, 1.0]
    rec.span_end[:] = [5.0, 3.0]
    assert rec.self_times() == [3.0, 2.0]
    assert rec.span_parent == [-1, 0]


def test_import_times_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | _io",
        "import time:      4878 |     114450 |         networkx",
        "import time:       516 |     156291 |   dcbruhat",
        "import time:      2222 |     160386 | dcbruhat.cli",
    ])
    assert tracing.import_times(text) == {"setup.import.networkx_s": 0.11445,
                                          "setup.import.dcbruhat_s": 0.160386}
