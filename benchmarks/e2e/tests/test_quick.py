"""``run.py --quick``: the printed names are BENCHMARK.json's names."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args):
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--quick", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    return proc.stdout.strip().splitlines()


def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_quick_prints_every_end_to_end_metric_of_every_workload():
    c = contract()
    t0 = time.monotonic()
    lines = run()
    assert time.monotonic() - t0 <= 25
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    workloads = [w["name"] for w in c["workloads"]]
    expected = {f"{w}/{m['name']}": m["unit"]
                for w in workloads for m in c["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())
    printed = [l.split(" = ")[0] for l in lines if " = " in l]
    assert printed == list(expected)
    for name in workloads + [m["name"] for m in c["end_to_end"] + c["per_layer"]]:
        assert NAME.fullmatch(name), name
    assert "setup_s" in {m["name"] for m in c["end_to_end"]}


def test_quick_trace_prints_every_per_layer_metric():
    c = contract()
    lines = run("--workload", "pb_insitu", "--trace", "1")
    last = json.loads(lines[-1])
    assert last["correct"] is True
    assert list(last["metrics"]) == [m["name"] for m in c["per_layer"]]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in c["per_layer"]}
    # the layers this workload exercises are non-zero, its bypass ones zero
    value = {k: v["value"] for k, v in last["metrics"].items()}
    assert value["catalyst.contour_s"] > 0 and value["sem.cg_calls"] > 0
    assert value["serve.publish_s"] == 0 and value["adios.put_wait_s"] == 0
    assert (E2E / "out" / "pb_insitu.trace.json").exists()
