"""One short request of every workload, and the command's output contract."""

import json
import subprocess
import sys

import pytest

import run
import workloads

CHEAP_JOB = {   # a quick request of each workload, checked like any other
    "certify-cross": lambda w: w.plan[0][0],
    "graph-snd": lambda w: ("snd", 21, 7),
    "count-snd115": lambda w: w.plan[0][0],
    "pipeline-small": lambda w: workloads.Instance("cross", (3,), 5, True),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_request_passes_its_oracle(name, tmp_path):
    w = workloads.WORKLOADS[name](1)
    w.prepare(tmp_path)
    rec = run.Recorder()
    rec.run_job(w, CHEAP_JOB[name](w))
    assert rec.errors == []
    assert rec.failed == 0 and rec.attempted >= 1
    assert len(rec.durations) == rec.attempted


def test_paper_case_passes_its_oracle(tmp_path):
    w = workloads.PipelineSmall(1)
    w.prepare(tmp_path)
    rec = run.Recorder()
    rec.run_job(w, workloads.Instance("paper", ("ex5.8",)))
    assert (rec.attempted, rec.failed) == (1, 0)


def test_wrong_answer_is_counted(tmp_path):
    w = workloads.CountSnd115(1)
    w.prepare(tmp_path)
    w.facets = 39                 # the reference now disagrees
    rec = run.Recorder()
    rec.run_job(w, w.plan[0][0])
    assert rec.failed == 1 and "WrongAnswer" in rec.errors[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload",
         "count-snd115", "--seed", "1", "--seconds", "0", "--trace",
         str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *_, report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    env = json.loads(report)["environment"]
    assert env["seed"] == 1 and len(env["inputs_sha256"]) == 64
