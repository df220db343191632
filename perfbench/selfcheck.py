"""Quick self-check of the benchmark at tiny durations.

  python3 perfbench/selfcheck.py

Run from the root of a checkout. Checks that BENCHMARK.json is well formed,
that every workload, traced and untraced, prints a result line whose
metrics are exactly the ones BENCHMARK.json names, each with its unit, and
that the benchmark refuses to run without the source tree. About a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS), names
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    seen = set(names)
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for m in spec[kind]:
            assert set(m) == keys, m
            assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
            assert m["name"] not in seen, f"{m['name']} named twice"
            seen.add(m["name"])
            if kind == "end_to_end":
                assert 0.0 < m["bound"] <= 0.25, m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(command, cwd, workload, trace):
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected: list[dict], label: str):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: {result}\n{proc.stderr}"
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    assert set(metrics) == set(want), \
        f"{label}: missing {sorted(set(want) - set(metrics))}," \
        f" unexpected {sorted(set(metrics) - set(want))}"
    for name, unit in want.items():
        got = metrics[name]
        assert set(got) == {"value", "unit"}, f"{label}: {name} {got}"
        assert got["unit"] == unit, f"{label}: {name} in {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {name}"


def check_refuses_without_source(spec: dict, root: Path):
    bare = root / ".perfbench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["command"], bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the source tree"
    assert '"metrics"' not in proc.stdout, "printed a result without source"


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_refuses_without_source(spec, root)
    for w in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            label = f"{w['name']} --trace {trace}"
            check_result(run(spec["command"], root, w["name"], trace),
                         expected, label)
            print(f"ok  {label}", flush=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
