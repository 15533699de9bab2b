"""lexlearn benchmark: run one workload of real CLI commands and print its
metrics.

    python3 perfbench/run.py --workload eval-bow --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed`` under ``perfbench/.work``,
times a fresh interpreter's ``import lexlearn`` and ``build_parser()``
(``setup_s``), then runs ``worker.py`` in one fresh process that calls
``lexlearn.cli.main`` for the workload's commands, closed loop, for
``--seconds``.  Prints a human-readable report, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # the whole run, generation included
SETUP_CODE = (
    "import lexlearn\n"
    "from lexlearn.cli import build_parser\n"
    "build_parser()\n"
    "print(lexlearn.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing code, hung worker)."""


def tree_digest(root: Path, pattern: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def measure_setup(env: dict) -> float:
    """Wall time of a fresh interpreter that imports lexlearn and builds
    the CLI parser."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"import lexlearn failed: {proc.stderr.strip()[-400:]}")
    imported = Path(proc.stdout.strip()).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchError(f"imported {imported}, not the code under {SRC}")
    return seconds


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def command_medians(passes: list[dict]) -> dict[str, float]:
    """Each command's median wall time over the passes."""
    return {name: median([p[name]["seconds"] for p in passes]) for name in passes[0]}


def end_to_end(passes: list[dict], setup: list[float], worker: dict) -> dict:
    """The end-to-end metrics from the untraced passes of one run.

    A failed command keeps its time and scores 0 in ``quality``; failures
    are never dropped.
    """
    seconds = list(command_medians(passes).values())
    quality = [
        statistics.fmean(r["quality"] if r["ok"] else 0.0 for r in record.values())
        for record in passes
    ]
    attempted = worker["attempted"]
    return {
        "setup_s": median(setup),
        "pass_s": sum(seconds),
        "cmd_geomean_s": math.exp(statistics.fmean(math.log(s) for s in seconds)),
        "peak_rss_mb": worker["peak_rss_mb"],
        "ok_ratio": (attempted - worker["failed"]) / attempted,
        "quality": median(quality),
    }


def per_layer(worker: dict, workload: str) -> dict:
    """Median over the traced passes of each command's layer figures, plus
    the untraced time of the same command and the tracing overhead.  A
    command that this workload does not run reads 0."""
    from workloads import COMMAND_LAYERS, TRACED_COMMAND_LAYERS, WORKLOADS

    untraced = command_medians(worker["untraced"])
    out = {}
    for name, commands in WORKLOADS.items():
        for cmd in commands:
            for metric in cmd.layers + COMMAND_LAYERS:
                out[f"{cmd.name}.{metric}"] = 0.0
            if name != workload:
                continue
            traced = [p[cmd.name] for p in worker["traced"]]
            for metric in cmd.layers + TRACED_COMMAND_LAYERS:
                out[f"{cmd.name}.{metric}"] = median(
                    [t["layers"].get(metric, 0.0) for t in traced]
                )
            out[f"{cmd.name}.untraced_s"] = untraced[cmd.name]
            out[f"{cmd.name}.trace_overhead_s"] = (
                median([t["seconds"] for t in traced]) - untraced[cmd.name]
            )
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    import gen
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise BenchError(
            f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
        )
    if not (SRC / "lexlearn" / "__init__.py").is_file():
        raise BenchError(f"no lexlearn sources under {SRC}")
    began = time.perf_counter()
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    records = HERE / ".work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    try:
        oracle, sizes = gen.generate(workload, seed, work / "inputs")
        for path in (work / "inputs").iterdir():
            # write the inputs out now, not while the commands are timed
            with open(path, "rb+") as handle:
                os.fsync(handle.fileno())
        (work / "oracle.json").write_text(json.dumps(oracle) + "\n")
        inputs_digest = tree_digest(work / "inputs", "*")
        src_digest = tree_digest(SRC, "*.py")
        env = program_env()
        setup = [measure_setup(env) for _ in range(SETUP_SAMPLES)]
        record = records / f"{workload}-{inputs_digest[:16]}-{src_digest[:16]}.json"
        result_path = work / "result.json"
        budget = DEADLINE_S - (time.perf_counter() - began)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--oracle", str(work / "oracle.json"), "--record", str(record),
                 "--result", str(result_path), "--src", str(SRC),
                 "--seconds", str(seconds), "--trace", str(trace)],
                env=env, cwd=work / "inputs", capture_output=True, text=True,
                timeout=max(budget, 1.0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {budget:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-800:]}")
        worker = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    medians = command_medians(worker["untraced"])
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {
            "git_sha": git_sha(ROOT),
            "src_sha256": src_digest,
            "nproc": os.cpu_count(),
            **worker["env"],
        },
        "inputs": {**sizes, "sha256": inputs_digest},
        "setup_samples_s": setup,
        "passes": len(worker.get("traced") or worker["untraced"]),
        "errors": worker["errors"],
        "commands": {
            cmd.name: {
                "untraced_s": [p[cmd.name]["seconds"] for p in worker["untraced"]],
                **({"traced_s": [p[cmd.name]["seconds"] for p in worker["traced"]]}
                   if trace else {}),
                "quality": worker["untraced"][0][cmd.name]["quality"],
                "notes": worker["untraced"][0][cmd.name]["notes"],
            }
            for cmd in WORKLOADS[workload]
        },
        "named": {
            **{cmd.metric: medians[cmd.name] for cmd in WORKLOADS[workload]},
            "fail_ratio": worker["failed"] / worker["attempted"],
        },
    }
    metrics = per_layer(worker, workload) if trace else end_to_end(
        worker["untraced"], setup, worker
    )
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    return report, result


def format_result(result: dict, trace: int) -> str:
    from workloads import END_TO_END, layer_unit

    units = {name: spec[0] for name, spec in END_TO_END.items()}
    metrics = {
        name: {"value": value,
               "unit": layer_unit(name)[0] if trace else units[name]}
        for name, value in result["metrics"].items()
    }
    return json.dumps({**result, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("report " + json.dumps(report, sort_keys=True))
    for name, value in result["metrics"].items():
        if value:
            print(f"  {name} = {value:.6g}")
    print(format_result(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
