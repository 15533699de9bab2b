"""Run one workload's CLI commands in this process, closed loop.

Started by ``run.py`` in a fresh interpreter, with the generated inputs as
the working directory.  Each pass calls ``lexlearn.cli.main`` once per
command of the workload, in order, and times each call; between calls it
reads the outputs back, checks their provenance sidecars and compares their
sha256 with the first pass and with earlier runs on the same inputs.
Passes repeat until ``--seconds`` have gone by.  With ``--trace 1`` one
untraced pass comes first, and the timed passes run with the tracer
installed.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Command, check_provenance  # noqa: E402


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked from the
    library itself (the loaded objects are listed in /proc/self/maps)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({
                line.split()[-1] for line in handle
                if "openblas" in line.lower() and ".so" in line
            })
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class Runner:
    def __init__(self, commands: list[Command], oracle: dict, reference: dict):
        from lexlearn.cli import main

        self.main = main
        self.commands = commands
        self.oracle = oracle
        self.reference = reference  # command -> {file: sha256}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, cmd: Command, tracer: Tracer | None = None) -> dict:
        """Run one command, check it, and return its record."""
        output = Path(cmd.output)
        prov = Path(cmd.output + ".prov")
        for path in (output, prov):
            path.unlink(missing_ok=True)
        captured = io.StringIO()
        self.attempted += 1
        error = None
        span = tracer.begin("cli.main") if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                code = self.main(list(cmd.argv))
        except Exception:  # a traceback out of main is a failed command
            code, error = None, traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end(span)
        record = {"seconds": seconds, "quality": None, "notes": {}}
        checked = None
        if error is None and code != 0:
            error = f"exit code {code}: {captured.getvalue()[-400:]}"
        if error is None:
            try:
                checked = cmd.check(output, self.oracle)
                check_provenance(output, cmd.prov_command)
                hashes = {p.name: sha256_file(p) for p in (output, prov)}
                want = self.reference.setdefault(cmd.name, hashes)
                if hashes != want:
                    error = f"output bytes differ from an earlier run: {hashes}"
            except Exception as exc:  # any unreadable output is a failure
                error = f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.finish_command(checked.words if checked else None)
        if error is None:
            record["quality"] = checked.quality
            record["notes"] = checked.notes
        else:
            self.failed += 1
            self.errors.append(f"{cmd.name}: {error}")
        record["ok"] = error is None
        return record

    def passes(self, seconds: float, tracer: Tracer | None = None) -> list[dict]:
        """Closed loop: whole passes until ``seconds`` have gone by."""
        records = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            index = len(records)
            record = {}
            for cmd in self.commands:
                if tracer:
                    tracer.command = f"{cmd.name}#{index}"
                record[cmd.name] = self.run(cmd, tracer)
                if tracer:
                    record[cmd.name]["layers"] = tracer.command_metrics(tracer.command)
            records.append(record)
        return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--oracle", required=True, type=Path)
    parser.add_argument("--record", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    import lexlearn

    src = args.src.resolve()
    if src not in Path(lexlearn.__file__).resolve().parents:
        print(f"worker: imported {lexlearn.__file__}, not the code under {src}",
              file=sys.stderr)
        return 2
    oracle = json.loads(args.oracle.read_text(encoding="utf-8"))
    reference = {}
    if args.record.exists():
        reference = json.loads(args.record.read_text(encoding="utf-8"))
    runner = Runner(WORKLOADS[args.workload], oracle, reference)
    result = {"env": environment()}
    if args.trace:
        result["untraced"] = runner.passes(0.0)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = runner.passes(args.seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        result["untraced"] = runner.passes(args.seconds)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if runner.failed == 0 and not args.record.exists():
        tmp = args.record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(runner.reference, sort_keys=True) + "\n")
        os.replace(tmp, args.record)
    args.result.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
