"""Benchmark for the ballot_lattice package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analysis --seed 0 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
reports per-layer calls and self times from a traced run, alternating
untraced and traced passes so that the tracing overhead is measured in the
same run; all spans are written to ``perfbench/out/``.  Human-readable lines
come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh-process probe pairs for ``setup_s`` and ``cold_start_ms``, run
#: before the first pass and after each pass, so they sample the whole run.
PROBES_PER_GAP = 3

#: Times ``import ballot_lattice`` plus the shared warm-up in a fresh process.
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import workloads\n"
    "workloads.warm_up()\n"
    "print(time.perf_counter() - start)\n"
)

#: The cheapest CLI call each workload's user makes, run as a fresh process.
COLD_START_COMMANDS = {
    "analysis": ["analyze", "--ballot", "x>y>z>a~b~c~d", "--format", "json"],
    "election": [
        "tabulate", "--input", "src/ballot_lattice/data/truncation_fixture.csv",
        "--format", "json",
    ],
}

#: The metric names and units: ``end_to_end`` for ``--trace 0``,
#: ``per_layer`` for ``--trace 1``.  Per-layer names are
#: ``<layer>.<function>.calls`` or ``.self_s`` (totals from the traced run)
#: or ``<layer>.<function>.calls_per_<base>`` (one step's calls over the
#: size of its input, on the workloads that define that base).
SPEC = ROOT / "BENCHMARK.json"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    paths = [str(SRC), str(BENCH)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


class Probes:
    """Fresh-process samples: import plus warm-up, and a whole CLI call."""

    def __init__(self, command: list[str]):
        self.command = command
        self.env = child_env()
        self.setup: list[float] = []
        self.cold: list[float] = []
        self.attempted = self.failed = 0

    def run(self, count: int) -> None:
        for _ in range(count):
            done = self._spawn(["-c", SETUP_PROBE])
            if done.returncode == 0:
                self.setup.append(float(done.stdout))
            start = perf_counter()
            cold = self._spawn(["-m", "ballot_lattice", *self.command])
            self.cold.append(perf_counter() - start)
            self.attempted += 2
            self.failed += (done.returncode != 0) + (cold.returncode != 0 or not _is_json(cold.stdout))

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def timed_pass(workload, *phase):
    start = perf_counter()
    result = workload.run_pass(*phase)
    result.seconds = perf_counter() - start
    return result


def keep_going(started: float, last: float, seconds: float) -> bool:
    # Start another pass unless it would end more than half a pass late.
    return perf_counter() - started + 0.5 * last <= seconds


def run_untraced(workload, seconds: float, probes: Probes) -> tuple[list, float]:
    """The passes, and this process's peak RSS once the first has ended.

    Later passes only re-grow the allocator's high-water mark, so taking
    the peak there keeps it independent of how many passes fit the run.
    """
    passes = []
    started = perf_counter()
    probes.run(PROBES_PER_GAP)
    while not passes or keep_going(started, passes[-1].seconds, seconds):
        passes.append(timed_pass(workload))
        if len(passes) == 1:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes.run(PROBES_PER_GAP)
    return passes, peak


def run_traced(workload, seconds: float, tracer):
    """Alternate untraced and traced passes; per-layer figures come from the
    warm-up plus the first traced pass, so they repeat exactly run to run."""
    plain, traced, snapshot = [], [], None
    started = perf_counter()
    while not traced or keep_going(started, plain[-1].seconds + traced[-1].seconds, seconds):
        plain.append(timed_pass(workload))
        tracer.install()
        traced.append(timed_pass(workload, tracer.set_phase))
        tracer.uninstall()
        if snapshot is None:
            snapshot = (Counter(tracer.calls), dict(tracer.self_s))
    return plain, traced, snapshot


def per_layer_metrics(workload, snapshot, spec: list[dict]) -> tuple[dict, list[str]]:
    calls_by_phase, self_by_phase = snapshot
    calls = tracing.by_function(calls_by_phase)
    self_s = tracing.by_function(self_by_phase)
    ratios = {
        f"{function}.calls_per_{base}": (function, phase, base, size)
        for function, phase, base, size in workload.ratios()
    }
    metrics, notes = {}, []
    for entry in spec:
        metric, unit = entry["name"], entry["unit"]
        function, kind = metric.rsplit(".", 1)
        if kind == "calls":
            value = calls[function]
        elif kind == "self_s":
            value = self_s[function]
        elif metric in ratios:
            function, phase, base, size = ratios[metric]
            count = calls_by_phase[(phase, function)]
            value = count / size
            notes.append(f"{metric} = {value:.4f} ({count} calls in {phase} / {size} {base}s)")
        else:
            value = 0.0  # this workload has no input of that base
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, notes


def untraced_layers(spec: list[dict], traced: set[str]) -> list[str]:
    """Functions named by a per-layer metric that the tracer did not wrap.

    Such a metric would read 0 (a false gain) after a rename or move, so
    the run is marked incorrect instead.
    """
    named = {entry["name"].rsplit(".", 1)[0] for entry in spec}
    return sorted(named - traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COLD_START_COMMANDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ballot_lattice" / "__init__.py").is_file():
        return fail(f"no package sources at {SRC.relative_to(ROOT)}/ballot_lattice; "
                    "run from the root of a ballot_lattice checkout")
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read {SPEC.name}: {exc}")
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import workloads
    except ImportError as exc:
        return fail(f"cannot import the package: {exc}")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"machine: cpus={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    metrics: dict = {}
    probes = Probes(COLD_START_COMMANDS[args.workload])
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        print(f"facts: {json.dumps(workload.facts(), sort_keys=True)}")
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.set_phase("warm_up")
            workloads.warm_up()
            tracer.uninstall()
            plain, traced, snapshot = run_traced(workload, args.seconds, tracer)
            passes = plain + traced
        else:
            workloads.warm_up()
            passes, peak = run_untraced(workload, args.seconds, probes)
            if not probes.setup:
                return fail("every set-up probe failed")

    digests = {p.digest() for p in passes}
    expected = workload.expected_digest(args.seed)
    problems = [f for p in passes for f in p.failures]
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct output digests")
    if expected is not None and expected not in digests:
        problems.append(f"output digest {sorted(digests)[0]} != recorded {expected}")
    attempted = probes.attempted + sum(p.attempted for p in passes)
    failed = probes.failed + sum(p.failed for p in passes)
    print(f"passes: {len(passes)}, output digest {sorted(digests)[0]}")

    if args.trace:
        problems.extend(
            f"{name} is named by a per-layer metric but is not traced"
            for name in untraced_layers(spec["per_layer"], set(tracer.originals))
        )
        metrics, notes = per_layer_metrics(workload, snapshot, spec["per_layer"])
        for line in notes:
            print(line)
        on = statistics.median(p.seconds for p in traced)
        off = statistics.median(p.seconds for p in plain)
        print(
            f"tracing overhead: {on - off:+.4f} s per pass ({100 * (on - off) / off:+.1f}%), "
            f"traced {on:.4f} s vs untraced {off:.4f} s, medians of {len(traced)} and {len(plain)}"
        )
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        samples: dict = {}
        for p in passes:
            for step, values in p.samples.items():
                samples.setdefault(step, []).extend(values)
        values = {
            "setup_s": (statistics.median(probes.setup), f"median of {len(probes.setup)} fresh processes"),
            "peak_rss_mib": (peak, "this process, set-up and first pass"),
            "cold_start_ms": (1000 * statistics.median(probes.cold), f"median of {len(probes.cold)}: "
                              + " ".join(probes.command)),
        }
        figures = workload.figures(samples)
        for name, (ms, how) in figures.items():
            shown = f"{ms:.4f} ms" if name.endswith("_ms") else f"{ms / 1000:.4f} s"
            figures[name] = (ms, f"{name} = {shown}, {how}")
        for index, name in enumerate(workload.names, start=1):
            values[f"step{index}_ms"] = figures.pop(name)
        for entry in spec["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            value, how = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:14s} {value:12.4f} {unit:4s} {how}")
        for _, how in figures.values():
            print(f"{'also':14s} {how}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    for line in problems[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
