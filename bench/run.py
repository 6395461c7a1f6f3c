"""taublab benchmark: seeded closed-loop workloads, one caller, one round process at a time.

    python3 bench/run.py --workload lattice-halo --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; taublab is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it give the same numbers with units, ``failed_frac``, the
tail percentile with its task count, and the run record, which is also
written to ``.bench_out/``.

    python3 bench/run.py --table [--seed N --seconds S]

runs every workload traced, in turn, and prints the layer x workload
self-time table.

    python3 bench/run.py --write-pins

recomputes the pinned output digests of the default seeds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

PINS = BENCH / "pinned_digests.json"
PIN_SEEDS = range(10)
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 3
TAIL_RUNGS = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)


def taublab_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "taublab" or n.startswith("taublab.")}


def check_sources() -> Path:
    src = ROOT / "src"
    if not (src / "taublab" / "__init__.py").is_file():
        raise SystemExit(f"no taublab sources under {src}")
    return src


def import_taublab() -> SimpleNamespace:
    """A fresh import of taublab from ./src, dropping any earlier one."""
    src = check_sources()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in taublab_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    tl = SimpleNamespace(taublab=importlib.import_module("taublab"))
    for mod in ("lattice", "ergodic", "search", "formats", "cli"):
        setattr(tl, mod, importlib.import_module(f"taublab.{mod}"))
    if Path(tl.taublab.__file__).resolve().parent != (src / "taublab").resolve():
        raise SystemExit(f"imported taublab from {tl.taublab.__file__}, not from {src}")
    return tl


def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import taublab afresh and build the round; returns (tasks, seconds)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    gc.collect()
    t0 = time.perf_counter()
    tl = import_taublab()
    workdir.mkdir(parents=True)
    tasks = workloads.WORKLOADS[workload](tl, seed, workdir, tiny)
    return tasks, time.perf_counter() - t0


def in_child(fn):
    """fn() in a child forked from this process; returns what it returns.

    The child reports back through a pipe as JSON and exits.  Nothing it
    imports, caches or allocates outlives it."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 1
        try:
            data = json.dumps(fn()).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:  # the parent reports the failure; the child must not return
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        raise SystemExit(f"round process exited with code {code}")
    return json.loads(data)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_rung(tasks_per_round: int) -> float:
    """The highest rung with at least ten of the round's tasks beyond it."""
    for pct in TAIL_RUNGS:
        if tasks_per_round * (100 - pct) / 100 >= 10:
            return pct
    return TAIL_RUNGS[-1]


def per_task_min(rounds: list[list[float]]) -> list[float]:
    return [min(column) for column in zip(*rounds)]


class Runner:
    """Runs a round of tasks, timing each call and checking each output."""

    def __init__(self, tasks, expected: list[str] | None, tracer=None):
        self.tasks = tasks
        self.expected = expected  # digests, one per task, or None
        self.tracer = tracer
        self.failures: list[str] = []

    def run_round(self) -> tuple[list[float], list[str]]:
        latencies = []
        digests = []
        clock = time.perf_counter
        if self.tracer is not None:
            self.tracer.patch()
        for i, task in enumerate(self.tasks):
            err = None
            t0 = clock()
            try:
                out = task.call()
            except Exception as exc:  # a raising task is a failed task, not a crashed run
                err = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
            if err is None:
                if self.tracer is not None:
                    with self.tracer.paused():
                        err, dg = self._check(task, out)
                else:
                    err, dg = self._check(task, out)
            else:
                dg = "raised"
            out = None  # so the next task's peak memory does not include this output
            digests.append(dg)
            if err is None and self.expected and dg != self.expected[i]:
                err = f"digest {dg} differs from expected {self.expected[i]}"
            if err is not None:
                self.failures.append(f"task {i} ({task.kind}): {err}")
        if self.tracer is not None:
            self.tracer.unpatch()
        return latencies, digests

    @staticmethod
    def _check(task, out):
        try:
            return task.check(out), task.digest(out)
        except Exception as exc:  # a check that cannot read the output fails the task
            return f"check raised {type(exc).__name__}: {exc}", "unreadable"


def one_round(workload: str, seed: int, workdir: Path, tiny: bool, expected: list[str] | None,
              traced: bool, spans_file: Path | None) -> dict:
    """Set up and run one round in this process, which is a fresh child."""
    tasks, setup_s = setup(workload, seed, workdir, tiny)
    if expected is not None and len(expected) != len(tasks):
        raise SystemExit(f"{len(expected)} expected digests for a round of {len(tasks)} tasks; "
                         "rerun with --write-pins")
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.bind()
    runner = Runner(tasks, expected, tracer)
    os.chdir(workdir)
    gc.collect()
    latencies, digests = runner.run_round()
    out = {"setup_s": setup_s, "latencies": latencies, "digests": digests,
           "failures": runner.failures, "kinds": [t.kind for t in tasks],
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if traced:
        out["layer"], out["missing"] = tracer.layer_metrics(workload)
        if spans_file is not None:
            spans_file.parent.mkdir(exist_ok=True)
            tracer.write(spans_file)
    return out


def round_digest(digests: list[str]) -> str:
    return workloads.digest_text("".join(digests))


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def load_pins(workload: str, seed: int) -> list[str] | None:
    if not PINS.is_file():
        return None
    blob = json.loads(PINS.read_text()).get(workload, {}).get(str(seed))
    return None if blob is None else [blob[i:i + 12] for i in range(0, len(blob), 12)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, expected: list[str] | None = None) -> dict:
    """One benchmark run; returns the result and the run record.

    Each round runs in its own child, forked from this process before
    taublab is imported: it imports taublab, builds the round (its set-up),
    runs every task once and exits.  So no round starts with caches, imports
    or garbage left by an earlier one.  With tracing, untraced and traced
    rounds alternate."""
    threads_env = os.environ.pop("TAUBLAB_THREADS", None)
    check_sources()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": git_sha(), "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(), "taublab_threads_unset": True,
        "taublab_threads_was": threads_env,
    }
    if expected is None and not tiny:
        expected = load_pins(workload, seed)
    record["pinned"] = expected is not None
    workdir = WORK / f"{workload}-{os.getpid()}"
    spans_file = OUT / f"{workload}-seed{seed}-spans.bin"
    plain, traced, extra_setups = [], [], []
    try:
        start = time.perf_counter()
        while len(plain) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            for rounds, on in ((plain, False), (traced, True))[:1 + trace]:
                rounds.append(in_child(lambda: one_round(
                    workload, seed, workdir, tiny, expected, on,
                    spans_file if on and not traced and not tiny else None)))
                # Without pins, every round is compared with the first.
                expected = expected or rounds[-1]["digests"]
            if not trace:
                # one more set-up alone, so setup_s has twice the samples
                extra_setups.append(in_child(lambda: setup(workload, seed, workdir, tiny)[1]))
        record["wall_s"] = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = plain + traced
    first = plain[0]
    record["rounds"] = len(rounds)
    record["tasks_per_round"] = len(first["kinds"])
    record["task_kinds"] = dict(sorted(Counter(first["kinds"]).items()))
    record["round_digest"] = round_digest(first["digests"])
    record["setup_times_s"] = [r["setup_s"] for r in rounds] + extra_setups
    record["loadavg_end"] = loadavg()
    failures = [f for r in rounds for f in r["failures"]]
    failed = len(failures)
    attempted = sum(len(r["latencies"]) for r in rounds)

    # A task's latency is its minimum over the rounds.  Every round does the
    # same deterministic work from the same fresh start, and on a shared
    # host the noise only adds time: the machine's speed drifts by tens of
    # percent over spells of seconds, while the fastest of several rounds
    # repeats within a few percent from run to run.
    lat = sorted(per_task_min([r["latencies"] for r in plain]))
    correct = not failed
    if trace:
        layer = [r["layer"] for r in traced]
        metrics = {k: min(m[k] for m in layer) for k in layer[0]}
        metrics["trace_overhead_frac"] = (
            sum(per_task_min([r["latencies"] for r in traced])) / sum(lat) - 1)
        metrics["trace.round_s"] = min(sum(r["latencies"]) for r in traced)
        missing = traced[0]["missing"]
        if missing:
            correct = False
            failures.append(f"traced names with no span in their home workload: {missing}")
        if not tiny:
            record["trace_file"] = str(spans_file.relative_to(ROOT))
    else:
        pct = tail_rung(len(lat))
        tail = percentile(lat, pct)
        record["tail_percentile"] = pct
        record["tail_tasks_beyond"] = sum(1 for x in lat if x > tail)
        # set-up, like the latencies, is the fastest of its samples
        metrics = {
            "tasks_per_s": len(lat) / sum(lat),
            "task_p50_ms": 1000 * statistics.median(lat),
            "task_tail_ms": 1000 * tail,
            "peak_rss_mb": max(r["rss_mb"] for r in rounds),
            "setup_s": min(record["setup_times_s"]),
        }
    record["failures"] = failures[:20]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "record": record, "round_digests": first["digests"]}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()["end_to_end"] + spec()["per_layer"]}


def report(out: dict) -> None:
    result, record = out["result"], out["record"]
    units = metric_units()
    name = f"{record['workload']} seed={record['seed']}"
    for key, value in result["metrics"].items():
        print(f"{name}  {key} = {value:.6g} {units.get(key, '')}")
    print(f"{name}  failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    if "tail_percentile" in record:
        print(f"{name}  task_tail_ms is p{record['tail_percentile']:g} of the "
              f"{record['tasks_per_round']} tasks' fastest latencies over {record['rounds']} "
              f"rounds, {record['tail_tasks_beyond']} tasks beyond it")
    for line in record["failures"]:
        print(f"{name}  FAILED {line}")
    print("run record: " + json.dumps(record, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps({"record": record, **result}, indent=1, sort_keys=True) + "\n")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()
               if k in units}
    print(json.dumps({**result, "metrics": metrics}))


def table(seed: int, seconds: float) -> int:
    """Run every workload traced and print layer self time per workload."""
    rows = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return 1
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = all(r["correct"] for r in rows.values())
    # self seconds per second of traced task time, so workloads weigh equally
    rate = {w: {layer: r["metrics"][f"{layer}.self_s"]["value"] / r["metrics"]["trace.round_s"]["value"]
                for layer in spans.LAYERS} for w, r in rows.items()}
    print(f"{'layer':<10}" + "".join(f"{w:>16}" for w in rows) + f"{'home share':>12}")
    for layer in spans.LAYERS:
        total = sum(rate[w][layer] for w in rows)
        share = rate[spans.HOME[layer]][layer] / total if total else 0.0
        cells = "".join(f"{rate[w][layer]:>16.3f}" for w in rows)
        print(f"{layer:<10}{cells}{share:>12.2f}")
        if layer in ("lattice", "ergodic", "search") and share <= 0.5:
            ok = False
    print("(self seconds per traced second; home share = home workload / all workloads)")
    print("overhead  " + "".join(f"{rows[w]['metrics']['trace_overhead_frac']['value']:>16.3f}"
                                 for w in rows))
    return 0 if ok else 1


def write_pins() -> int:
    pins = {}
    for workload in workloads.WORKLOADS:
        pins[workload] = {}
        for seed in PIN_SEEDS:
            workdir = WORK / f"{workload}-{os.getpid()}"
            try:
                out = in_child(lambda: one_round(workload, seed, workdir, False, None, False, None))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if out["failures"]:
                print("\n".join(out["failures"]))
                return 1
            pins[workload][str(seed)] = "".join(out["digests"])
            print(f"{workload} seed {seed}: {len(out['digests'])} tasks, "
                  f"{round_digest(out['digests'])}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.table:
        return table(args.seed, args.seconds)
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
