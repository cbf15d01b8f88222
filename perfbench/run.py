#!/usr/bin/env python3
"""qwalk benchmark: CLI workloads timed end to end, plus a traced run that
splits the time by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Run from the root of a source tree holding ``src/qwalk``; the CLI is
started as ``python -m qwalk.cli`` with ``PYTHONPATH=src``, one fresh
process per invocation, one process at a time (a closed loop with one
client).  Configs are generated from ``--seed`` (see ``workloads.py``) and
every output is checked (see ``check.py``).

``--trace 0`` repeats untraced passes over the workload for ``--seconds``
and reports the end-to-end metrics as medians over passes.  ``--trace 1``
alternates untraced and traced passes (``tracer.py``) for ``--seconds``,
runs the fixed-size layer probes (``probes.py``) once, and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full result, with
the environment and sample counts, is also written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"
PY = sys.executable
#: measured seconds per run: host speed swings about 2x in spells of up
#: to ~30 s, so a run must span several spells to give a steady median
RUN_SECONDS = 55
#: set-up children per run; the median is reported
SETUP_REPS = 7
#: a child running longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0

SETUP_CODE = (
    "import json, sys\n"
    "from qwalk.cli import parse_config\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        parse_config(json.load(fh))\n"
)

# (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("site_updates_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

ALL = "all workloads"
# (name, unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER = (
    ("walk.step_calls", "count", "lower", "wall_s", "grid_sweep"),
    ("walk.step_self_s", "s", "lower", "wall_s", "grid_sweep"),
    ("walk.step_us_p50", "us", "lower", "wall_s", "grid_sweep"),
    ("walk.step_us_p99", "us", "lower", "wall_s", "grid_sweep"),
    ("walk.evolve_self_s", "s", "lower", "wall_s", "grid_sweep"),
    ("walk.site_updates_per_s", "1/s", "higher", "wall_s", "grid_sweep"),
    ("coin.build_calls", "count", "lower", "wall_s", "grid_sweep"),
    ("coin.build_s", "s", "lower", "wall_s", "grid_sweep"),
    ("stats.moments_calls", "count", "lower", "wall_s", "grid_sweep"),
    ("stats.moments_s", "s", "lower", "wall_s", "grid_sweep"),
    ("decoherence.ensemble_calls", "count", "lower", "wall_s", "ensemble_pipeline"),
    ("decoherence.ensemble_self_s", "s", "lower", "wall_s", "ensemble_pipeline"),
    ("decoherence.realization_steps_per_s", "1/s", "higher", "wall_s", "ensemble_pipeline"),
    ("decoherence.rng_streams", "count", "lower", "wall_s", "ensemble_pipeline"),
    ("decoherence.rng_s", "s", "lower", "wall_s", "ensemble_pipeline"),
    ("decoherence.rng_useful_ratio", "ratio", "higher", "wall_s", "ensemble_pipeline"),
    ("decoherence.step_broken_calls", "count", "lower", "wall_s", "ensemble_pipeline"),
    ("decoherence.step_broken_s", "s", "lower", "wall_s", "ensemble_pipeline"),
    ("pricing.price_path_self_s", "s", "lower", "wall_s", "ensemble_pipeline"),
    ("pricing.horizons_per_s", "1/s", "higher", "wall_s", "ensemble_pipeline"),
    ("classical.stable_pdf_calls", "count", "lower", "wall_s", "ensemble_pipeline"),
    ("classical.stable_pdf_s", "s", "lower", "wall_s", "ensemble_pipeline"),
    ("classical.stable_pdf_useful_ratio", "ratio", "higher", "wall_s", "ensemble_pipeline"),
    ("classical.stable_pdf_ms_max", "ms", "lower", "wall_s", "ensemble_pipeline"),
    ("cli.parse_s", "s", "lower", "setup_s", ALL),
    ("cli.command_self_s", "s", "lower", "wall_s", ALL),
    ("cli.write_s", "s", "lower", "wall_s", ALL),
    ("cli.write_bytes", "bytes", "lower", "wall_s", ALL),
    ("process.cpu_s", "s", "lower", "none (reported, not gated)", ALL),
    ("process.startup_s", "s", "lower", "setup_s", ALL),
    ("trace.overhead_s", "s", "lower", "none (tracer cost)", ALL),
    ("trace.coverage", "ratio", "higher", "none (share of traced wall_s explained)", ALL),
    ("probe.walk_n100_site_updates_per_s", "1/s", "higher", "wall_s", "grid_sweep"),
    ("probe.walk_n1000_site_updates_per_s", "1/s", "higher", "none (large-array walk, no workload)", "none"),
    ("probe.ensemble_broken_realization_steps_per_s", "1/s", "higher", "wall_s", "ensemble_pipeline"),
    ("probe.ensemble_phase_realization_steps_per_s", "1/s", "higher", "wall_s", "ensemble_pipeline"),
    ("probe.rng_stream_us", "us", "lower", "wall_s", "ensemble_pipeline"),
    ("probe.moments_us", "us", "lower", "wall_s", "grid_sweep"),
    ("probe.stable_pdf_direct_ms", "ms", "lower", "wall_s", "ensemble_pipeline"),
    ("probe.stable_pdf_accelerated_ms", "ms", "lower", "none (regime unreachable from the CLI axis)", "none"),
    ("probe.write_mb_per_s", "MB/s", "higher", "wall_s", ALL),
)

# self times that, with per-child start-up, should explain the traced wall
# time (trace.coverage)
COVERAGE_TERMS = (
    "walk.step_self_s", "walk.evolve_self_s", "coin.build_s", "stats.moments_s",
    "decoherence.ensemble_self_s", "decoherence.rng_s", "decoherence.step_broken_s",
    "pricing.price_path_self_s", "classical.stable_pdf_s", "cli.parse_s",
    "cli.command_self_s", "cli.write_s", "process.startup_s",
)


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


@dataclass
class Child:
    launched: float
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path) -> Child:
    """Run one child to completion; time it from launch to exit and take its
    own resource usage from ``os.wait4``."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=fh, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        launched=t0,
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
    )


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    write_bytes: int = 0


class Bench:
    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.invocations = workloads.build(workload, seed)
        self.work = workloads.work_of(self.invocations)
        self.digests = (
            check.reference_digests()[workload] if seed == workloads.DEFAULT_SEED else None
        )
        self.config_paths = {}
        for inv in self.invocations:
            path = work_dir / "configs" / f"{inv.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(inv.config, indent=2) + "\n", encoding="utf-8")
            self.config_paths[inv.name] = path
        self.passes = 0
        self.checker_missed = []

    def setup_once(self) -> Child:
        argv = [PY, "-c", SETUP_CODE, *map(str, self.config_paths.values())]
        child = spawn(argv, self.work_dir / "setup.log")
        if child.returncode != 0:
            log = (self.work_dir / "setup.log").read_text(errors="replace")
            raise RuntimeError(f"set-up child failed with exit {child.returncode}:\n{log}")
        return child

    def run_pass(self, traced: bool) -> Pass:
        self.passes += 1
        pass_dir = self.work_dir / f"pass{self.passes}"
        result = Pass()
        for inv in self.invocations:
            out_dir = pass_dir / inv.name
            cli_args = [inv.command, "--config", str(self.config_paths[inv.name]), "--out", str(out_dir)]
            trace_path = pass_dir / f"{inv.name}.trace.json"
            if traced:
                argv = [PY, str(BENCH_DIR / "tracer.py"), str(trace_path), *cli_args]
            else:
                argv = [PY, "-m", "qwalk.cli", *cli_args]
            out_dir.mkdir(parents=True, exist_ok=True)
            child = spawn(argv, pass_dir / f"{inv.name}.log")
            result.attempted += 1
            result.wall_s += child.wall_s
            result.cpu_s += child.cpu_s
            result.peak_rss_mb = max(result.peak_rss_mb, child.maxrss_mb)
            if child.returncode != 0:
                log = (pass_dir / f"{inv.name}.log").read_text(errors="replace")
                problems = [f"exit {child.returncode}: {log.strip()[-400:]}"]
            else:
                rows = self.work.rows[inv.name]
                digests = None if self.digests is None else self.digests[inv.name]
                problems = check.check_invocation(inv.config, rows, out_dir, digests)
                if not problems and self.passes == 1:
                    self.checker_missed += check.corrupted_copies_rejected(
                        inv.config, rows, out_dir, digests, pass_dir / "corrupted" / inv.name
                    )
                result.write_bytes += sum(
                    p.stat().st_size for p in out_dir.iterdir() if p.is_file()
                )
            if traced and child.returncode == 0:
                doc = json.loads(trace_path.read_text(encoding="utf-8"))
                doc["launched"] = child.launched
                result.traces.append(doc)
            if problems:
                result.failed += 1
                result.problems += [f"{inv.name}: {p}" for p in problems]
        shutil.rmtree(pass_dir)
        return result


# --------------------------------------------------------------------------
# per-layer metrics from traces
# --------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _percentile_us(histogram: dict, bins_per_octave: int, q: float) -> float:
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    seen = 0
    for b in sorted(histogram):
        seen += histogram[b]
        if seen >= q * total:
            break
    return 2.0 ** ((b + 0.5) / bins_per_octave) / 1e3


def layer_metrics(p: Pass, work: workloads.Work) -> dict:
    """Per-layer metrics of one traced pass, from its children's traces."""
    calls, total, self_s, longest = {}, {}, {}, {}
    hot = {}
    histogram = {}
    distinct = {}
    startup = 0.0
    bins = 1
    for doc in p.traces:
        startup += doc["t_cli_start"] - doc["launched"]
        bins = doc["bins_per_octave"]
        for name, start, end, _parent, slf in doc["spans"]:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + slf
            longest[name] = max(longest.get(name, 0.0), end - start)
        for name, h in doc["hot"].items():
            c = hot.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in c:
                c[key] += h[key]
            hist = histogram.setdefault(name, {})
            for b, n in h["histogram"]:
                hist[b] = hist.get(b, 0) + n
        for name, n in doc["distinct"].items():
            distinct[name] = distinct.get(name, 0) + n

    def hot_of(name, key):
        return hot.get(name, {}).get(key, 0)

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix)) + sum(
            h["self_s"] for k, h in hot.items() if k.startswith(prefix)
        )

    step = "walk.step_unitary"
    m = {
        "walk.step_calls": hot_of(step, "count"),
        "walk.step_self_s": hot_of(step, "self_s"),
        "walk.step_us_p50": _percentile_us(histogram.get(step, {}), bins, 0.50),
        "walk.step_us_p99": _percentile_us(histogram.get(step, {}), bins, 0.99),
        "walk.evolve_self_s": self_s.get("walk.evolve", 0.0),
        "walk.site_updates_per_s": _ratio(work.unitary_site_updates, total.get("walk.evolve", 0.0)),
        "coin.build_calls": calls.get("coin.make_su2_coin", 0),
        "coin.build_s": layer_self("coin."),
        "stats.moments_calls": calls.get("stats.moments", 0),
        "stats.moments_s": total.get("stats.moments", 0.0),
        "decoherence.ensemble_calls": calls.get("decoherence.run_ensemble", 0),
        "decoherence.ensemble_self_s": self_s.get("decoherence.run_ensemble", 0.0),
        "decoherence.realization_steps_per_s": _ratio(
            work.ensemble_realization_steps, total.get("decoherence.run_ensemble", 0.0)
        ),
        "decoherence.rng_streams": hot_of("decoherence.realization_rng", "count"),
        "decoherence.rng_s": hot_of("decoherence.realization_rng", "total_s"),
        "decoherence.rng_useful_ratio": _ratio(
            distinct.get("decoherence.realization_rng", 0),
            hot_of("decoherence.realization_rng", "count"),
        ),
        "decoherence.step_broken_calls": hot_of("decoherence.step_broken_links", "count"),
        "decoherence.step_broken_s": hot_of("decoherence.step_broken_links", "total_s"),
        "pricing.price_path_self_s": self_s.get("pricing.qw_price_path", 0.0),
        "pricing.horizons_per_s": _ratio(work.horizons, total.get("pricing.qw_price_path", 0.0)),
        "classical.stable_pdf_calls": calls.get("classical.stable_pdf", 0),
        "classical.stable_pdf_s": total.get("classical.stable_pdf", 0.0),
        "classical.stable_pdf_useful_ratio": _ratio(
            distinct.get("classical.stable_pdf", 0), calls.get("classical.stable_pdf", 0)
        ),
        "classical.stable_pdf_ms_max": 1e3 * longest.get("classical.stable_pdf", 0.0),
        "cli.parse_s": total.get("cli.parse_config", 0.0),
        "cli.command_self_s": self_s.get("cli.command", 0.0),
        "cli.write_s": total.get("cli.write_outputs", 0.0),
        "cli.write_bytes": p.write_bytes,
        "process.startup_s": startup,
    }
    m["trace.coverage"] = _ratio(sum(m[k] for k in COVERAGE_TERMS), p.wall_s)
    return m


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(args) -> dict:
    probe = subprocess.run(
        [PY, "-c", "import json, numpy; cfg = numpy.show_config(mode='dicts');"
         "blas = cfg['Build Dependencies']['blas'];"
         "print(json.dumps([numpy.__version__, blas.get('name'), blas.get('version')]))"],
        capture_output=True, text=True, timeout=60,
    )
    numpy_version, blas, blas_version = (
        json.loads(probe.stdout) if probe.returncode == 0 else ("unknown", "unknown", "")
    )
    thread_vars = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas} {blas_version}".strip(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli_invocation": f"PYTHONPATH=src {PY} -m qwalk.cli <command> --config <file> --out <dir>",
        "load": "closed loop, one client: one CLI process at a time",
    }


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "samples": len(values)}


def _more(start: float, seconds: float, last: float) -> bool:
    """Whether another step as long as ``last`` ends nearer to ``seconds``
    after ``start`` than stopping now does."""
    return time.perf_counter() - start + last / 2 < seconds


def run_untraced(bench: Bench, seconds: float) -> tuple[list[Pass], dict]:
    start = time.perf_counter()
    bench.setup_once()  # warm-up: byte-compiles sources, fills the file cache
    setups = [bench.setup_once().wall_s for _ in range(SETUP_REPS)]
    passes = []
    while not passes or _more(start, seconds, passes[-1].wall_s):
        passes.append(bench.run_pass(traced=False))
    samples = {
        "wall_s": [p.wall_s for p in passes],
        "setup_s": setups,
        "site_updates_per_s": [bench.work.site_updates / p.wall_s for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }
    return passes, {k: _summary(v) for k, v in samples.items()}


def run_traced(bench: Bench, seconds: float) -> tuple[list[Pass], dict]:
    start = time.perf_counter()
    bench.setup_once()
    pairs = []
    while not pairs or _more(start, seconds, pairs[-1][0].wall_s + pairs[-1][1].wall_s):
        pairs.append((bench.run_pass(traced=False), bench.run_pass(traced=True)))
    samples = {}
    for plain, traced in pairs:
        m = layer_metrics(traced, bench.work)
        m["process.cpu_s"] = plain.cpu_s
        m["trace.overhead_s"] = traced.wall_s - plain.wall_s
        for k, v in m.items():
            samples.setdefault(k, []).append(v)
    probe_out = bench.work_dir / "probes.json"
    child = spawn(
        [PY, str(BENCH_DIR / "probes.py"), str(probe_out), str(bench.work_dir / "probe_out")],
        bench.work_dir / "probes.log",
    )
    if child.returncode != 0:
        log = (bench.work_dir / "probes.log").read_text(errors="replace")
        raise RuntimeError(f"layer probes failed with exit {child.returncode}:\n{log}")
    probed = json.loads(probe_out.read_text(encoding="utf-8"))
    for k, v in probed["values"].items():
        samples[k] = [v]
    for name, error in probed["errors"].items():
        print(f"probe {name} failed and reports 0:\n{error}", file=sys.stderr)
    passes = [p for pair in pairs for p in pair]
    return passes, {k: _summary(v) for k, v in samples.items()}


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": workloads.WHY[w]} for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args()
    # turn a termination request into SystemExit, so that the running child
    # is killed and reaped (see spawn) and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "qwalk" / "cli.py").is_file():
        print(f"error: no qwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args)
    print("environment " + json.dumps(env), flush=True)
    STATE_DIR.mkdir(exist_ok=True)
    work_dir = STATE_DIR / f"work-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, work_dir)
        runner = run_traced if args.trace else run_untraced
        passes, summary = runner(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in [q for p in passes for q in p.problems][:20]:
        print(f"FAILED {problem}")
    for label in bench.checker_missed:
        print(f"FAILED output check accepted a corrupted copy ({label})")
    units = {n: u for n, u, *_ in (END_TO_END if args.trace == 0 else PER_LAYER)}
    for name, s in summary.items():
        print(f"{name:48s} {s['median']:.6g} {units[name]}  "
              f"(median of {s['samples']}; min {s['min']:.6g}, max {s['max']:.6g})")
    print(f"{'error_rate':48s} {failed / attempted:.6g}  ({failed} of {attempted} invocations failed)")

    result = {
        "correct": failed == 0 and not bench.checker_missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": summary[n]["median"], "unit": u} for n, u in units.items()},
    }
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"environment": env, "work": vars(bench.work), "summary": summary, **result}
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
