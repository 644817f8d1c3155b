"""End-to-end benchmark for emitternet, run the way its users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-digests

Each workload is a closed loop: one pass runs its commands one after the
other, each in its own interpreter (``python -m emitternet ...``), so
interpreter start and ``import emitternet`` count. Passes repeat until S
seconds have gone and at least ``MIN_PASSES`` have run, each in a fresh
output directory that is also the working directory, so every path in a
summary is relative. Every output is checked by an oracle in
``oracles.py``; a nonzero exit, a traceback or a wrong output counts as a
failed operation.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``. Each
pass is preceded by one ``--version`` start (set-up time). Between the
timed processes, about every ``PROBE_EVERY_S`` seconds, the benchmark runs
``probe.py``, fixed reference work outside the program. The host's speed
drifts by a quarter or more within minutes, so each process's time is
scaled by ``REFERENCE_PROBE_S`` over the mean of the two probes on each
side of it: the gated times read as they would on a host where the probe
takes ``REFERENCE_PROBE_S``. The table also prints the unscaled times.

``--trace 1`` alternates untraced passes with traced ones, in which
``child.py`` wraps the library's public functions before it runs the same
command, and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

The benchmark builds nothing: it runs ``src/`` of the checkout it sits in,
with ``PYTHONPATH=src`` and BLAS/OpenMP held to one thread. Its files go to
``.perfbench_out/`` in that checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import oracles
from spans import Profile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
LAYER_MAP = HERE / "layer_map.json"
DEFAULT_SEED = 1
# A run must end within 180 s; processes still running this long after the
# benchmark started are killed and count as failed.
RUN_LIMIT_S = 160.0
# At least this many passes per run, whatever --seconds says, so that each
# median rests on several samples.
MIN_PASSES = 3
# Time of probe.py on the reference host: gated times are scaled to a host
# on which the probe takes this long.
REFERENCE_PROBE_S = 0.45
# A probe runs once the timed processes since the last one add up to this.
PROBE_EVERY_S = 3.0
PROBE_OUTPUT = b"probe 1999998 477946\n"

WORKLOADS = ("overlap_bootstrap", "monte_carlo", "interactive", "large_ensemble")
COMMANDS = ("sample", "overlap", "birthday", "fit-ple", "protocol", "spatial", "report")


@dataclass(frozen=True)
class Step:
    cmd: str  # CLI subcommand, or "large" for the in-process library step
    args: tuple[str, ...]
    check: Callable[[Path], bytes]


def workload_steps(name: str, seed: int, tiny: bool = False) -> list[Step]:
    """The commands of one pass. ``tiny`` shrinks sizes for the self-check."""
    if name == "overlap_bootstrap":
        n = 30 if tiny else 250
        boot = ("--bootstrap", "100" if tiny else "300")
        return [
            Step("sample", ("--n", str(n)), lambda d: oracles.check_sample(d, n)),
            Step("overlap", ("--input", "line_list.csv", *boot), oracles.check_overlap),
            Step("report", (), oracles.check_report),
        ]
    if name == "monte_carlo":
        trials = 1000 if tiny else 20_000
        chain = ("--trials", "10000") if tiny else ()
        return [
            Step(
                "birthday",
                ("--q", "0.0098", "--mc", "--trials", str(trials)),
                lambda d: oracles.check_birthday(d, 0.0098, trials),
            ),
            Step(
                "spatial",
                ("--lateral-fwhm-um", "0.5", "--chain-k", "8", *chain),
                lambda d: oracles.check_spatial(d, 0.5, 8, seed),
            ),
        ]
    if name == "interactive":
        return [
            Step("birthday", ("--q", "0.0098"), lambda d: oracles.check_birthday(d, 0.0098, None)),
            Step(
                "fit-ple",
                ("--synthetic", "--k", "3", "--classify"),
                lambda d: oracles.check_fit_ple(d, 3, 1.027, 316.0),
            ),
            Step(
                "protocol",
                ("--n", "12", "--eta", "0.85", "--sweep"),
                lambda d: oracles.check_protocol(d, 12, 0.85),
            ),
            Step(
                "spatial",
                ("--lateral-fwhm-um", "0.5", "--export-scene"),
                lambda d: oracles.check_spatial(d, 0.5, None, seed),
            ),
            Step("report", (), oracles.check_report),
        ]
    if name == "large_ensemble":
        rows, n = (2000, 300) if tiny else (100_000, 3000)
        return [
            Step("sample", ("--n", str(rows)), lambda d: oracles.check_sample(d, rows)),
            Step(
                "large",
                ("line_list.csv", str(n), "large_overlap.json"),
                lambda d: oracles.check_large(d, rows, n),
            ),
        ]
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Proc:
    """One finished process of a pass."""

    cmd: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    ok: bool
    error: str = ""
    digest: str | None = None
    spans: list | None = None
    script_s: float | None = None
    # Host-speed factor set by Runner.scale_by_probes; 1.0 without probes.
    scale: float = 1.0


def child_env() -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("EMITTERNET_SEED", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")
    }
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


ENV = child_env()


def spawn(argv: list[str], cwd: Path, label: str, deadline: float):
    """Run one process to completion; per-process rusage comes from wait4.

    A process still running at ``deadline`` (a ``perf_counter`` time) is
    killed, so one run always ends within the time its caller allows.
    """
    out_path, err_path = cwd / f"{label}.stdout", cwd / f"{label}.stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, out_path.read_bytes(), err_path.read_bytes()


def run_step(step: Step, d: Path, label: str, seed: int, traced: bool, deadline: float) -> Proc:
    spans_file = d / f"{label}.spans.json"
    trace_args = ["--spans", str(spans_file), label] if traced else []
    child = [sys.executable, str(HERE / "child.py"), *trace_args]
    if step.cmd == "large":
        argv = [*child, "large", *step.args]
    else:
        cli = [step.cmd, *step.args, "--seed", str(seed), "--out", "."]
        argv = [*child, "cli", *cli] if traced else [sys.executable, "-m", "emitternet", *cli]
    code, wall, usage, _, stderr = spawn(argv, d, label, deadline)
    rec = Proc(step.cmd, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, False)
    if code != 0 or b"Traceback" in stderr:
        rec.error = f"exit {code}: {stderr.decode(errors='replace').strip()[-300:]}"
        return rec
    # A wrong or unreadable output is a failed operation, never a crash of the
    # benchmark, whatever the exception.
    try:
        rec.digest = oracles.digest(step.check(d))
    except Exception as exc:  # noqa: BLE001 - boundary that must keep running
        rec.error = f"oracle: {type(exc).__name__}: {exc}"
        return rec
    if traced:
        rec.spans = json.loads(spans_file.read_text(encoding="utf-8"))
    if step.cmd == "large":
        rec.script_s = json.loads((d / "large_overlap.json").read_text())["large_overlap_s"]
    rec.ok = True
    return rec


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Runner:
    """Runs passes of one workload and keeps every process for the metrics."""

    def __init__(self, workload: str, seed: int, tiny: bool, expected: list[str] | None):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.workload = workload
        fresh_dir(OUT / workload)
        self.steps = workload_steps(workload, seed, tiny)
        self.seed = seed
        # Passes of one seed must give identical outputs; the first pass is
        # the reference unless a recorded digest list is given.
        self.reference = expected
        self.setup: list[Proc] = []
        # With probing on (end-to-end runs), each timed process is kept with
        # the index of the last probe before it.
        self.probing = False
        self.probes: list[float] = []
        self.timed: list[tuple[int, Proc]] = []
        self.since_probe = 0.0
        self.passes: list[list[Proc]] = []
        self.traced: list[list[Proc]] = []
        self.count = 0

    def run_pass(self, traced: bool, steps: list[Step] | None = None) -> list[Proc]:
        self.count += 1
        d = fresh_dir(OUT / self.workload / f"pass{self.count:03d}")
        procs = []
        for i, step in enumerate(steps or self.steps):
            procs.append(run_step(step, d, f"{i:02d}_{step.cmd}", self.seed, traced, self.deadline))
            self.after_timed(procs[-1])
        if self.reference is None and all(p.ok for p in procs):
            self.reference = [p.digest for p in procs]
        for i, p in enumerate(procs):
            ref = self.reference[i] if self.reference and i < len(self.reference) else None
            if p.ok and ref is not None and p.digest != ref:
                p.ok = False
                p.error = f"digest {p.digest[:12]} differs from reference {ref[:12]}"
        (self.traced if traced else self.passes).append(procs)
        return procs

    def probe_setup(self) -> None:
        """One CLI start that does no work."""
        d = OUT / self.workload / "setup"
        d.mkdir(exist_ok=True)
        argv = [sys.executable, "-m", "emitternet", "--version"]
        label = f"version{len(self.setup):03d}"
        code, wall, usage, stdout, stderr = spawn(argv, d, label, self.deadline)
        rec = Proc("--version", wall, usage.ru_maxrss / 1024.0, 0.0, code == 0)
        if not rec.ok or not stdout.startswith(b"emitternet "):
            rec.ok = False
            rec.error = f"--version exit {code}: {stderr[-200:]!r} {stdout[:60]!r}"
        self.setup.append(rec)
        self.after_timed(rec)

    def after_timed(self, proc: Proc) -> None:
        if self.probing:
            self.timed.append((len(self.probes) - 1, proc))
            self.since_probe += proc.wall_s
            if self.since_probe >= PROBE_EVERY_S:
                self.probe_host()

    def scale_by_probes(self) -> None:
        """Scale each timed process by the mean of the two probes on each side.

        Four probes span about a dozen seconds around the process: close
        enough to follow the host's drift, with half the noise of one probe.
        """
        for before, proc in self.timed:
            near = self.probes[max(before - 1, 0) : before + 3]
            proc.scale = REFERENCE_PROBE_S / statistics.fmean(near)

    def probe_host(self) -> None:
        """One run of the fixed reference work; a wrong run stops the benchmark."""
        d = OUT / self.workload / "setup"
        d.mkdir(exist_ok=True)
        argv = [sys.executable, "-I", str(HERE / "probe.py")]
        label = f"probe{len(self.probes):03d}"
        code, wall, _, stdout, stderr = spawn(argv, d, label, self.deadline)
        if code != 0 or stdout != PROBE_OUTPUT:
            raise SystemExit(f"probe.py failed (exit {code}): {stderr[-300:]!r} {stdout[:60]!r}")
        self.probes.append(wall)
        self.since_probe = 0.0

    def all_procs(self) -> list[Proc]:
        return self.setup + [p for ps in self.passes + self.traced for p in ps]


def warm_up(deadline: float) -> None:
    """Compile the package's .pyc files so no timed start compiles them."""
    d = fresh_dir(OUT / "warmup")
    argv = [sys.executable, "-m", "compileall", "-q", str(SRC / "emitternet")]
    code, *_ = spawn(argv, d, "compileall", deadline)
    if code != 0:
        raise SystemExit("compileall failed on src/emitternet")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def import_times(deadline: float) -> dict[str, float]:
    """``import emitternet`` and its scipy share, from ``-X importtime``."""
    d = fresh_dir(OUT / "importtime")
    argv = [sys.executable, "-X", "importtime", "-c", "import emitternet"]
    code, _, _, _, stderr = spawn(argv, d, "importtime", deadline)
    if code != 0:
        raise SystemExit("import emitternet failed")
    rows = []
    for line in stderr.decode().splitlines():
        if line.startswith("import time:") and "|" in line and "cumulative" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), int(cumulative), name.strip()))
    total = scipy = 0
    # Lines come children first; reversed, each parent precedes its children.
    stack: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "emitternet" and not stack:
            total = cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            scipy += cumulative
        stack.append((depth, name))
    return {"cli.import_s": total / 1e6, "cli.import_scipy_s": scipy / 1e6}


def command_medians(passes: list[list[Proc]]) -> dict[str, tuple[float, int]]:
    out = {}
    for cmd in COMMANDS:
        walls = [p.wall_s for ps in passes for p in ps if p.cmd == cmd]
        out[f"cmd.{cmd.replace('-', '_')}_s"] = (median(walls), len(walls))
    scripts = [p.script_s for ps in passes for p in ps if p.script_s is not None]
    out["script.large_overlap_s"] = (median(scripts), len(scripts))
    return out


def end_to_end(r: Runner) -> dict[str, tuple[float, int]]:
    """Gated metrics, each process's time scaled by its probes."""
    return {
        "wall_s": (median([sum(p.wall_s * p.scale for p in ps) for ps in r.passes]),
                   len(r.passes)),
        "setup_s": (median([p.wall_s * p.scale for p in r.setup]), len(r.setup)),
        "peak_rss_mb": (median([max(p.rss_mb for p in ps) for ps in r.passes]), len(r.passes)),
    }


def unscaled(r: Runner) -> dict[str, tuple[float, int]]:
    return {
        "unscaled wall_s": (median([sum(p.wall_s for p in ps) for ps in r.passes]), len(r.passes)),
        "unscaled setup_s": (median([p.wall_s for p in r.setup]), len(r.setup)),
        "probe.py": (median(r.probes), len(r.probes)),
    }


def per_layer(r: Runner, imports: dict[str, float]) -> dict[str, tuple[float, int]]:
    profiles = [Profile([(p.wall_s, p.spans or []) for p in ps]).metrics() for ps in r.traced]
    out: dict[str, tuple[float, int]] = {k: (v, 1) for k, v in imports.items()}
    out["cli.cpu_s"] = (median([sum(p.cpu_s for p in ps) for ps in r.passes]), len(r.passes))
    for key in profiles[0]:
        out[key] = (median([m[key] for m in profiles]), len(profiles))
    overhead = [
        sum(p.wall_s for p in t) - sum(p.wall_s for p in u) for u, t in zip(r.passes, r.traced)
    ]
    out["trace.overhead_s"] = (median(overhead), len(overhead))
    out.update(command_medians(r.passes))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            expected: list[str] | None = None,
            min_passes: int = MIN_PASSES) -> tuple[Runner, dict[str, tuple[float, int]]]:
    runner = Runner(workload, seed, tiny, expected)
    warm_up(runner.deadline)
    if trace:
        imports = import_times(runner.deadline)
        start = time.perf_counter()
        while not runner.traced or time.perf_counter() - start < seconds:
            # Alternate which side goes first so drift does not favour one.
            order = (False, True) if len(runner.traced) % 2 == 0 else (True, False)
            for traced in order:
                runner.run_pass(traced)
        return runner, per_layer(runner, imports)
    start = time.perf_counter()
    runner.probing = True
    runner.probe_host()
    while len(runner.passes) < min_passes or time.perf_counter() - start < seconds:
        runner.probe_setup()
        runner.run_pass(False)
    runner.probe_host()
    runner.scale_by_probes()
    return runner, end_to_end(runner)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in load_benchmark()[section]}


def expected_digests(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"].get(workload)


def environment() -> dict[str, str]:
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": "OPENBLAS/OMP/MKL=1",
    }


def report(workload: str, seed: int, trace: bool, r: Runner,
           metrics: dict[str, tuple[float, int]]) -> dict:
    procs = r.all_procs()
    failed = [p for p in procs if not p.ok]
    section = "per_layer" if trace else "end_to_end"
    names = units(section)
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    print(f"emitternet benchmark: workload={workload} seed={seed} trace={int(trace)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    shown = dict(metrics)
    if not trace:
        shown.update(unscaled(r))
        shown.update(command_medians(r.passes))
    for name, (value, n) in shown.items():
        unit = names.get(name) or units("per_layer").get(name, "s")
        print(f"  {name:40s} {value:16.6f} {unit:6s} (median of {n})")
    print(f"  {'error_rate':40s} {len(failed) / len(procs):16.6f} ratio  "
          f"({len(failed)} of {len(procs)} operations failed)")
    if trace:
        self_sum = sum(v for k, (v, _) in metrics.items() if k.startswith("self."))
        untraced = median([sum(p.wall_s for p in ps) for ps in r.passes])
        print(f"  self times add up to {self_sum:.4f} s per traced pass; an untraced pass "
              f"takes {untraced:.4f} s; trace.overhead_s is the difference")
    for p in failed:
        print(f"  FAILED {p.cmd}: {p.error}")
    return {
        "correct": not failed,
        "attempted": len(procs),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit} for name, unit in names.items()
        },
    }


def self_check() -> int:
    """Harness checks at tiny sizes; prints what failed and exits nonzero then."""
    problems = []
    per_layer_names = set(units("per_layer"))
    layer_map = json.loads(LAYER_MAP.read_text(encoding="utf-8"))
    if set(layer_map) != per_layer_names:
        problems.append(f"layer_map.json and per_layer differ: {set(layer_map) ^ per_layer_names}")
    for workload in WORKLOADS:
        for trace in (False, True):
            r, metrics = measure(workload, DEFAULT_SEED, 0.0, trace, tiny=True, min_passes=1)
            section = "per_layer" if trace else "end_to_end"
            missing = set(units(section)) - set(metrics)
            if missing:
                problems.append(f"{workload} trace={trace}: missing {sorted(missing)}")
            bad = [p for p in r.all_procs() if not p.ok]
            if bad:
                problems.append(f"{workload} trace={trace}: {[(p.cmd, p.error) for p in bad]}")
            if trace and [p.digest for p in r.traced[0]] != [p.digest for p in r.passes[0]]:
                problems.append(f"{workload}: traced outputs differ from untraced outputs")
    r = Runner("overlap_bootstrap", DEFAULT_SEED, True, None)
    steps = workload_steps("overlap_bootstrap", DEFAULT_SEED, tiny=True)
    failing = steps + [Step("overlap", ("--input", "missing.csv"), oracles.check_overlap)]
    if all(p.ok for p in r.run_pass(False, failing)):
        problems.append("a nonzero exit was not counted as a failure")
    r = Runner("overlap_bootstrap", DEFAULT_SEED, True, ["0" * 64] * len(steps))
    if all(p.ok for p in r.run_pass(False)):
        problems.append("a wrong reference digest was not counted as a failure")
    # A fast wrong answer: the curve kept, every bootstrap error set to zero.
    summary = OUT / "overlap_bootstrap" / f"pass{r.count:03d}" / "overlap_summary.json"
    doc = json.loads(summary.read_text(encoding="utf-8"))
    doc["results"]["std_errors"] = [0.0] * len(doc["results"]["std_errors"])
    summary.write_text(json.dumps(doc), encoding="utf-8")
    try:
        oracles.check_overlap(summary.parent)
        problems.append("zeroed bootstrap errors passed their oracle")
    except oracles.OracleError:
        pass
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    if not problems:
        print("self-check ok: metrics complete, failures counted, tracing leaves outputs unchanged")
    return 1 if problems else 0


def record_digests() -> int:
    """Record the output digests of one full-size pass per workload at the default seed."""
    warm_up(time.perf_counter() + RUN_LIMIT_S)
    book = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        r = Runner(workload, DEFAULT_SEED, False, None)
        procs = r.run_pass(False)
        bad = [(p.cmd, p.error) for p in procs if not p.ok]
        if bad:
            print(f"{workload}: {bad}", file=sys.stderr)
            return 1
        book["workloads"][workload] = [p.digest for p in procs]
    DIGESTS.write_text(json.dumps(book, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "emitternet" / "__init__.py").is_file():
        print(f"error: no emitternet sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    trace = bool(args.trace)
    runner, metrics = measure(
        args.workload, args.seed, args.seconds, trace,
        expected=expected_digests(args.workload, args.seed),
    )
    result = report(args.workload, args.seed, trace, runner, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
