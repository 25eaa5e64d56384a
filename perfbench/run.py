"""Benchmark of the three buildingflow counting routes.

    python3 perfbench/run.py --workload oracle-q2 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it measures the package under
``src/`` of the checkout that holds this file, never an installed copy.

Load model: a closed loop.  Every command runs as a fresh
``python -m buildingflow ... --threads 1`` process, cold
``edge_transitions`` cache included.  Passes over the workload's
commands repeat while another pass fits in ``--seconds``; the seed
permutes the command order inside each pass and picks which side of
the first pair starts first (the inputs themselves are fixed).  Every
output is checked after its process ends, outside the timed window.

Side-by-side pairs: on a shared host one CPU's speed swings by 1.5x
and more, for a second or for minutes at a time, so seconds measured
even a few seconds apart differ by more than most changes a benchmark
should catch.  The benchmark and its children are therefore pinned to
one CPU, and in a ``--trace 0`` pass each command runs from the
checkout's ``src/`` and, at the same moment on the same CPU, from
``baseline/``, a frozen copy of the package as it stood when this
benchmark was written.  The kernel time-slices the two every few
milliseconds, so both see the same host speed throughout, and the ratio
of their CPU seconds keeps the program's own cost.  A side that
finishes first starts again, so that neither ever runs alone (see
``Runner.pair``).

``--trace 0`` reports the end-to-end metrics: setup_s (median over all
timed fresh-interpreter ``import buildingflow`` runs, made alone between
pairs); cpu_vs_base (median over passes of a pass's CPU seconds from
the checkout divided by those from the baseline); peak_rss_mb (median
over passes of the largest max-RSS of a checkout process).  Raw
side-by-side CPU seconds are printed as comment lines.  failed_ratio is
printed and carried by the ``failed``/``attempted`` fields.
``--trace 1`` alternates plain and traced passes, each command alone
(see tracer.py), and reports the per-layer metrics, with
trace_overhead = traced wall / plain wall - 1.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  With no result it exits 2 when the checkout has no importable
``src/buildingflow``, 3 when the baseline gives a wrong answer and 4
when a command is still running at the run's time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: The package as it stood when this benchmark was written; never edited.
BASELINE = HERE / "baseline"

#: The whole run, set-up included, ends before the 180 s a run may take.
RUN_LIMIT_S = 170.0
#: Fresh-interpreter imports timed before each side-by-side pair and after
#: the last, so that the samples of setup_s spread over the whole run.
IMPORTS_PER_GAP = 5


class Command(NamedTuple):
    label: str
    args: tuple[str, ...]
    check: Callable[[bytes], bool]


def _count(label: str, cmd: str, q: int, steps: int, kind: str) -> Command:
    return Command(label, tuple(cmd.split()), lambda out: checks.count_table_ok(out, q, steps, kind))


def _digest(label: str, cmd: str, sha256: str) -> Command:
    return Command(label, tuple(cmd.split()), lambda out: checks.digest_ok(out, sha256))


# Why each workload: oracle-q2 is the exhaustive building walk on the q = 2
# field path (355,071 nodes); validate-q3 is the same walk on the general
# table path plus every DP and closed-form check, the bypass for q = 2-only
# changes; dp-n120 barely touches the building: per-n DP re-sweeps (g, f)
# and one profile sweep with 3,200-bit counts and a 1.85 MB decimal emit.
# The validate report and the kind-N table are the seed's stdout, by digest.
WORKLOADS = {
    "oracle-q2": [
        _count(
            "oracle-g",
            "count --flow pgl3 --method oracle --kind g --q 2 --steps 9 --threads 1",
            2, 9, "g",
        ),
    ],
    "validate-q3": [
        _digest(
            "validate",
            "validate --q 3 --steps 3 --m-max 5 --threads 1",
            "70d0e89a4de4b5093be3999d3a75c0f5a57f56d3023d77512eb8608fe0a77c9c",
        ),
    ],
    "dp-n120": [
        _count("dp-g", "count --method dp --kind g --q 2 --steps 120 --threads 1", 2, 120, "g"),
        _count("dp-f", "count --method dp --kind f --q 2 --steps 120 --threads 1", 2, 120, "f"),
        _digest(
            "dp-N",
            "count --method dp --kind N --q 9973 --steps 120 --threads 1",
            "c895803b26d3b7e9a71b7ae1147cc3f8afac2ede551ecf6fea37851564053f46",
        ),
    ],
}

END_TO_END = {"setup_s": "s", "cpu_vs_base": "ratio", "peak_rss_mb": "MB"}

MODULES = ("cli", "crosscheck", "building", "shift", "analysis", "algebra")
#: Functions reported one by one (time and calls); the rest count per module.
FUNCTIONS = (
    "cli.main",
    "crosscheck.run_validation",
    "building.oracle_g_f",
    "building.oracle_transition_census",
    "shift.dp_g",
    "shift.dp_f",
    "shift.dp_profiles",
    "shift.build_graph",
    "shift.three_step_coefficients",
    "algebra.FiniteField",
)
DP_FUNCTIONS = ("shift.dp_g", "shift.dp_f", "shift.dp_profiles")

PER_LAYER = {
    **{f"{m}.{k}": u for m in MODULES for k, u in
       (("s", "s"), ("self_s", "s"), ("calls", "count"), ("share", "ratio"))},
    **{f"{f}.{k}": u for f in FUNCTIONS for k, u in (("s", "s"), ("calls", "count"))},
    "building.oracle.nodes": "count",
    "building.oracle.us_per_node": "us",
    "shift.dp.edge_steps": "count",
    "shift.dp.ns_per_edge_step": "ns",
    "shift.dp.resweep_ratio": "ratio",
    "shift.edge_transitions.hits": "count",
    "shift.edge_transitions.misses": "count",
    "shift.edge_transitions.hit_ratio": "ratio",
    "crosscheck.checks_failed": "count",
    "crosscheck.checks_skipped": "count",
    "cli.stdout_bytes": "bytes",
    "import_s": "s",
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
}

_VALIDATE_SUMMARY = re.compile(rb"(\d+) checks, (\d+) passed, (\d+) skipped, (\d+) failed")


class Outcome(NamedTuple):
    label: str
    wall: float
    cpu: float
    rss_mb: float
    ok: bool
    stdout: bytes
    trace: dict | None


class Runner:
    """Starts children, waits for them and keeps their rusage.  On every
    way out of ``_wait`` each child it started has ended and been reaped."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self._started = 0
        # Children run as a user's shell would start them: no inherited
        # PYTHON* settings (unbuffered stdout, no bytecode cache, a cache
        # prefix outside the checkout), only the checkout's sources (or
        # the baseline's).
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
        self.env = {**env, "PYTHONPATH": str(SRC)}
        self.base_env = {**env, "PYTHONPATH": str(BASELINE)}

    def _start(self, argv: list[str], base: bool) -> tuple:
        self._started += 1
        out = self.workdir / f"stdout{self._started}"
        err = self.workdir / f"stderr{self._started}"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, cwd=ROOT,
                env=self.base_env if base else self.env,
            )
        return proc, os.pidfd_open(proc.pid), t0, out, err

    def _wait(self, running: dict, on_exit: Callable[[object, tuple], bool]) -> None:
        """Reap the children in ``running`` (pidfd -> (key, child)) as they
        end, handing each one's key and (wall, CPU seconds, max RSS in MB,
        exit code, stdout, stderr) to ``on_exit``, which may add children
        to ``running`` and returns True to stop waiting.  Children still
        running at a stop, or at the run's deadline, are killed unrecorded."""
        try:
            stop = False
            while running and not stop:
                timeout = max(1.0, self.deadline - time.perf_counter())
                ready = select.select(list(running), [], [], timeout)[0]
                if not ready:
                    break
                for fd in ready:
                    key, (proc, _, t0, out, err) = running.pop(fd)
                    _, status, usage = os.wait4(proc.pid, 0)
                    os.close(fd)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    result = (time.perf_counter() - t0, usage.ru_utime + usage.ru_stime,
                              usage.ru_maxrss / 1024.0, proc.returncode, out.read_bytes(), err.read_bytes())
                    stop = on_exit(key, result) or stop
        finally:
            for _, (proc, fd, _, _, _) in running.values():
                proc.kill()
                os.waitpid(proc.pid, 0)
                proc.returncode = -9
                os.close(fd)
            running.clear()

    def spawn(self, argv: list[str], base: bool = False) -> tuple | None:
        """One child, alone; None if the deadline killed it."""
        got = []
        child = self._start(argv, base)
        self._wait({child[1]: (None, child)}, lambda _, result: got.append(result))
        return got[0] if got else None

    def python(self, *args: str, base: bool = False) -> tuple[float, int, bytes]:
        result = self.spawn([sys.executable, *args], base)
        if result is None:
            return float("nan"), -9, b""
        wall, _, _, code, out, _ = result
        return wall, code, out

    def _argv(self, cmd: Command, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "tracer.py"), str(self.workdir / "spans.json"), *cmd.args]
        return [sys.executable, "-m", "buildingflow", *cmd.args]

    def _outcome(self, cmd: Command, result: tuple | None, base: bool = False, traced: bool = False) -> Outcome:
        wall, cpu, rss, code, out, err = result or (float("nan"), float("nan"), 0.0, -9, b"", b"killed")
        ok = code == 0 and cmd.check(out)
        if not ok:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            side = " (baseline)" if base else ""
            print(f"FAILED {cmd.label}{side}: exit {code}; {' | '.join(tail)}", file=sys.stderr)
        spans = self.workdir / "spans.json"
        trace = json.loads(spans.read_text()) if traced and spans.exists() else None
        if traced:
            spans.unlink(missing_ok=True)
        return Outcome(cmd.label, wall, cpu, rss, ok, out, trace)

    def command(self, cmd: Command, traced: bool = False) -> Outcome:
        """One run of ``cmd`` from the checkout, alone."""
        return self._outcome(cmd, self.spawn(self._argv(cmd, traced)), traced=traced)

    def pair(self, cmd: Command, base_first: bool) -> tuple[list[Outcome], list[Outcome]]:
        """``cmd`` from the checkout and from the baseline side by side, on
        the one CPU the benchmark is pinned to, so that both share the
        host's speed of the moment.  A side that finishes first starts
        again, so that the other never runs alone; the pair ends when
        both sides have finished a run, and a run still going then is
        killed and not counted.  Gives the finished runs (checkout,
        baseline); a side is empty if the deadline came first."""
        argv = self._argv(cmd, False)
        done: dict[bool, list[Outcome]] = {False: [], True: []}
        running: dict = {}

        def start(base: bool) -> None:
            child = self._start(argv, base)
            running[child[1]] = (base, child)

        def on_exit(base: bool, result: tuple) -> bool:
            done[base].append(self._outcome(cmd, result, base))
            if done[False] and done[True]:
                return True
            start(base)
            return False

        for base in (True, False) if base_first else (False, True):
            start(base)
        self._wait(running, on_exit)
        return done[False], done[True]


# ---------------------------------------------------------------------------
# per-layer figures from spans
# ---------------------------------------------------------------------------


def span_figures(spans: list) -> dict[str, float]:
    """Times and calls per module and per reported function.  A module's
    (function's) time counts only spans with no ancestor of the same
    module (name), so nested calls are not counted twice; self time is a
    span's duration minus its direct children's."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    out: dict[str, float] = defaultdict(float)
    for i, (name, _, _, parent, _) in enumerate(spans):
        mod = name.split(".")[0]
        ancestors = []
        while parent >= 0:
            ancestors.append(spans[parent][0])
            parent = spans[parent][3]
        out[f"{mod}.calls"] += 1
        out[f"{mod}.self_s"] += dur[i] - child[i]
        if all(a.split(".")[0] != mod for a in ancestors):
            out[f"{mod}.s"] += dur[i]
        if name in FUNCTIONS:
            out[f"{name}.calls"] += 1
            if name not in ancestors:
                out[f"{name}.s"] += dur[i]
    return out


def dp_calls(spans: list) -> list[tuple[str, int, int]]:
    return [(s[0].split(".")[1], *s[4][:2]) for s in spans if s[0] in DP_FUNCTIONS]


def pass_layers(outcomes: list[Outcome], edge_steps: checks.EdgeSteps | None) -> dict[str, float]:
    fig: dict[str, float] = defaultdict(float)
    import_s = []
    hits = misses = one_sweep = 0
    for o in outcomes:
        spans = o.trace["spans"] if o.trace else []
        for k, v in span_figures(spans).items():
            fig[k] += v
        for name, _, _, _, args in spans:
            if name == "building.oracle_g_f":
                fig["building.oracle.nodes"] += checks.oracle_nodes(*args)
        calls = dp_calls(spans)
        if calls and edge_steps is not None:
            fig["shift.dp.edge_steps"] += sum(edge_steps.call(*c) for c in calls)
            longest: dict[tuple[int, bool], int] = {}
            for fn, q, n in calls:
                if fn == "dp_profiles" or n % 3 == 0:
                    key = (q, fn == "dp_f")
                    longest[key] = max(longest.get(key, 0), n)
            one_sweep += sum(edge_steps.sweep(q, n, t) for (q, t), n in longest.items())
        if o.trace:
            import_s.append(o.trace["import_s"])
            if o.trace["cache"]:
                hits += o.trace["cache"]["hits"]
                misses += o.trace["cache"]["misses"]
        summary = _VALIDATE_SUMMARY.search(o.stdout)
        if summary:
            fig["crosscheck.checks_skipped"] += int(summary.group(3))
            fig["crosscheck.checks_failed"] += int(summary.group(4))
        fig["cli.stdout_bytes"] += len(o.stdout)
        fig["traced_wall_s"] += o.wall
    nodes, steps = fig["building.oracle.nodes"], fig["shift.dp.edge_steps"]
    if nodes:
        fig["building.oracle.us_per_node"] = fig["building.oracle_g_f.s"] / nodes * 1e6
    if steps:
        dp_s = sum(fig[f"{f}.s"] for f in DP_FUNCTIONS)
        fig["shift.dp.ns_per_edge_step"] = dp_s / steps * 1e9
        fig["shift.dp.resweep_ratio"] = steps / one_sweep
    fig["shift.edge_transitions.hits"] = hits
    fig["shift.edge_transitions.misses"] = misses
    if hits + misses:
        fig["shift.edge_transitions.hit_ratio"] = hits / (hits + misses)
    if import_s:
        fig["import_s"] = statistics.median(import_s)
    for m in MODULES:
        fig[f"{m}.share"] = fig[f"{m}.s"] / fig["traced_wall_s"]
    return fig


def reference_edge_steps(runner: Runner, traced_passes: list[list[Outcome]]) -> checks.EdgeSteps | None:
    """One support sweep per q that the DP calls used, from the fold-rule
    table the ``weights`` command prints, run outside the timed passes."""
    reach: dict[int, int] = {}
    for outcomes in traced_passes:
        for o in outcomes:
            for _, q, n in dp_calls(o.trace["spans"] if o.trace else []):
                reach[q] = max(reach.get(q, 0), n)
    if not reach:
        return None
    succ_by_q = {}
    for q, n in reach.items():
        args = ("weights", "--q", str(q), "--m-max", str(max(2, n + 1)), "--format", "csv")
        _, code, out = runner.python("-m", "buildingflow", *args)
        if code != 0:
            raise RuntimeError(f"weights --q {q} exited {code}")
        succ_by_q[q] = checks.parse_weights_csv(out.decode())
    return checks.EdgeSteps(succ_by_q, max(reach.values()))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def environment(runner: Runner) -> str | None:
    """Where ``import buildingflow`` resolves in a child; None if it fails
    or resolves outside this checkout's ``src/`` (or the baseline's import
    resolves outside ``baseline/``).  The untimed imports also fill the
    bytecode caches, which users do not pay on every call."""
    probe = "import sys, buildingflow.cli; sys.stdout.write(buildingflow.__file__)"
    found = []
    for base, root in ((False, SRC), (True, BASELINE)):
        _, code, out = runner.python("-c", probe, base=base)
        path = Path(out.decode()).resolve() if code == 0 else None
        if path is None or root.resolve() not in path.parents:
            return None
        found.append(path)
    return str(found[0])


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: int, trace: bool) -> int:
    start = time.perf_counter()
    cmds = WORKLOADS[workload]
    pinned = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        runner = Runner(workdir, start + RUN_LIMIT_S)
        module_file = environment(runner)
        if module_file is None:
            print(f"error: no importable buildingflow under {SRC}", file=sys.stderr)
            return 2
        print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
        print(
            f"# python={sys.version.split()[0]} nproc={os.cpu_count()} pinned_cpu={pinned} cpu={cpu_model()!r} "
            f"commit={commit_id()} buildingflow={module_file}"
        )
        setup: list[float] = []
        rng = random.Random(seed)
        plain: list[list[Outcome]] = []
        traced: list[list[Outcome]] = []
        paired: list[list[tuple[list[Outcome], list[Outcome]]]] = []
        base_first = rng.random() < 0.5
        t_measure = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            if trace:
                for is_traced in (False, True):
                    outcomes = [runner.command(c, is_traced) for c in rng.sample(cmds, len(cmds))]
                    (traced if is_traced else plain).append(outcomes)
                    print(f"# pass {len(plain) + len(traced)}{' traced' if is_traced else ''}: "
                          + " ".join(f"{o.label}={o.wall:.3f}s" for o in outcomes))
            else:
                pairs = []
                for c in rng.sample(cmds, len(cmds)):
                    setup += [runner.python("-c", "import buildingflow")[0] for _ in range(IMPORTS_PER_GAP)]
                    pairs.append(runner.pair(c, base_first))
                    base_first = not base_first
                paired.append(pairs)
                plain.append([o for mine, _ in pairs for o in mine])
                print(f"# pass {len(plain)} (CPU s, checkout/baseline): " + " ".join(
                    f"{mine[0].label}=" + ",".join(f"{o.cpu:.3f}" for o in mine) + "/"
                    + ",".join(f"{o.cpu:.3f}" for o in theirs) for mine, theirs in pairs))
            now = time.perf_counter()
            if now - t_measure + (now - t_pass) > seconds or now >= runner.deadline:
                break
        if not trace:
            setup += [runner.python("-c", "import buildingflow")[0] for _ in range(IMPORTS_PER_GAP)]
        if any(not mine or not theirs for p in paired for mine, theirs in p):
            print(f"error: a command was still running at the run's {RUN_LIMIT_S:.0f} s limit", file=sys.stderr)
            return 4
        if not all(o.ok for p in paired for _, theirs in p for o in theirs):
            print("error: the baseline package gave a wrong answer", file=sys.stderr)
            return 3

        outcomes = [o for p in plain + traced for o in p]
        attempted, failed = len(outcomes), sum(not o.ok for o in outcomes)
        print(f"failed_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} commands)")
        if trace:
            edge_steps = reference_edge_steps(runner, traced)
            layers = [pass_layers(p, edge_steps) for p in traced]
            values = {k: statistics.median(f.get(k, 0.0) for f in layers) for k in PER_LAYER}
            plain_wall = statistics.median(sum(o.wall for o in p) for p in plain)
            values["trace_overhead"] = values["traced_wall_s"] / plain_wall - 1
            units = PER_LAYER
            note = f"median of {len(traced)} traced passes"
        else:
            # A pass costs the sum over its commands of the mean CPU seconds
            # of one run, on each side.
            cpus = [sum(statistics.fmean(o.cpu for o in mine) for mine, _ in p) for p in paired]
            base_cpus = [sum(statistics.fmean(o.cpu for o in theirs) for _, theirs in p) for p in paired]
            values = {
                "setup_s": statistics.median(setup),
                "cpu_vs_base": statistics.median(c / b for c, b in zip(cpus, base_cpus)),
                "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in plain),
            }
            q = statistics.quantiles(setup, n=4)
            print(f"# raw medians, side by side: cpu_s {statistics.median(cpus):.6g} s (checkout), "
                  f"{statistics.median(base_cpus):.6g} s (baseline); setup_s min {min(setup):.6g} "
                  f"q1 {q[0]:.6g} q3 {q[2]:.6g}")
            units = END_TO_END
            note = f"median of {len(plain)} passes ({len(setup)} imports for setup_s)"
        # Too few samples per run for any percentile above the median to have
        # ten samples beyond it, so only the median and its count are given.
        print(f"# {note}")
        for name, unit in units.items():
            print(f"{name} {values[name]:.6g} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
