"""groupk benchmark: cold CLI ops on three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, one table

Each op is one in-process call to groupk.cli.run(argv, out, err), made as the
`groupk` command would make it, after clearing the homology cache so every op
starts cold.  Ops run one after another (closed loop, one client, one
thread).  Every output is checked against perfbench/oracle.py.

--trace 0 prints the end-to-end metrics; --trace 1 runs a traced pass that
wraps each layer from outside (perfbench/spans.py) and prints the per-layer
metrics.  The last line of stdout is the result JSON; a full report (argv
list, per-op times and outcomes, environment) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")

SETUP_REPEATS = 11  # setup_s is the median; one set-up takes about 15 ms
OP_DEADLINE_S = 30.0  # one op; the heaviest op in groupk 0.1.0 takes ~8 s
RUN_BUDGET_S = 150.0  # all ops of a run; later ops count as timeouts
OVERHEAD_SAMPLE_EVERY = 4  # traced run: every 4th op also runs untraced
PERCENTILES = (99.9, 99, 95, 90, 75, 50)

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MB"}


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op that passed its deadline."""


class _Deadline:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def arm(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


# --- setup ------------------------------------------------------------------

def _import_groupk():
    """Import groupk from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "groupk" or m.startswith("groupk.")]:
        del sys.modules[name]
    import groupk.cli  # noqa: F401
    import groupk.homology  # noqa: F401
    import groupk.intlinalg  # noqa: F401

    mod = sys.modules["groupk"]
    if Path(mod.__file__).resolve().parent != SRC / "groupk":
        raise RuntimeError(f"imported groupk from {mod.__file__}, not {SRC}")
    return {name: m for name, m in sys.modules.items() if name.startswith("groupk")}


def setup(workload: str, seed: int):
    """Import groupk and build the op list; timed SETUP_REPEATS times."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        modules = _import_groupk()
        ops = workloads.generate(workload, seed)
        times.append(time.perf_counter() - t0)
    return modules, ops, times


# --- running ops -------------------------------------------------------------

class Runner:
    def __init__(self, modules, deadline: _Deadline, budget_end: float):
        self.cli = modules["groupk.cli"]
        self.clear_cache = modules["groupk.homology"].clear_homology_cache
        self.deadline = deadline
        self.budget_end = budget_end

    def call(self, argv):
        """Run one op cold; returns (seconds, rc, stdout, stderr, kind)."""
        self.clear_cache()
        limit = min(OP_DEADLINE_S, self.budget_end - time.perf_counter())
        if limit <= 0:
            return 0.0, None, "", "run budget exhausted before the op", "timeout"
        out, err = io.StringIO(), io.StringIO()
        rc, kind, detail = None, None, ""
        t1 = None
        t0 = time.perf_counter()
        self.deadline.arm(limit)
        try:
            try:
                rc = self.cli.run(argv, out, err)
            finally:
                t1 = time.perf_counter()
                self.deadline.disarm()
        except OpTimeout:
            kind, detail = "timeout", f"no result after {limit:.1f} s"
        except (Exception, SystemExit):
            kind, detail = "traceback", traceback.format_exc(limit=-3)
        if t1 is None:
            t1 = time.perf_counter()
        return t1 - t0, rc, out.getvalue(), err.getvalue() + detail, kind


def classify(op, want, rc, stdout, stderr, kind):
    """(outcome, detail): outcome is "ok" or a failure kind."""
    import oracle

    if kind:
        return kind, stderr.strip()[-300:]
    if rc == 1 and stderr.startswith("error:"):
        return "groupk_error", stderr.strip()[:300]
    if rc not in (0, 2) or (rc == 2 and want["rc"] != 2):
        return "exit_code", f"exit code {rc}, expected {want['rc']}"
    problem = oracle.check(op, want, rc, stdout)
    return ("wrong_answer", problem) if problem else ("ok", "")


def run_pass(runner, ops, indices, recorder=None):
    """Run the ops at `indices` once; returns {index: (seconds, rc, out, err, kind)}."""
    results = {}
    for i in indices:
        if recorder:
            recorder.begin_op(i)
        results[i] = runner.call(ops[i].argv)
        if recorder:
            recorder.end_op()
    return results


# --- metrics -----------------------------------------------------------------

def tail(samples):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    for p in PERCENTILES:
        k = math.ceil(p / 100 * len(xs))
        if len(xs) - k >= 10:
            return p, xs[k - 1]
    return 50, statistics.median(xs)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "src_sha256": src_digest(), "src_lines": src_line_count(),
        "loop": "closed, 1 client, 1 thread", "op_deadline_s": OP_DEADLINE_S,
    }


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (result line dict, report dict)."""
    import oracle

    modules, ops, setup_times = setup(workload, seed)
    wants = [oracle.expected(op) for op in ops]
    deadline = _Deadline()
    run_start = time.perf_counter()
    runner = Runner(modules, deadline, run_start + RUN_BUDGET_S)
    everything = range(len(ops))
    report = {"env": environment(workload, seed, seconds, trace),
              "argv": [op.argv for op in ops], "bands": [op.band for op in ops]}

    if not trace:
        passes, pass_times = [], []
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(runner, ops, everything))
            pass_times.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - run_start
            if elapsed + pass_times[-1] > seconds or elapsed > RUN_BUDGET_S:
                break
        per_op = [statistics.median(p[i][0] for p in passes) for i in everything]
    else:
        import spans

        # Every 4th op also runs untraced, right before or right after its
        # traced run (alternating), so warm-up favours neither side.
        sample = set(everything[::OVERHEAD_SAMPLE_EVERY])
        plain, traced, pass_times = {}, {}, [0.0]
        recorder = spans.Recorder()
        for i in everything:
            untraced_first = i in sample and (i // OVERHEAD_SAMPLE_EVERY) % 2 == 0
            if untraced_first:
                plain.update(run_pass(runner, ops, [i]))
            recorder.install(modules)
            try:
                t0 = time.perf_counter()
                traced.update(run_pass(runner, ops, [i], recorder))
                pass_times[0] += time.perf_counter() - t0
            finally:
                recorder.remove()
            if i in sample and not untraced_first:
                plain.update(run_pass(runner, ops, [i]))
        passes = [plain, traced]
        per_op = [traced[i][0] for i in everything]

    # every op run is checked, in every pass
    outcomes = [(i, classify(ops[i], wants[i], *res[1:])) for p in passes for i, res in p.items()]
    failures = [(i, kind, detail) for i, (kind, detail) in outcomes if kind != "ok"]
    breakdown = {}
    for _, kind, _ in failures:
        breakdown[kind] = breakdown.get(kind, 0) + 1
    shown = {}  # per op: its failure if any pass failed, else "ok"
    for i, (kind, detail) in outcomes:
        if i not in shown or kind != "ok":
            shown[i] = (kind, detail)
    pct, tail_value = tail(per_op)
    report.update(
        ops=[{"i": i, "argv": ops[i].argv, "seconds": per_op[i], "rc": passes[-1][i][1],
              "outcome": shown[i][0], "detail": shown[i][1]} for i in everything],
        attempted=len(outcomes), failed=len(failures),
        fail_ratio=len(failures) / len(outcomes), fail_breakdown=breakdown,
        failures=[{"i": i, "outcome": kind, "detail": detail} for i, kind, detail in failures],
        op_tail={"percentile": pct, "samples": len(per_op),
                 "beyond": sum(1 for t in per_op if t > tail_value)},
        passes=len(pass_times), pass_seconds=pass_times, setup_runs_s=setup_times,
    )

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(pass_times),
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        metrics = recorder.layer_metrics()
        with_spans = sum(traced[i][0] for i in sample)
        without = sum(plain[i][0] for i in sample)
        metrics["trace.overhead_ratio"] = with_spans / without if without else 1.0
        sums = recorder.op_self_sums()
        worst = max(abs(sums.get(i, 0.0) - per_op[i]) - 0.05 * per_op[i] - 0.005
                    for i in everything)
        if worst > 0:
            raise RuntimeError(f"layer self times miss an op's duration by {worst:.4f} s")
        report["trace"] = {"spans": len(recorder.spans), "overhead_sample": sorted(sample)}
        spans_path = OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"
        recorder.write(spans_path)
        report["trace"]["spans_file"] = spans_path.as_posix()
        units = {name: _unit(name) for name in metrics}
    report["metrics"] = metrics
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def _print_summary(workload, result, report, stream):
    env = report["env"]
    print(f"== {workload} seed={env['seed']} trace={env['trace']} ops={result['attempted']} "
          f"failed={result['failed']} fail_ratio={report['fail_ratio']:.4f} "
          f"breakdown={report['fail_breakdown']}", file=stream)
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_s":
            t = report["op_tail"]
            note = f"  (p{t['percentile']:g} of {t['samples']} ops, {t['beyond']} beyond)"
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}{note}", file=stream)
    for entry in report["failures"][:20]:
        argv = " ".join(report["argv"][entry["i"]])
        print(f"  FAIL op {entry['i']} {entry['outcome']}: {argv}: {entry['detail'][:200]}",
              file=stream)


def run_all(seed, seconds, trace):
    """Each workload in its own process (own peak RSS), one table at the end."""
    import workloads

    lines = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        lines.append((name, result))
    print(f"{'workload':16s} {'metric':38s} {'value':>14s} unit")
    for name, result in lines:
        print(f"{name:16s} {'fail_ratio':38s} {result['failed'] / result['attempted']:>14.6g} "
              f"ratio  ({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:38s} {m['value']:>14.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="certify-ladder, homology-deep, "
                    "e2page-bigq, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "groupk" / "__init__.py").is_file():
        print(f"error: no groupk sources under {SRC}", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS + ("all",):
        ap.error(f"unknown workload {args.workload!r}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    _print_summary(args.workload, result, report, sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
