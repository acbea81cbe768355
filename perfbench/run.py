"""koszulalg benchmark: one entry point for every workload.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  Workloads (see workloads.py): survey,
oracle, bounds, or `all` for each in turn.  The load is a closed loop:
one process, one thread, each op starting when the previous one has been
answered and checked.

`--trace 0` reports the end-to-end metrics, measured with tracing off.
One fresh interpreter sets up and then runs whole passes (one run of
every op of the workload) for `--seconds`; further fresh interpreters,
before and after it, only set up, so that set-up is timed several times:
  wall_s       wall time of a pass, averaged over the run: the passes' time
               from first op to last checked answer, over their number
  op_p50_ms    median op latency over all ops of the run
  setup_s      median over SETUPS[workload] fresh interpreters of: import
               koszulalg, build the workload's inputs, first-use lazy
               set-up
  peak_rss_mb  ru_maxrss of the interpreter that ran the passes
and the failed share of ops (raised, exited non-zero, or wrong answer).
`--trace 1` runs the same passes untraced and then traced, and reports
the per-layer metrics of tracing.py plus trace.overhead_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details, the environment and
the traced spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("survey", "oracle", "bounds")
# fresh interpreters that time set-up in an untraced run, the measuring
# one included; oracle's set-up takes about 6 s, the others' under 0.5 s
SETUPS = {"survey": 9, "oracle": 3, "bounds": 5}
RUN_LIMIT_S = 170  # every run, set-up included, must end within 180 s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=34)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "koszulalg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no koszulalg sources under {SRC}\n")
        return 2
    if args.child:
        return child(args)
    OUT.mkdir(exist_ok=True)
    # users run from compiled modules; compile once so no timed import does
    compileall.compile_dir(str(SRC / "koszulalg"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        code = max(code, orchestrate(name, args))
    return code


# ---------------------------------------------------------------------------
# the measuring process: set-up, then the closed loop
# ---------------------------------------------------------------------------


def child(args):
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import koszulalg

    if not Path(koszulalg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported koszulalg from {koszulalg.__file__}, not {SRC}")
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(koszulalg)
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]()
    workdir = OUT / "inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    workload.setup(args.seed, workdir, workloads.load_expected(args.workload))
    result = {"setup_s": time.perf_counter() - t0}
    if tracer is None:
        if args.seconds > 0:  # 0: a set-up-only interpreter
            result.update(run_passes(workload, seconds=args.seconds))
    else:
        tracer.uninstall()
        plain = run_passes(workload, seconds=args.seconds / 2)
        setup_root_s = tracer.root_s
        tracer.install()
        traced = run_passes(workload, passes=len(plain["pass_s"]), tracer=tracer)
        tracer.uninstall()
        result.update(traced_report(tracer, plain, traced, setup_root_s, args))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def run_passes(workload, seconds=None, passes=None, tracer=None):
    """Closed loop over whole passes: exactly `passes` passes, or one pass
    and then more while the next is expected to end within `seconds`.
    Answer checks run with the tracer paused, so that only the op's own
    calls count as workload layers."""
    pass_s, latencies, labels, problems = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while k < passes if passes is not None else (
        k == 0 or time.perf_counter() - start + statistics.fmean(pass_s) <= seconds
    ):
        ops = workload.ops(k)
        t_pass = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            labels.append(op.label)
            t = time.perf_counter()
            try:
                answer = op.run()
            except Exception:  # an op that raises is a failed op; keep going
                latencies.append(time.perf_counter() - t)
                failed += 1
                problems.append(f"{op.label}: {traceback.format_exc(limit=3)}")
                continue
            latencies.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.paused = True
            try:
                _, wrong = op.check(answer)
            except Exception:  # a malformed answer is a wrong answer
                wrong = [traceback.format_exc(limit=3)]
            finally:
                if tracer is not None:
                    tracer.paused = False
            if wrong:
                failed += 1
                problems.append(f"{op.label}: " + "; ".join(wrong))
        pass_s.append(time.perf_counter() - t_pass)
        k += 1
    if tracer is not None:
        tracer.op = -1
    return {
        "pass_s": pass_s,
        "ops_per_pass": len(latencies) // max(1, len(pass_s)),
        "latencies_s": latencies,
        "labels": labels,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    }


def traced_report(tracer, plain, traced, setup_root_s, args):
    wall_plain = statistics.fmean(plain["pass_s"])
    wall_traced = statistics.fmean(traced["pass_s"])
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    if list(metrics) != tracing.per_layer_names():
        raise RuntimeError("traced metrics differ from tracing.per_layer_names()")
    traced_wall = sum(traced["pass_s"])
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", traced["labels"])
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": plain["problems"] + traced["problems"],
        "passes": len(traced["pass_s"]),
        "ops_per_pass": traced["ops_per_pass"],
        "wall_untraced_s": wall_plain,
        "wall_traced_s": wall_traced,
        "per_layer": metrics,
        "table": tracer.table(),
        # the self times of all spans add up to the time covered by root
        # spans; the rest of the traced passes is benchmark code between them
        "self_sum_s": tracer.self_total(),
        "root_sum_s": tracer.root_s,
        "setup_root_s": setup_root_s,
        "traced_passes_s": traced_wall,
        "spans": len(tracer.spans),
    }


# ---------------------------------------------------------------------------
# the parent: spawn children, aggregate, print
# ---------------------------------------------------------------------------


def spawn(name, args, deadline, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        raise TimeoutError("no time left for a measuring process")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def orchestrate(name, args):
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        # set-up-only interpreters run half before and half after the
        # passes, so that set-up is timed at both ends of the run
        extra = 0 if args.trace else SETUPS[name] - 1
        setups = [spawn(name, args, deadline, 0)["setup_s"] for _ in range(extra // 2)]
        measured = spawn(name, args, deadline, args.seconds)
        setups.append(measured["setup_s"])
        setups += [spawn(name, args, deadline, 0)["setup_s"] for _ in range(extra - extra // 2)]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {name}: {exc}\n")
        return 1
    env = environment()
    for problem in measured["problems"]:
        sys.stderr.write(f"FAILED {problem}\n")
    attempted, failed = measured["attempted"], measured["failed"]
    report = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    print(f"# {name}  seed {args.seed}  {env['python']} ({env['interpreter']})  "
          f"nproc {env['nproc']}  git {env['git_sha']}  src {env['src_sha256'][:16]}")
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                   for k, v in measured["per_layer"].items()}
        print_trace(measured)
        report.update({k: measured[k] for k in (
            "passes", "ops_per_pass", "wall_untraced_s", "wall_traced_s", "table",
            "self_sum_s", "root_sum_s", "setup_root_s", "traced_passes_s", "spans")})
    else:
        lat = measured["latencies_s"]
        metrics = {
            # a mean over the run's passes: the host's speed drifts over
            # tens of seconds, and a median follows whichever speed held
            # for most passes, while the mean weighs each by its time
            "wall_s": {"value": statistics.fmean(measured["pass_s"]), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
        counts = {
            "wall_s": f"mean of {len(measured['pass_s'])} passes of {measured['ops_per_pass']} ops",
            "op_p50_ms": f"median of {len(lat)} ops; p90 {quantile(lat, 0.9) * 1e3:.1f} ms, "
                         f"max {max(lat) * 1e3:.1f} ms",
            "setup_s": f"median of {len(setups)} fresh processes",
            "peak_rss_mb": "the process that ran the passes",
        }
        for key, m in metrics.items():
            print(f"{key:<12} {m['value']:>12.4f} {m['unit']:<3} ({counts[key]})")
        print(f"{'fail_share':<12} {failed / attempted:>12.4f}     ({failed} of {attempted} ops)")
        report.update({"pass_s": measured["pass_s"], "setup_samples_s": setups,
                       "op_latency_quantiles_ms": {
                           q: quantile(lat, q) * 1e3 for q in (0.5, 0.9, 0.99, 1.0)},
                       "op_latency_by_kind_ms": by_kind(measured["labels"], lat)})
    report.update({"metrics": metrics, "attempted": attempted, "failed": failed,
                   "problems": measured["problems"]})
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_trace(measured):
    print(f"trace: {measured['passes']} untraced + {measured['passes']} traced passes "
          f"of {measured['ops_per_pass']} ops; wall {measured['wall_untraced_s']:.3f} s "
          f"untraced, {measured['wall_traced_s']:.3f} s traced; {measured['spans']} spans")
    print(f"{'layer':<40} {'calls':>10} {'self_s':>10} {'share':>7}")
    total = measured["self_sum_s"]
    for layer, calls, self_s in measured["table"]:
        print(f"{layer:<40} {calls:>10} {self_s:>10.4f} {self_s / total:>7.1%}")
    in_passes = measured["root_sum_s"] - measured["setup_root_s"]
    gap = measured["traced_passes_s"] - in_passes
    print(f"self times sum to {total:.4f} s; root spans cover {measured['root_sum_s']:.4f} s: "
          f"{measured['setup_root_s']:.4f} s in set-up, {in_passes:.4f} s of the "
          f"{measured['traced_passes_s']:.4f} s of traced passes "
          f"({gap:.4f} s untraced gaps in benchmark code)")
    if abs(total - measured["root_sum_s"]) > 1e-6 * total or gap < 0:
        print("WARNING: self times do not add up to the traced wall time")


def by_kind(labels, latencies):
    """Median, max and total latency per input kind (the label up to '#')."""
    kinds = {}
    for label, t in zip(labels, latencies):
        kinds.setdefault(label.split("#")[0], []).append(t * 1e3)
    return {kind: {"ops": len(v), "median": statistics.median(v), "max": max(v), "total": sum(v)}
            for kind, v in sorted(kinds.items())}


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "koszulalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "interpreter": sys.executable,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git on this machine
        return "none"
    return proc.stdout.strip() or "none"


if __name__ == "__main__":
    sys.exit(main())
