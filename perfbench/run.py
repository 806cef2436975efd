"""superhilb benchmark: three exact-algebra workloads with checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload atlas-cocycle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process runs one workload in whole rounds until --seconds are used up;
its `python -m superhilb` commands run one at a time, and no threads are
started.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced round, and the spans go to perfbench/traces/.
The program is imported from src/ next to this directory.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 11  # set-ups per run; setup_s is their median
CLI_TIMEOUT_S = 120
STOP_AFTER_S = 140  # no new round starts past this, to exit within 180 s
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("max_op_s", "s"),
              ("cli_s", "s"), ("peak_rss_mib", "MiB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_setup(cls, seed):
    """Import superhilb anew and build the workload's inputs."""
    for name in [n for n in sys.modules
                 if n == "superhilb" or n.startswith("superhilb.")]:
        del sys.modules[name]
    sh = importlib.import_module("superhilb")
    importlib.import_module("superhilb.cli")
    return cls(sh, seed)


class Runner:
    """Runs rounds of one workload and keeps the tally of operations."""

    def __init__(self, wl, seed, tracer):
        self.wl = wl
        self.tracer = tracer
        self.order = random.Random(f"order-{seed}")
        self.perms = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems = []  # wrong answers and unexpected failures
        self.faults = {}  # operation -> (known fault, what was seen)
        self.mended = set()  # operations whose known fault no longer shows
        self.fingerprints = None
        self.plain_times = {}  # traced round: each operation run untraced

    def _ordered(self, idx, phase):
        perm = self.perms.get(idx)
        if perm is None:
            perm = self.perms[idx] = list(range(len(phase)))
            self.order.shuffle(perm)
        return [phase[i] for i in perm]

    def round(self, traced):
        """One round; returns ({operation: seconds}, {command: seconds})."""
        wl = self.wl
        wl.fingerprints = {}
        op_times = {}
        for idx, phase in enumerate(wl.phases()):
            for op in self._ordered(idx, phase):
                if traced:
                    # the same operation untraced, just before, for the
                    # tracing overhead; its outcome is settled traced
                    t0 = perf_counter()
                    try:
                        op.run()
                    except Exception:  # settled by the traced run below
                        pass
                    self.plain_times[op.name] = perf_counter() - t0
                t0 = perf_counter()
                try:
                    value = (self.tracer.call("op:" + op.name, op.run)
                             if traced else op.run())
                    error = None
                except Exception as exc:  # a program fault fails the operation
                    value, error = None, f"{type(exc).__name__}: {exc}"[:300]
                op_times[op.name] = perf_counter() - t0
                self._settle(op, error, lambda: op.check(value))
        cli_times = {}
        for cmd in wl.cli():
            t0 = perf_counter()
            code, out, err = self._cli(cmd, traced)
            cli_times[cmd.name] = perf_counter() - t0
            error = None
            if code != 0:
                last = err.strip().splitlines()[-1:] or [""]
                error = f"exit code {code}: {last[0][:300]}"
            self._settle(cmd, error, lambda: cmd.check(out))
        if self.fingerprints is None:
            self.fingerprints = wl.fingerprints
        elif wl.fingerprints != self.fingerprints:
            self.problems.append("outputs differ between rounds")
        return op_times, cli_times

    def _cli(self, cmd, traced):
        if traced:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.tracer.call(
                        "op:cli " + cmd.name,
                        lambda: self.wl.sh.cli.main(list(cmd.argv)))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # the CLI would exit 1 here
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    code = 1
            return code, out.getvalue(), err.getvalue()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "superhilb", *cmd.argv], cwd=ROOT,
                env=self.env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, "", f"timed out after {CLI_TIMEOUT_S} s"
        return proc.returncode, proc.stdout, proc.stderr

    def _settle(self, op, error, check):
        self.attempted += 1
        issues = [error] if error else None
        if issues is None:
            try:
                issues = check()
            except Exception as exc:  # output not in the expected form
                issues = [f"check raised {type(exc).__name__}: {exc}"[:300]]
        if not issues:
            if op.fault:
                self.mended.add(op.name)
            return
        self.failed += 1
        if op.fault:
            self.faults[op.name] = (op.fault, issues[0])
        else:
            self.problems += [f"{op.name}: {issue}" for issue in issues]


def run_workload(args):
    if not (SRC / "superhilb" / "__init__.py").is_file():
        print(f"error: no superhilb package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        wl = fresh_setup(cls, args.seed)
        setup_times.append(perf_counter() - t0)
    if Path(wl.sh.__file__).resolve().parent != (SRC / "superhilb").resolve():
        print(f"error: superhilb imported from {wl.sh.__file__}",
              file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    runner = Runner(wl, args.seed, tracer)
    rounds = []  # untraced ({operation: s}, {command: s})
    layer_rounds = []  # traced (per-layer metrics, overhead s)
    start = perf_counter()
    while True:
        if tracer:
            tracer.install()
            try:
                op_times, _ = runner.round(traced=True)
            finally:
                tracer.uninstall()
            overhead = (sum(op_times.values())
                        - sum(runner.plain_times.values()))
            layer_rounds.append((tracer.take_round(), overhead))
        else:
            rounds.append(runner.round(traced=False))
        # start another round only if it should end within --seconds
        n = len(rounds) + len(layer_rounds)
        elapsed = perf_counter() - start
        if elapsed * (n + 1) / n > min(args.seconds, STOP_AFTER_S):
            break

    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    for label, check in runner.wl.deferred.items():
        try:
            issues = check()
        except Exception as exc:  # output not in the expected form
            issues = [f"check raised {type(exc).__name__}: {exc}"[:300]]
        runner.problems += [f"{label}: {issue}" for issue in issues]
    for i, (t, c) in enumerate(rounds):
        print(f"round {i}: operations {sum(t.values()):.3f} s, "
              f"CLI {sum(c.values()):.3f} s")
    for i, (_, overhead) in enumerate(layer_rounds):
        print(f"traced round {i}: tracing overhead {overhead:.3f} s")
    if tracer:
        metrics = per_layer_metrics(layer_rounds)
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        print(f"spans: {len(tracer.closed)} written to "
              f"{path.relative_to(ROOT)}")
    else:
        per_op = {name: statistics.median(t[name] for t, _ in rounds)
                  for name in rounds[0][0]}
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(sum(t.values()) for t, _ in rounds),
            "max_op_s": max(per_op.values()),
            "cli_s": statistics.median(sum(c.values()) for _, c in rounds),
            "peak_rss_mib": rss_kib / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        slowest = max(per_op, key=per_op.get)
        print(f"slowest operation: {slowest} ({per_op[slowest]:.3f} s)")
    report(args, runner, len(rounds) + len(layer_rounds), metrics)
    return 0


def per_layer_metrics(layer_rounds):
    """Time metrics are medians over traced rounds; counts come from the
    first traced round (they repeat exactly)."""
    out = {}
    for name, unit in spans.per_layer_metric_names():
        if name == "trace.overhead_s":
            value = statistics.median(r for _, r in layer_rounds)
        elif unit == "count":
            value = layer_rounds[0][0][name]
        else:
            value = statistics.median(m[name] for m, _ in layer_rounds)
        out[name] = {"value": value, "unit": unit}
    return out


def report(args, runner, n_rounds, metrics):
    print(f"workload {args.workload}, seed {args.seed}: {n_rounds} rounds, "
          f"{runner.attempted} operations attempted, {runner.failed} failed")
    for name, (fault, seen) in sorted(runner.faults.items()):
        print(f"known fault: {name}: {fault} [seen: {seen[:160]}]")
    for name in sorted(runner.mended):
        print(f"known fault no longer shows: {name}")
    for problem in runner.problems[:50]:
        print(f"PROBLEM: {problem}")
    for label, digest in sorted((runner.fingerprints or {}).items()):
        print(f"fingerprint {label} {digest}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


def run_all(args):
    """Every workload, each in its own process, one after the other."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:34s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
