"""The repo benchmark's one command.

    python3 benchmarks/perf/run.py [--seed 7] [--workload NAME] [--quick]
                                   [--repeat-check]

runs every workload in a fresh subprocess (``PYTHONHASHSEED=0``, GC left
on): first untraced for the end-to-end metrics, then a traced run for the
per-layer metrics.  Every result is checked against an oracle; every
metric is printed by name with its unit; the numbers go to
``out/results_seed<N>.json`` and the spans to ``out/trace_<workload>.json``.

With ``--workload W --seed N --seconds S --trace 0|1`` (the form
``BENCHMARK.json`` names) it makes that one run and prints the result
object ``{"correct", "attempted", "failed", "metrics"}`` as the last line.

Exit code 0 only if every result matched the oracle (and, with
``--repeat-check``, every end-to-end metric repeated within its bound).
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

from workloads import GRAPH_SEED, process_workers

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, "bench.py")
CONTRACT = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")
#: The contract allows a run 180 s; stop the child before that.
CHILD_TIMEOUT_S = 170


def load_contract():
    with open(CONTRACT) as fh:
        return json.load(fh)


def run_child(workload, trace, args):
    """One bench.py run; returns ``(exit code, result dict or None)``."""
    cmd = [
        sys.executable, BENCH,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--graph-seed", str(args.graph_seed),
    ]
    if args.quick:
        cmd += ["--scale", "xs", "--min-passes", "2", "--setups", "1"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Own process group: a timeout must also stop the process backend's
    # forked workers, which a kill of the child alone would orphan.
    child = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"{workload}: no result within {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 124, None
    lines = stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        return child.returncode or 1, None
    return child.returncode, json.loads(lines[-1])


def host_info():
    return {
        "nproc": os.cpu_count() or 1,
        "process_workers": process_workers(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def print_metrics(title, result):
    print(f"  {title}: attempted {result['attempted']}, failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"    {name:<44} {metric['value']:>16.6g} {metric['unit']}")


def full_run(names, args):
    """Untraced then traced, every workload; prints and writes everything."""
    host = host_info()
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    document = {"host": host, "seed": args.seed, "graph_seed": args.graph_seed,
                "seconds": args.seconds, "quick": args.quick, "workloads": {}}
    status = 0
    for name in names:
        print(f"{name}")
        entry = document["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_child(name, trace, args)
            status = status or code
            if result is None:
                print(f"  {key}: no result (exit code {code})")
                continue
            entry[key] = result
            print_metrics(key, result)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"results_seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"wrote {os.path.relpath(path)}")
    return status


def repeat_check(names, args, contract):
    """The untraced set twice, back to back; every end-to-end metric must
    repeat within its bound and ``virtual_rounds`` exactly."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    runs = []
    for _ in range(2):
        results = {}
        for name in names:
            code, result = run_child(name, 0, args)
            if result is None or code:
                print(f"{name}: run failed (exit code {code})")
                return code or 1
            results[name] = result["metrics"]
        runs.append(results)
    status = 0
    print(f"{'workload':<18}{'metric':<22}{'first':>14}{'second':>14}"
          f"{'rel.diff':>10}{'bound':>8}  verdict")
    for name in names:
        for metric, bound in bounds.items():
            first = runs[0][name][metric]["value"]
            second = runs[1][name][metric]["value"]
            diff = abs(second - first) / abs(first)
            exact = metric == "virtual_rounds"
            ok = diff == 0 if exact else diff <= bound
            status = status or (0 if ok else 1)
            print(f"{name:<18}{metric:<22}{first:>14.6g}{second:>14.6g}"
                  f"{diff:>10.4f}{('exact' if exact else bound):>8}  "
                  f"{'PASS' if ok else 'FAIL'}")
    return status


def main(argv=None):
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--graph-seed", type=int, default=GRAPH_SEED,
                        help="dataset seed (pinned; change only to cross-check)")
    parser.add_argument("--quick", action="store_true",
                        help="scale xs, two passes: a does-it-run check")
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    selected = [args.workload] if args.workload else names

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        code, result = run_child(args.workload, args.trace, args)
        if result is not None:
            print(json.dumps(result))
        return code
    if args.repeat_check:
        return repeat_check(selected, args, contract)
    return full_run(selected, args)


if __name__ == "__main__":
    sys.exit(main())
