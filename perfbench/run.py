"""The repo benchmark: three workloads, end-to-end and per-layer metrics.

One measured run (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload paper-concat --seed 3 --seconds 30 --trace 0

prints a run record line, then, as its last line, ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics of one
untraced pass; ``--trace 1`` runs an untraced and then a traced pass and
reports the per-layer metrics of the traced one plus the tracing overhead.
Every pass is a fresh child process (``workloads.py``), so each has its own
peak RSS.

Steadiness mode runs each workload ``K`` times per program tree, in fresh
processes, alternating workload and tree order, and says whether the runs
are steady and whether two trees agree within ``BENCHMARK.json``'s bounds::

    python3 perfbench/run.py --steady 5 --src ../parent/src --src src

With one ``--src`` (default: this checkout's ``src``) it judges the spread
only.  With two different trees the second may be worse than the first by
at most each metric's bound (parent, then change); with the same tree twice
the two sets of runs of one program must agree both ways within the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("paper-concat", "kernel-scale", "sweep-matrix")


class PassError(RuntimeError):
    """A measuring child process failed or printed no result."""


def pass_timeout(seconds: float) -> float:
    """Seconds a pass that measures for ``seconds`` may take.

    The margin covers the import, the minimum repeats and the last op on a
    slow phase of the host.
    """
    return 1.5 * seconds + 45.0


def load_benchmark() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise PassError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def _child_env(trace_path: Optional[Path]) -> Dict[str, str]:
    # The program reads REPRO_* knobs (delivery path, verification, tracing)
    # from the environment; none may leak in from the caller's shell.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    if trace_path is not None:
        env["REPRO_TRACE"] = str(trace_path)
    return env


def run_pass(workload: str, seed: int, seconds: float, traced: bool, src: Path) -> Dict[str, Any]:
    """Run one pass in a fresh process group and return its result object."""
    timeout = pass_timeout(seconds)
    trace_path = None
    if traced:
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{workload}.ndjson"
        trace_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(BENCH_DIR / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--src", str(src),
    ]
    if traced:
        cmd.append("--traced")
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_child_env(trace_path),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} pass exceeded {timeout:.0f}s")
    finally:
        _stop_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _stop_group(pgid: int) -> None:
    """Kill what is left of a pass's process group and wait until it is gone.

    Pool workers share the child's group, so none may outlive the pass.
    """
    deadline = time.monotonic() + 5.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.05)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_sha(src: Path) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=src,
            env=_child_env(None),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def run_record(args: argparse.Namespace, src: Path, passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Provenance of one measured run (printed before the result line)."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(src),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "params": passes[0]["params"],
        "samples": [p["samples"] for p in passes],
        "problems": [problem for p in passes for problem in p["problems"]],
    }


def _metric_block(specs: List[Dict[str, Any]], values: Dict[str, float]) -> Dict[str, Any]:
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise PassError(f"the pass reported no {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def measure(args: argparse.Namespace, bench: Dict[str, Any], src: Path) -> Dict[str, Any]:
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    args.seconds = seconds
    if args.trace:
        plain = run_pass(args.workload, args.seed, seconds, False, src)
        traced = run_pass(args.workload, args.seed, seconds, True, src)
        passes = [plain, traced]
        values = dict(traced["layers"])
        values["obs.trace_overhead_frac"] = (
            traced["metrics"]["e2e_s"] / plain["metrics"]["e2e_s"] - 1.0
        )
        metrics = _metric_block(bench["per_layer"], values)
    else:
        passes = [run_pass(args.workload, args.seed, seconds, False, src)]
        metrics = _metric_block(bench["end_to_end"], passes[0]["metrics"])
    print(json.dumps({"run_record": run_record(args, src, passes)}, sort_keys=True))
    return {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# steadiness mode
# ---------------------------------------------------------------------------


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def steady(args: argparse.Namespace, bench: Dict[str, Any], srcs: List[Path]) -> int:
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = args.workload_list or list(WORKLOADS)
    runs: List[Dict[str, Any]] = []
    for i in range(args.steady):
        seed = i + 1
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            trees = list(range(len(srcs))) if i % 2 == 0 else list(range(len(srcs)))[::-1]
            for tree in trees:
                try:
                    result = run_pass(workload, seed, seconds, False, srcs[tree])
                except PassError as exc:
                    result = {
                        "correct": False,
                        "attempted": 1,
                        "failed": 1,
                        "metrics": {},
                        "error": str(exc),
                    }
                runs.append({"workload": workload, "tree": tree, "seed": seed, **result})
                e2e = result["metrics"].get("e2e_s", float("nan"))
                print(
                    f"[{len(runs)}] {workload} tree {tree} seed {seed}: e2e_s={e2e:.3f} "
                    f"failed={result['failed']}/{result['attempted']}",
                    file=sys.stderr,
                    flush=True,
                )

    ok = True
    # The same tree twice is one program measured twice: its two medians must
    # agree both ways.  Two trees are parent and change: only worse counts.
    same_tree = len(srcs) == 2 and srcs[0] == srcs[1]
    summary: Dict[str, Any] = {"trees": [str(s) for s in srcs], "seconds": seconds, "workloads": {}}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        if not all(r["correct"] for r in mine):
            ok = False
            print(f"{workload}: {sum(r['failed'] for r in mine)} failed ops")
        rows: Dict[str, Any] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_tree = []
            for tree in range(len(srcs)):
                values = [
                    r["metrics"][name]
                    for r in mine
                    if r["tree"] == tree and name in r["metrics"]
                ]
                nan = float("nan")
                stats = _quartiles(values) if values else {"median": nan, "spread": nan}
                stats["steady"] = stats["spread"] <= bound
                per_tree.append(stats)
            entry: Dict[str, Any] = {"bound": bound, "trees": per_tree}
            if len(per_tree) == 2:
                a, b = per_tree[0]["median"], per_tree[1]["median"]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                entry["second_worse_by"] = worse
                entry["agree"] = abs(worse) <= bound if same_tree else worse <= bound
            good = all(t["steady"] for t in per_tree) and entry.get("agree", True)
            ok = ok and good
            rows[name] = entry
            cells = "  ".join(
                f"median {t['median']:.4g} spread {t['spread']:.3f}" for t in per_tree
            )
            verdict = "ok" if good else "NOT OK"
            extra = f"  second worse by {entry['second_worse_by']:+.3f}" if "agree" in entry else ""
            print(f"{workload:13s} {name:14s} bound {bound:.2f}  {cells}{extra}  {verdict}")
        summary["workloads"][workload] = rows
    summary["agree"] = ok
    WORK.mkdir(exist_ok=True)
    save = WORK / "steady.json"
    text = json.dumps({"summary": summary, "runs": runs}, indent=1)
    save.write_text(text + "\n", encoding="utf-8")
    print(f"steady and in agreement: {'yes' if ok else 'no'} (runs saved to {save})")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="The repo benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS, action="append", dest="workload_list")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K")
    parser.add_argument("--src", type=Path, action="append", default=None)
    args = parser.parse_args(argv)
    srcs = [s.resolve() for s in (args.src or [ROOT / "src"])]
    for src in srcs:
        if not (src / "repro" / "__init__.py").is_file():
            print(f"perfbench: no program to measure at {src}/repro", file=sys.stderr)
            return 2
    try:
        bench = load_benchmark()
        if args.steady:
            if len(srcs) > 2:
                parser.error("at most two --src trees")
            return steady(args, bench, srcs)
        if not args.workload_list or len(args.workload_list) != 1 or len(srcs) != 1:
            parser.error("a measured run takes exactly one --workload and one --src")
        args.workload = args.workload_list[0]
        result = measure(args, bench, srcs[0])
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
