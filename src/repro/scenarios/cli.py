"""The ``repro`` command line: config-driven experiment pipeline.

Every workload this repository reports on is a committed config file under
``configs/``; the CLI executes those configs through the scenario registries
and the parallel batch executor, persists the resulting rows in the
content-addressed results store (``results/``), and renders tables *from the
stored rows* — the store, not the process that happened to compute them, is
the source of truth.

Subcommands::

    repro run configs/scenarios/quickstart-coloring.json
    repro sweep configs/sweeps/churn-rate.json --backend process --progress
    repro sweep configs/sweeps/churn-rate.json --resume   # continue a killed run
    repro experiments --all            # every E1–E13 table; exit 1 on a failed claim
    repro experiments e01 e07 --smoke  # CI-sized parameter sets, no claim checks
    repro validate                     # check every committed config
    repro verify --suite smoke         # run the validation-contract suite
    repro diff results /tmp/fresh      # exit 1 on any row drift
    repro audit                        # exit 1 on interrupted/torn/drifted state
    repro repair                       # finish interrupted batches, clean torn writes
    repro log --kind smoke [--json]    # stored entries with provenance
    repro gc                           # prune entries unreachable from configs

``repro diff`` is the drift gate CI builds on: regenerate the smoke tables
into a scratch store, diff against the committed fixtures, and a non-zero
exit code fails the build.  ``repro audit`` is its structural sibling: it
scans a store *tree* (entries, scratch files, journals) for interrupted or
internally inconsistent state, and ``repro repair`` re-runs exactly the
missing units of every interrupted batch it can match back to a committed
config (resume semantics make the reassembled entries byte-identical to an
uninterrupted run).

Execution is controlled per run by ``--backend`` (serial / process /
remote), ``--chunk-size``, ``--workers``, ``--progress`` and
``--resume`` — plus ``--transport``/``--hosts`` for the distributed
``remote`` backend — or per config by an ``"execution"`` block (CLI flags
win); see :mod:`repro.exec`.  Store-backed runs keep a sweep journal under
``<store>/.journals`` so a killed sweep resumes exactly where it stopped.

Every run records its phase times and event counts in the stored entry's
provenance (``repro log`` / ``repro report`` show them).  ``--trace PATH``
also writes the run's NDJSON event trace, worker processes included: it
truncates ``PATH`` and sets ``REPRO_TRACE`` for the run (see
:mod:`repro.obs.trace`).  For a function-level profile use the stdlib:
``python -m cProfile -s cumtime -m repro experiments e04 --backend serial``.

A scenario's delivery path is its spec's ``delivery`` field.  ``repro
verify`` runs the contract suite; its ``delivery-equivalence`` contract runs
every scenario config under ``--configs`` on the incremental and kernel
paths against the full path (see :mod:`repro.verify`).
"""

from __future__ import annotations

import argparse
import datetime as _datetime
import functools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ReproError
from repro.version import __version__
from repro.analysis.report import format_table
from repro.exec import (
    BACKENDS,
    TRANSPORTS,
    ExecutionPolicy,
    batch_key,
    collect_stats,
    policy_from_mapping,
    units_for_spec,
    use_policy,
)
from repro.obs.trace import trace_to
from repro.scenarios.audit import audit_store, journal_status
from repro.scenarios.configs import (
    ExperimentConfig,
    ScenarioConfig,
    SweepConfig,
    load_config,
    load_experiment_configs,
    validate_config,
)
from repro.scenarios.executor import expand_sweep, run_scenario, sweep
from repro.scenarios.registry import available
from repro.scenarios.store import ResultsStore, StoreEntry, diff_stores

__all__ = ["main"]

#: Where a store keeps its sweep journals (checkpoints of interrupted runs).
JOURNALS_SUBDIR = ".journals"

#: Default locations, relative to the invocation directory (the repo root).
DEFAULT_CONFIGS_DIR = Path("configs")
DEFAULT_STORE_DIR = Path("results")

#: Store kind each experiment scale writes under.
_SCALE_KINDS = {"full": "experiments", "smoke": "smoke"}


def _print(message: str = "") -> None:
    print(message)


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


def _validate_or_fail(config) -> int:
    problems = validate_config(config)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 2
    return 0


def _emit_entry(entry: StoreEntry, *, title: str, columns=None, status: str = "") -> str:
    """Render a table from a *stored* entry (rows read back from disk)."""
    table = format_table(list(entry.rows), title=title, columns=columns)
    _print(table.rstrip("\n"))
    if entry.path is not None and status:
        _print(f"[{status}: {entry.path}]")
    _print()
    return table


# ---------------------------------------------------------------------------
# execution policies (CLI flags ⊕ config "execution" block)
# ---------------------------------------------------------------------------


def _build_policy(
    args: argparse.Namespace,
    config_execution: Optional[Mapping[str, Any]] = None,
    *,
    backend: str = "serial",
) -> ExecutionPolicy:
    """The effective policy: defaults < config ``execution`` block < CLI flags.

    ``backend`` is the command's default (``serial`` for run/sweep/repair,
    ``process`` for experiments); the block's and ``--backend``'s
    choice win over it.
    """
    policy = policy_from_mapping(
        {"backend": backend, **(config_execution or {})}, where="'execution' block"
    )
    if getattr(args, "backend", None) is not None:
        policy = policy.replace(backend=args.backend)
    if getattr(args, "chunk_size", None) is not None:
        policy = policy.replace(chunk_size=args.chunk_size)
    if getattr(args, "workers", None) is not None:
        policy = policy.replace(max_workers=args.workers)
    if getattr(args, "resume", False):
        policy = policy.replace(resume=True)
    if getattr(args, "progress", False):
        policy = policy.replace(progress=True)
    if getattr(args, "transport", None) is not None:
        policy = policy.replace(transport=args.transport)
    if getattr(args, "hosts", None):
        hosts = tuple(h.strip() for h in args.hosts.split(",") if h.strip())
        policy = policy.replace(hosts=hosts or None)
    if not getattr(args, "no_store", False):
        policy = policy.replace(journal_dir=str(Path(args.store) / JOURNALS_SUBDIR))
    return policy


# ---------------------------------------------------------------------------
# run / sweep
# ---------------------------------------------------------------------------


#: The subcommand that executes each config kind (for wrong-kind errors).
_KIND_COMMANDS = {"scenario": "run", "sweep": "sweep", "experiment": "experiments"}


def _store_target(config, *, scale: Optional[str] = None):
    """``(store kind, label, content key)`` of a config's store entry.

    The single source of truth shared by the write paths (run / sweep /
    experiments) and ``repro gc``'s reachability computation — if the key
    shape ever changes, both sides move together and gc cannot start
    considering freshly written entries unreachable.
    """
    if isinstance(config, ScenarioConfig):
        return "scenarios", config.label, {"kind": "scenario", "spec": config.spec.to_dict()}
    if isinstance(config, SweepConfig):
        key = {"kind": "sweep", "spec": config.spec.to_dict(), "over": dict(config.over)}
        return "sweeps", config.label, key
    if isinstance(config, ExperimentConfig):
        if scale not in _SCALE_KINDS:
            raise ReproError(f"experiment store targets need a scale, got {scale!r}")
        key = {"experiment": config.experiment, "scale": scale, "params": config.params_for(scale)}
        return _SCALE_KINDS[scale], config.experiment, key
    raise ReproError(f"no store target for {config!r}")


def _rows_for_config(config, policy: ExecutionPolicy) -> List[Dict[str, Any]]:
    """Execute a scenario/sweep config under ``policy`` and build its store rows.

    The single row-building path shared by ``repro run``, ``repro sweep`` and
    ``repro repair`` — repair must produce exactly the rows a normal run
    would, or its "byte-identical reassembly" guarantee means nothing.
    """
    if isinstance(config, ScenarioConfig):
        result = run_scenario(config.spec, execution=policy)
        return [{"seed": float(seed), **row} for seed, row in zip(config.spec.seeds, result.rows)]
    if isinstance(config, SweepConfig):
        results = sweep(config.spec, over=config.over, execution=policy)
        rows: List[Dict[str, Any]] = []
        for point in results:
            for seed, row in zip(point.spec.seeds, point.rows):
                rows.append({**dict(point.overrides), "seed": float(seed), **row})
        return rows
    raise ReproError(f"cannot build rows for {config!r}")


def _put_with_telemetry(
    store: ResultsStore,
    config,
    rows: Sequence[Dict[str, Any]],
    telemetry: Mapping[str, Any],
    *,
    scale: Optional[str] = None,
):
    """Store ``rows`` at ``config``'s target with the run's telemetry in provenance."""
    kind, label, key = _store_target(config, scale=scale)
    return store.put(
        kind,
        label,
        key,
        rows,
        extra_provenance={"telemetry": telemetry} if telemetry else None,
    )


def _execute_config(args: argparse.Namespace, config, policy: ExecutionPolicy):
    """Run a scenario/sweep config and store its rows; ``(rows, entry, status)``.

    The one execution path of ``repro run``, ``repro sweep`` and ``repro
    repair``: run telemetry around the rows, then the store write with the
    telemetry block in its provenance.  With ``--no-store`` nothing is
    written and ``entry`` is ``None``.
    """
    with collect_stats() as stats:
        rows = _rows_for_config(config, policy)
    if getattr(args, "no_store", False):
        return rows, None, ""
    entry, status = _put_with_telemetry(
        ResultsStore(args.store), config, rows, stats.as_provenance()
    )
    return rows, entry, status


def _cmd_execute(args: argparse.Namespace, config_type: type) -> int:
    """``repro run`` (scenario configs) and ``repro sweep`` (sweep configs)."""
    config = load_config(args.config)
    if not isinstance(config, config_type):
        return _fail(
            f"{args.config} is a {config.kind} config; "
            f"use 'repro {_KIND_COMMANDS[config.kind]}'"
        )
    code = _validate_or_fail(config)
    if code:
        return code
    policy = _build_policy(args, config.execution)
    rows, entry, status = _execute_config(args, config, policy)
    if entry is None:
        _print(format_table(list(rows), title=config.label).rstrip("\n"))
        _print()
        return 0
    # Re-read from disk: the table is rendered from what was persisted.
    _emit_entry(ResultsStore.load(entry.path), title=config.label, status=status)
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _select_experiments(
    args: argparse.Namespace, configs: Dict[str, ExperimentConfig]
) -> Dict[str, ExperimentConfig]:
    if args.all or not args.ids:
        return configs
    selected: Dict[str, ExperimentConfig] = {}
    for experiment_id in args.ids:
        if experiment_id not in configs:
            raise ReproError(
                f"no committed config for experiment {experiment_id!r} "
                f"(have: {', '.join(sorted(configs))})"
            )
        selected[experiment_id] = configs[experiment_id]
    return selected


def _cmd_experiments(args: argparse.Namespace) -> int:
    """Run the selected experiments at one scale and store their rows.

    A full-scale run then checks each selected catalog claim on the stored
    rows and exits 1 naming every failed one; ``--smoke`` checks none.
    """
    from repro.analysis.experiments.catalog import EXPERIMENTS, run_experiment

    configs = load_experiment_configs(Path(args.configs) / "experiments")
    if args.list:
        listing = [
            {"experiment": experiment_id, "title": config.title}
            for experiment_id, config in sorted(configs.items())
        ]
        _print(format_table(listing, title="committed experiment configs").rstrip())
        return 0
    configs = _select_experiments(args, configs)
    code = 0
    for config in configs.values():
        problems = validate_config(config)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            code = 2
    if code:
        return code

    scale = "smoke" if args.smoke else "full"
    store = ResultsStore(args.store)
    tables: List[str] = []
    failed_claims: List[str] = []
    for experiment_id, config in sorted(configs.items()):
        policy = _build_policy(args, config.execution, backend="process")
        with collect_stats() as stats, use_policy(policy):
            rows = run_experiment(experiment_id, config.params_for(scale))
        entry, status = _put_with_telemetry(store, config, rows, stats.as_provenance(), scale=scale)
        stored = store.load(entry.path)
        title = f"{config.title}  [{scale}]"
        tables.append(_emit_entry(stored, title=title, columns=config.columns, status=status))
        if scale == "full":
            failed_claims += EXPERIMENTS[experiment_id].check(stored.rows)
    if args.tables:
        Path(args.tables).parent.mkdir(parents=True, exist_ok=True)
        Path(args.tables).write_text("\n".join(tables), encoding="utf-8")
        _print(f"tables written to {args.tables}")
    for problem in failed_claims:
        print(f"claim failed: {problem}", file=sys.stderr)
    return 1 if failed_claims else 0


# ---------------------------------------------------------------------------
# validate / diff
# ---------------------------------------------------------------------------


def _iter_config_paths(configs_dir: Path) -> List[Path]:
    if not configs_dir.is_dir():
        raise ReproError(f"config directory {configs_dir} does not exist")
    return sorted(p for p in configs_dir.rglob("*.json") if p.is_file())


def _cmd_validate(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.configs_or_dirs] or _iter_config_paths(Path(args.configs))
    expanded: List[Path] = []
    for path in paths:
        expanded.extend(_iter_config_paths(path) if path.is_dir() else [path])
    if not expanded:
        return _fail("no config files found")
    failures = 0
    for path in expanded:
        try:
            config = load_config(path)
            problems = validate_config(config)
        except ReproError as exc:
            problems = [str(exc)]
        if problems:
            failures += 1
            for problem in problems:
                print(problem, file=sys.stderr)
        else:
            _print(f"ok: {path}")
    if failures:
        return _fail(f"{failures} of {len(expanded)} configs failed validation")
    _print(f"all {len(expanded)} configs valid")
    return 0


def _bench_rows(role: str, path: Path) -> Dict[str, Dict[str, Any]]:
    """The rows of one benchmark file keyed by ``workload``.

    Raises :class:`ReproError` naming the file (and the row index) when
    the file is missing, is not JSON, is not an object with a ``rows``
    list, or has a row without a string ``workload`` or a repeated one.
    """
    if not path.is_file():
        raise ReproError(f"{role} benchmark file {path} does not exist")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ReproError(f"{role} benchmark file {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ReproError(f"{role} benchmark file {path}: top level must be an object")
    rows = payload.get("rows", [])
    if not isinstance(rows, list):
        raise ReproError(f"{role} benchmark file {path}: 'rows' must be a list")
    keyed: Dict[str, Dict[str, Any]] = {}
    for index, row in enumerate(rows):
        workload = row.get("workload") if isinstance(row, dict) else None
        if not isinstance(workload, str):
            raise ReproError(f"{role} benchmark file {path}: row {index} has no string 'workload'")
        if workload in keyed:
            raise ReproError(
                f"{role} benchmark file {path}: row {index} repeats workload {workload!r}"
            )
        keyed[workload] = row
    return keyed


def _diff_bench(reference: Path, candidate: Path) -> int:
    """Compare two benchmark JSON files (``BENCH.json``) per workload.

    Rows are matched on their ``workload`` key and every ``*_rps`` field is
    compared as a new/old throughput ratio.  A workload that vanished from
    the candidate is a failure — a silently dropped row must not read as
    clean — and so is any throughput ratio below 0.9 (a >10% regression).
    A reference row with no numeric ``*_rps`` field fails too: a row the
    gate cannot compare (say, rates nested under another key) must not
    read as within bounds.
    """
    ref_rows = _bench_rows("reference", reference)
    cand_rows = _bench_rows("candidate", candidate)
    if not ref_rows:
        return _fail(f"reference benchmark file {reference} has no rows")

    from repro.obs.report import markdown_table

    failures: List[str] = []
    table_rows: List[Dict[str, Any]] = []
    for workload, ref_row in ref_rows.items():
        cand_row = cand_rows.get(workload)
        if cand_row is None:
            failures.append(f"workload {workload} missing from candidate")
            table_rows.append(
                {"workload": workload, "field": "(all)", "note": "MISSING"}
            )
            continue
        gated = 0
        for field in sorted(ref_row):
            if not field.endswith("_rps"):
                continue
            old = ref_row.get(field)
            new = cand_row.get(field)
            if not isinstance(old, (int, float)) or not old:
                # Scale rows carry ``incremental_rps: null`` (only the kernel
                # path completes them) — their ``kernel_rps`` still gates
                # above, but a null-vs-null field is shown, not silently
                # dropped, and a value appearing where the reference had none
                # is a visible note rather than nothing.
                note = "n/a" if new in (None, old) else f"new value {new}"
                table_rows.append({"workload": workload, "field": field, "note": note})
                continue
            gated += 1
            if not isinstance(new, (int, float)):
                failures.append(f"{workload}: {field} missing from candidate row")
                table_rows.append(
                    {"workload": workload, "field": field, "old": float(old), "note": "MISSING"}
                )
                continue
            ratio = new / old
            table_rows.append(
                {
                    "workload": workload,
                    "field": field,
                    "old": float(old),
                    "new": float(new),
                    "ratio": round(ratio, 2),
                }
            )
            if ratio < 0.9:
                failures.append(
                    f"{workload}: {field} regressed {old:.1f} -> {new:.1f} "
                    f"({ratio:.2f}x < 0.90x)"
                )
        if not gated:
            failures.append(f"{workload}: reference row has no numeric *_rps field to compare")
            table_rows.append({"workload": workload, "field": "(none)", "note": "NO *_rps"})
    for workload in cand_rows:
        if workload not in ref_rows:
            table_rows.append({"workload": workload, "field": "(new row)"})
    _print(
        markdown_table(
            table_rows, columns=["workload", "field", "old", "new", "ratio", "note"], precision=1
        ).rstrip()
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return _fail(f"{len(failures)} benchmark regression(s)")
    _print(f"bench diff clean: {len(ref_rows)} workloads within 10% of reference")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    if args.bench:
        return _diff_bench(Path(args.reference), Path(args.candidate))
    for role, root in (("reference", args.reference), ("candidate", args.candidate)):
        # A missing store must not read as "no drift" — that would turn a
        # mispointed CI gate into a silent pass.
        if not Path(root).is_dir():
            return _fail(f"{role} store {root} does not exist")
    reference, candidate = ResultsStore(args.reference), ResultsStore(args.candidate)
    diff = diff_stores(reference, candidate, kind=args.kind)
    _print(diff.describe())
    return 0 if diff.clean else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    store_root = Path(args.store)
    if not store_root.is_dir():
        # Same stance as repro diff: a missing store must not read as clean.
        return _fail(f"store {store_root} does not exist")
    findings = audit_store(store_root, kind=args.kind)
    if args.json:
        _print(
            json.dumps(
                {
                    "store": str(store_root),
                    "clean": not findings,
                    "findings": [finding.to_dict() for finding in findings],
                },
                indent=2,
            )
        )
        return 1 if findings else 0
    for finding in findings:
        _print(finding.describe())
    if findings:
        return _fail(
            f"{len(findings)} finding{'' if len(findings) == 1 else 's'} in {store_root}"
        )
    _print(f"store {store_root} is clean")
    return 0


def _batch_units_for_config(config) -> Optional[list]:
    """The flat work-unit batch a scenario/sweep config runs as one journal.

    ``None`` for experiment configs — those run many internal batches whose
    journals repair cannot match one-to-one (re-run them with ``--resume``
    instead).
    """
    if isinstance(config, ScenarioConfig):
        return units_for_spec(config.spec)
    if isinstance(config, SweepConfig):
        return expand_sweep(config.spec, config.over)[1]
    return None


def _cmd_repair(args: argparse.Namespace) -> int:
    store_root = Path(args.store)
    if not store_root.is_dir():
        return _fail(f"store {store_root} does not exist")
    verb = "would remove" if args.dry_run else "removed"
    for directory in sorted(p for p in store_root.iterdir() if p.is_dir()):
        if directory.name.startswith("."):
            continue
        for scratch in sorted(directory.glob("*.json.tmp")):
            _print(f"{verb} torn write {scratch}")
            if not args.dry_run:
                scratch.unlink()

    from repro.exec.shm import stale_segments, unlink_stale_segments

    if args.dry_run:
        for name in stale_segments():
            _print(f"would remove stale shm segment {name}")
    else:
        for name in unlink_stale_segments():
            _print(f"removed stale shm segment {name}")

    journals = sorted((store_root / JOURNALS_SUBDIR).glob("*.jsonl"))
    if not journals:
        _print("no interrupted batches")
        return 0

    # Match each journal back to the committed config whose unit batch it
    # checkpoints — the journal file name is the batch's content hash, and
    # expand_sweep/units_for_spec recompute that hash without running anything.
    by_batch: Dict[str, Any] = {}
    for path in _iter_config_paths(Path(args.configs)):
        try:
            config = load_config(path)
            units = _batch_units_for_config(config)
        except ReproError:
            continue  # validate reports broken configs; repair skips them
        if units:
            by_batch[batch_key(units)[:24]] = (path, config)

    code = 0
    for journal_path in journals:
        matched = by_batch.get(journal_path.stem)
        status = journal_status(journal_path)
        done, total = status["completed"], status["total"]
        if matched is None:
            print(
                f"unmatched journal {journal_path} ({done}/{total} units): no committed "
                f"scenario/sweep config produces this batch — either its config was "
                f"edited/deleted (remove the journal with 'repro gc --journals') or it "
                f"belongs to an experiment run (re-run with --resume)",
                file=sys.stderr,
            )
            code = 1
            continue
        config_path, config = matched
        if args.dry_run:
            _print(f"would repair {config_path} ({done}/{total} units journalled)")
            continue
        _print(f"repairing {config_path}: {done}/{total} units journalled, resuming")
        policy = _build_policy(args, config.execution).replace(resume=True)
        rows, entry, put_status = _execute_config(args, config, policy)
        # "unchanged" is the byte-identity verification: the reassembled rows
        # equal the previously stored entry exactly.
        _print(f"{put_status}: {entry.path} ({len(rows)} rows)")
    return code


def _cmd_components(_args: argparse.Namespace) -> int:
    for family, docs in available(docs=True).items():
        rows = [{"name": name, "description": doc} for name, doc in docs.items()]
        _print(format_table(rows, title=family).rstrip())
        _print()
    return 0


# ---------------------------------------------------------------------------
# verify (observational-equivalence contracts + metamorphic properties)
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    # Imported lazily: the contract suite pulls in every registered component
    # plus numpy, which no other subcommand should pay for at import time.
    from repro.verify.contracts import CONTRACTS
    from repro.verify.harness import run_verify, verify_store_target

    if args.list:
        listing = [
            {"contract": name, "description": doc} for name, doc in CONTRACTS.describe().items()
        ]
        _print(format_table(listing, title="validation contracts").rstrip())
        return 0

    contracts: Optional[List[str]] = None
    if args.contracts:
        contracts = [token.strip() for token in args.contracts.split(",") if token.strip()]
    # The full suite runs for minutes; it gets the live ETA line by default.
    progress = bool(getattr(args, "progress", False)) or args.suite == "full"
    verdicts = run_verify(
        suite=args.suite, contracts=contracts, configs_dir=args.configs, progress=progress
    )
    rows = [verdict.as_row() for verdict in verdicts]

    if args.no_store:
        _print(format_table(rows, title=f"repro verify [{args.suite}]").rstrip())
        _print()
    else:
        store = ResultsStore(args.store)
        kind, label, key = verify_store_target(args.suite, contracts)
        entry, status = store.put(kind, label, key, rows)
        # Same stance as run/sweep: render from what was persisted.
        _emit_entry(store.load(entry.path), title=f"repro verify [{args.suite}]", status=status)

    failures = [verdict for verdict in verdicts if verdict.status == "fail"]
    passed = sum(1 for verdict in verdicts if verdict.status == "pass")
    skipped = sum(1 for verdict in verdicts if verdict.status == "skip")
    for verdict in failures:
        print(
            f"FAIL: contract {verdict.contract!r} case {verdict.case!r}: {verdict.detail}",
            file=sys.stderr,
        )
    contracts_run = len({verdict.contract for verdict in verdicts})
    summary = (
        f"{passed} passed, {len(failures)} failed, {skipped} skipped "
        f"across {contracts_run} contract{'' if contracts_run == 1 else 's'}"
    )
    if failures:
        return _fail(summary)
    _print(summary)
    return 0


# ---------------------------------------------------------------------------
# gc / log (store housekeeping and provenance)
# ---------------------------------------------------------------------------


def _reachable_entry_paths(store: ResultsStore, configs_dir: Path) -> set:
    """Every store path a committed config can (re)generate.

    This is the gc root set: an entry not in it belongs to a deleted or
    edited config (content addressing leaves the old file behind when a
    config's key changes) and can be pruned.

    A config that fails to load raises: a root set computed from a broken
    config tree would mark that config's entries unreachable and delete
    results that may have taken hours to generate.
    """
    reachable = set()
    for path in _iter_config_paths(configs_dir):
        try:
            config = load_config(path)
        except ReproError as exc:
            raise ReproError(
                f"cannot compute gc reachability: {exc} "
                f"(fix or delete the config before collecting garbage)"
            ) from exc
        if isinstance(config, ExperimentConfig):
            for scale in _SCALE_KINDS:
                kind, label, key = _store_target(config, scale=scale)
                reachable.add(store.entry_path(kind, label, key))
        else:
            kind, label, key = _store_target(config)
            reachable.add(store.entry_path(kind, label, key))
    # Full-suite verify runs are regenerable from the committed tree, so they
    # are gc roots too (contract-subset runs are scratch work and prunable).
    from repro.verify.harness import verify_store_target

    for suite in ("smoke", "full"):
        kind, label, key = verify_store_target(suite)
        reachable.add(store.entry_path(kind, label, key))
    return reachable


def _cmd_gc(args: argparse.Namespace) -> int:
    store_root = Path(args.store)
    if not store_root.is_dir():
        return _fail(f"store {store_root} does not exist")
    store = ResultsStore(store_root)
    reachable = _reachable_entry_paths(store, Path(args.configs))
    kept = 0
    doomed: List[Path] = []
    for directory in sorted(p for p in store_root.iterdir() if p.is_dir()):
        if directory.name.startswith("."):
            continue  # journals and other housekeeping state are not entries
        for path in sorted(directory.glob("*.json")):
            if path in reachable:
                kept += 1
            else:
                doomed.append(path)
    if args.journals:
        journals = sorted((store_root / JOURNALS_SUBDIR).glob("*.jsonl"))
        doomed.extend(journals)
    verb = "would remove" if args.dry_run else "removed"
    for path in doomed:
        _print(f"{verb} {path}")
        if not args.dry_run:
            path.unlink()
    _print(
        f"{verb} {len(doomed)} unreachable entr{'y' if len(doomed) == 1 else 'ies'}, "
        f"kept {kept} reachable from {args.configs}"
    )
    return 0


def _cmd_log(args: argparse.Namespace) -> int:
    store_root = Path(args.store)
    if not store_root.is_dir():
        return _fail(f"store {store_root} does not exist")
    store = ResultsStore(store_root)
    rows: List[Dict[str, Any]] = []
    for entry in store.entries(args.kind):
        experiment = entry.key.get("experiment", "")
        if args.experiment and experiment != args.experiment:
            continue
        if args.label and args.label not in entry.label:
            continue
        mtime = ""
        if entry.path is not None and entry.path.exists():
            stamp = _datetime.datetime.fromtimestamp(entry.path.stat().st_mtime)
            mtime = stamp.strftime("%Y-%m-%d %H:%M:%S")
        telemetry = entry.provenance.get("telemetry") or {}
        phases = telemetry.get("phases") or {}
        top = sorted(
            phases.items(), key=lambda item: item[1].get("seconds", 0.0), reverse=True
        )[:3]
        row: Dict[str, Any] = {
            "kind": entry.kind,
            "label": entry.label,
            "key": entry.key_hash[:12],
            "rows": len(entry.rows),
            "version": str(entry.provenance.get("repro_version", "")),
            "git": str(entry.provenance.get("git_sha") or "")[:10],
            "written": mtime,
            "phases": " ".join(
                f"{name}={block.get('seconds', 0.0):.2f}s" for name, block in top
            ),
        }
        if args.json and telemetry:
            row["telemetry"] = telemetry
        rows.append(row)
    # Oldest first, so --limit N tails off the N most recently written.
    rows.sort(key=lambda row: (row["written"], row["kind"], row["label"]))
    total = len(rows)
    if args.limit:
        rows = rows[-args.limit :]
    if args.json:
        _print(json.dumps({"total": total, "entries": rows}, indent=2))
        return 0
    if not rows:
        _print("no matching store entries")
        return 0
    title = f"{total} store entr{'y' if total == 1 else 'ies'}"
    if len(rows) != total:
        title += f" ({len(rows)} most recent shown)"
    _print(format_table(rows, title=title))
    return 0


# ---------------------------------------------------------------------------
# trace / report (the observability consumer verbs)
# ---------------------------------------------------------------------------


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import summarize_trace
    from repro.obs.trace import read_trace, validate_trace

    path = Path(args.trace_file)
    if not path.is_file():
        return _fail(f"trace file {path} does not exist")

    if args.validate:
        problems = validate_trace(path)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return _fail(f"{len(problems)} schema problem(s) in {path}")
        _print(f"trace {path} is schema-valid")
        return 0

    events = read_trace(path)
    if args.event:
        wanted = {token.strip() for token in args.event.split(",") if token.strip()}
        events = [event for event in events if event.get("event") in wanted]
    if args.limit:
        events = events[: args.limit]
    if args.raw:
        for event in events:
            _print(json.dumps(event, sort_keys=True, separators=(",", ":")))
        return 0
    _print(summarize_trace(events).rstrip())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_study

    store_root = Path(args.store)
    if not store_root.is_dir():
        return _fail(f"store {store_root} does not exist")
    rendered = render_study(ResultsStore(store_root), kind=args.kind)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered, encoding="utf-8")
        _print(f"report written to {out}")
    else:
        _print(rendered.rstrip())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=str(DEFAULT_STORE_DIR),
        help=f"results store directory (default: {DEFAULT_STORE_DIR})",
    )


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    """The execution-policy flags shared by every executing subcommand."""
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS.available()),
        help="execution backend (default: from the config's 'execution' block, else "
        "process for experiments and serial otherwise)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        metavar="N",
        help="work units per dispatch chunk (default: auto-sized from the batch)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="worker count for pooled backends (default: CPU count)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse the sweep journal of an interrupted run instead of recomputing",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="report units done, rows/sec and ETA on stderr while running",
    )
    parser.add_argument(
        "--transport",
        choices=list(TRANSPORTS.available()),
        help="remote transport for --backend remote (default: loopback)",
    )
    parser.add_argument(
        "--hosts",
        metavar="H1,H2=4",
        help="comma-separated fleet for --backend remote: 'host' or 'host=slots' "
        "entries (slots = that worker's in-flight limit)",
    )


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    """The tracing flag shared by every executing subcommand."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write an NDJSON structured-event trace of the run, worker "
        "processes included, to PATH (round/unit/chunk/dispatch lifecycle; "
        "store rows are unaffected). Default: the REPRO_TRACE environment "
        "variable, else off",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Config-driven experiment pipeline for the dynamic-network reproduction.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one committed ScenarioSpec config")
    run.add_argument("config", help="path to a scenario config (JSON)")
    run.add_argument("--no-store", action="store_true", help="print only, skip the results store")
    _add_store_options(run)
    _add_execution_options(run)
    _add_telemetry_options(run)
    run.set_defaults(fn=functools.partial(_cmd_execute, config_type=ScenarioConfig))

    sweep_cmd = sub.add_parser("sweep", help="run a committed spec + override-grid config")
    sweep_cmd.add_argument("config", help="path to a sweep config (JSON)")
    sweep_cmd.add_argument(
        "--no-store", action="store_true", help="print only, skip the results store"
    )
    _add_store_options(sweep_cmd)
    _add_execution_options(sweep_cmd)
    _add_telemetry_options(sweep_cmd)
    sweep_cmd.set_defaults(fn=functools.partial(_cmd_execute, config_type=SweepConfig))

    experiments = sub.add_parser(
        "experiments",
        help="regenerate E1–E13 tables from committed configs; exit 1 on a failed paper claim",
    )
    experiments.add_argument("ids", nargs="*", help="experiment ids (e01 … e13)")
    experiments.add_argument("--all", action="store_true", help="run every committed experiment")
    experiments.add_argument(
        "--smoke",
        action="store_true",
        help="use the CI-sized smoke parameter sets (claims are not checked)",
    )
    experiments.add_argument("--list", action="store_true", help="list committed experiments")
    experiments.add_argument("--tables", help="also write all tables to this file")
    experiments.add_argument(
        "--configs",
        default=str(DEFAULT_CONFIGS_DIR),
        help=f"config tree root (default: {DEFAULT_CONFIGS_DIR})",
    )
    _add_store_options(experiments)
    _add_execution_options(experiments)
    _add_telemetry_options(experiments)
    experiments.set_defaults(fn=_cmd_experiments)

    validate = sub.add_parser("validate", help="validate committed configs without running them")
    validate.add_argument(
        "configs_or_dirs", nargs="*", help="config files or directories (default: configs/)"
    )
    validate.add_argument(
        "--configs",
        default=str(DEFAULT_CONFIGS_DIR),
        help=f"config tree root (default: {DEFAULT_CONFIGS_DIR})",
    )
    validate.set_defaults(fn=_cmd_validate)

    diff = sub.add_parser("diff", help="compare two results stores; exit 1 on drift")
    diff.add_argument("reference", help="reference store directory (e.g. the committed results/)")
    diff.add_argument("candidate", help="candidate store directory (e.g. a fresh regeneration)")
    diff.add_argument("--kind", help="restrict to one store kind (e.g. smoke)")
    diff.add_argument(
        "--bench",
        action="store_true",
        help=(
            "treat the two paths as benchmark JSON files (BENCH.json): "
            "compare *_rps fields per workload, exit 1 on a >10%% regression "
            "or a vanished workload"
        ),
    )
    diff.set_defaults(fn=_cmd_diff)

    audit = sub.add_parser(
        "audit", help="scan a results tree for interrupted/torn/drifted state; exit 1 on findings"
    )
    audit.add_argument("--kind", help="restrict to one store kind (e.g. smoke, sweeps)")
    audit.add_argument("--json", action="store_true", help="machine-readable findings")
    _add_store_options(audit)
    audit.set_defaults(fn=_cmd_audit)

    repair = sub.add_parser(
        "repair",
        help="finish interrupted batches (re-running only their missing units) "
        "and clean torn writes",
    )
    repair.add_argument(
        "--dry-run", action="store_true", help="report what would be repaired without running"
    )
    repair.add_argument(
        "--configs",
        default=str(DEFAULT_CONFIGS_DIR),
        help=f"config tree journals are matched against (default: {DEFAULT_CONFIGS_DIR})",
    )
    _add_store_options(repair)
    _add_execution_options(repair)
    _add_telemetry_options(repair)
    repair.set_defaults(fn=_cmd_repair)

    components = sub.add_parser("components", help="list every registered scenario component")
    components.set_defaults(fn=_cmd_components)

    verify = sub.add_parser(
        "verify",
        help="run the observational-equivalence contract suite; exit 1 on any failure",
    )
    verify.add_argument(
        "--suite",
        choices=["smoke", "full"],
        default="smoke",
        help="case sizes: smoke is CI-sized, full widens n/rounds/seeds (default: smoke)",
    )
    verify.add_argument(
        "--contracts",
        metavar="C1,C2",
        help="run only these contracts (comma-separated; default: all registered)",
    )
    verify.add_argument(
        "--configs",
        default=str(DEFAULT_CONFIGS_DIR),
        help="config tree the manipulation-exists and delivery-equivalence contracts scan "
        f"(default: {DEFAULT_CONFIGS_DIR})",
    )
    verify.add_argument(
        "--no-store", action="store_true", help="print only, skip the results store"
    )
    verify.add_argument(
        "--list", action="store_true", help="list registered contracts without running them"
    )
    verify.add_argument(
        "--progress",
        action="store_true",
        help="live contract counter with ETA on stderr (default for --suite full)",
    )
    _add_store_options(verify)
    verify.set_defaults(fn=_cmd_verify)

    gc = sub.add_parser(
        "gc", help="prune store entries unreachable from the committed configs"
    )
    gc.add_argument(
        "--dry-run", action="store_true", help="list what would be removed without removing it"
    )
    gc.add_argument(
        "--journals",
        action="store_true",
        help="also remove sweep-journal checkpoints of interrupted runs",
    )
    gc.add_argument(
        "--configs",
        default=str(DEFAULT_CONFIGS_DIR),
        help=f"config tree root defining reachability (default: {DEFAULT_CONFIGS_DIR})",
    )
    _add_store_options(gc)
    gc.set_defaults(fn=_cmd_gc)

    log = sub.add_parser("log", help="list stored entries with their provenance")
    log.add_argument("--kind", help="restrict to one store kind (e.g. smoke, sweeps)")
    log.add_argument("--experiment", help="restrict to one experiment id (e.g. e01)")
    log.add_argument("--label", help="restrict to labels containing this substring")
    log.add_argument("--limit", type=int, metavar="N", help="show only the last N entries")
    log.add_argument("--json", action="store_true", help="machine-readable entry listing")
    _add_store_options(log)
    log.set_defaults(fn=_cmd_log)

    trace = sub.add_parser(
        "trace", help="summarize or filter an NDJSON trace written with --trace/REPRO_TRACE"
    )
    trace.add_argument("trace_file", help="path to an NDJSON trace file")
    trace.add_argument(
        "--event", metavar="E1,E2", help="restrict to these event types (comma-separated)"
    )
    trace.add_argument(
        "--raw", action="store_true", help="dump matching events as NDJSON instead of summarizing"
    )
    trace.add_argument("--limit", type=int, metavar="N", help="stop after the first N events")
    trace.add_argument(
        "--validate",
        action="store_true",
        help="check every event against the trace schema; exit 1 on any problem",
    )
    trace.set_defaults(fn=_cmd_trace)

    report = sub.add_parser(
        "report",
        help="render a Markdown study summary (heat tables, phase splits) from stored entries",
    )
    report.add_argument("--kind", help="restrict to one store kind (e.g. smoke, sweeps)")
    report.add_argument(
        "--out", metavar="FILE", help="write the Markdown to FILE instead of stdout"
    )
    _add_store_options(report)
    report.set_defaults(fn=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro`` / ``python -m repro``; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace = getattr(args, "trace", None)
    try:
        with trace_to(trace) if trace else nullcontext():
            return args.fn(args)
    except ReproError as exc:
        return _fail(f"error: {exc}")
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # Output truncated by a closed pipe (`repro log | head`): exit
        # quietly with the conventional 128+SIGPIPE code, keeping the
        # interpreter from tracebacking on the final stdout flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
