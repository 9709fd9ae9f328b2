"""Content-addressed, file-backed store for experiment result rows.

Every run of the pipeline (``repro run`` / ``repro sweep`` / ``repro
experiments``) produces *rows* — lists of plain JSON-able dicts — from a
*key* — the plain JSON-able description of the work (a scenario spec, an
experiment id plus its parameters).  The store persists each ``(key, rows)``
pair as one JSON file whose name embeds the SHA-256 hash of the canonical
form of the key::

    results/
      smoke/e01-5f2a9c01d3b4.json          # <label>-<hash12>.json
      experiments/e01-8c1d20aa97fe.json
      scenarios/quickstart-coloring-03ab….json

Three properties follow from content addressing:

* **Idempotence** — rerunning the same key with unchanged code regenerates
  identical rows, so :meth:`ResultsStore.put` leaves the existing file
  byte-for-byte untouched (provenance included).
* **Drift detection** — if the code changes behaviour, the key hashes still
  match but the rows differ; :func:`diff_stores` (surfaced as ``repro
  diff``) reports exactly which labels drifted and how.
* **Reproducibility** — each entry carries the full key (e.g. the spec
  dict), the package version, the git commit and the row schema, so a stored
  table is re-derivable from its own metadata.

Entries compare by *rows*, never by provenance: a fixture regenerated at a
different commit with identical rows is "unchanged".
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.version import __version__

__all__ = [
    "FORMAT_VERSION",
    "ResultsStore",
    "StoreDiff",
    "StoreEntry",
    "canonical_json",
    "content_key",
    "diff_rows",
]

Row = Dict[str, Any]

#: Bumped whenever the on-disk entry layout changes incompatibly.
FORMAT_VERSION = "repro-store/1"

#: Hex digits of the key hash embedded in an entry's file name.
_HASH_PREFIX_LEN = 12

_SLUG_RE = re.compile(r"[^a-zA-Z0-9._-]+")


def canonical_json(value: Any) -> str:
    """The canonical serialisation content addresses are computed from.

    Compact separators and sorted keys make the result independent of dict
    insertion order; ``ensure_ascii`` makes it independent of locale.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_key(key: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical form of ``key``."""
    return hashlib.sha256(canonical_json(key).encode("ascii")).hexdigest()


def _slug(label: str) -> str:
    slug = _SLUG_RE.sub("-", label).strip("-")
    return slug or "entry"


def _git_sha() -> Optional[str]:
    """Best-effort commit hash of the working tree the run happened in."""
    try:
        directory = os.getcwd()
    except OSError:  # the working directory was removed
        return None
    return _git_sha_in(directory)


@functools.lru_cache(maxsize=None)
def _git_sha_in(directory: str) -> Optional[str]:
    """``git rev-parse HEAD`` in ``directory``, asked once per process and directory."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=directory,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _row_schema(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    """Sorted union of the column names appearing in ``rows``."""
    keys: set = set()
    for row in rows:
        keys.update(row)
    return sorted(keys)


@dataclass(frozen=True)
class StoreEntry:
    """One stored result set: key, provenance, and the rows themselves."""

    kind: str
    label: str
    key: Mapping[str, Any]
    key_hash: str
    rows: Tuple[Row, ...]
    provenance: Mapping[str, Any] = field(default_factory=dict)
    row_schema: Tuple[str, ...] = ()
    path: Optional[Path] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FORMAT_VERSION,
            "kind": self.kind,
            "label": self.label,
            "key": dict(self.key),
            "key_hash": self.key_hash,
            "provenance": dict(self.provenance),
            "row_schema": list(self.row_schema),
            "rows": [dict(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, path: Optional[Path] = None) -> "StoreEntry":
        if data.get("format") != FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported store entry format {data.get('format')!r} in {path or data!r}; "
                f"expected {FORMAT_VERSION!r}"
            )
        return cls(
            kind=data["kind"],
            label=data["label"],
            key=dict(data["key"]),
            key_hash=data["key_hash"],
            rows=tuple(dict(row) for row in data["rows"]),
            provenance=dict(data.get("provenance", {})),
            row_schema=tuple(data.get("row_schema", ())),
            path=path,
        )


def diff_rows(expected: Sequence[Row], actual: Sequence[Row]) -> List[str]:
    """Human-readable differences between two row lists ([] when identical).

    Comparison happens on the canonical JSON form, so ``nan == nan`` and
    ``1 == 1.0`` behave the way stored fixtures need them to.
    """
    problems: List[str] = []
    if len(expected) != len(actual):
        problems.append(f"row count changed: {len(expected)} -> {len(actual)}")
    schema_a, schema_b = _row_schema(expected), _row_schema(actual)
    if schema_a != schema_b:
        gone = sorted(set(schema_a) - set(schema_b))
        new = sorted(set(schema_b) - set(schema_a))
        if gone:
            problems.append(f"columns removed: {gone}")
        if new:
            problems.append(f"columns added: {new}")
    for index, (row_a, row_b) in enumerate(zip(expected, actual)):
        if canonical_json(row_a) == canonical_json(row_b):
            continue
        cells = [
            f"{column}: {row_a.get(column)!r} -> {row_b.get(column)!r}"
            for column in sorted(set(row_a) | set(row_b))
            if canonical_json(row_a.get(column)) != canonical_json(row_b.get(column))
        ]
        problems.append(f"row {index} changed ({'; '.join(cells)})")
    return problems


@dataclass
class StoreDiff:
    """The outcome of comparing two stores (or a store against fresh rows)."""

    missing: List[str] = field(default_factory=list)
    extra: List[str] = field(default_factory=list)
    changed: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not (self.missing or self.extra or self.changed)

    def describe(self) -> str:
        if self.clean:
            return "stores match"
        lines: List[str] = []
        for name in self.missing:
            lines.append(f"missing from the second store: {name}")
        for name in self.extra:
            lines.append(f"only in the second store: {name}")
        for name, problems in sorted(self.changed.items()):
            lines.append(f"{name}: rows differ")
            lines.extend(f"  - {problem}" for problem in problems)
        return "\n".join(lines)


class ResultsStore:
    """A directory of content-addressed result entries, grouped by kind."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    # -- paths -----------------------------------------------------------------

    def entry_path(self, kind: str, label: str, key: Mapping[str, Any]) -> Path:
        """Where the entry for ``key`` lives (exists or not)."""
        key_hash = content_key(key)
        return self.root / kind / f"{_slug(label)}-{key_hash[:_HASH_PREFIX_LEN]}.json"

    # -- writing ---------------------------------------------------------------

    def put(
        self,
        kind: str,
        label: str,
        key: Mapping[str, Any],
        rows: Sequence[Row],
        *,
        extra_provenance: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[StoreEntry, str]:
        """Persist ``rows`` under ``key``; returns ``(entry, status)``.

        ``status`` is ``"unchanged"`` when an entry for the same key already
        holds identical rows (the file is left byte-for-byte untouched — this
        is what makes reruns idempotent), ``"updated"`` when the rows drifted
        and the entry was rewritten, and ``"created"`` otherwise.

        ``extra_provenance`` (e.g. a run's telemetry block) is merged into
        the entry's provenance.  Provenance never participates in identity:
        an "unchanged" entry keeps its original provenance untouched.
        """
        key_hash = content_key(key)
        path = self.entry_path(kind, label, key)
        status = "created"
        if path.exists():
            try:
                existing = self.load(path)
            except ConfigurationError:
                # A truncated/corrupt entry (e.g. an interrupted earlier run)
                # must not wedge the key forever — rewrite it.
                status = "updated"
            else:
                if canonical_json([dict(r) for r in existing.rows]) == canonical_json(
                    [dict(r) for r in rows]
                ):
                    return existing, "unchanged"
                status = "updated"
        provenance: Dict[str, Any] = {"repro_version": __version__, "git_sha": _git_sha()}
        if extra_provenance:
            provenance.update(extra_provenance)
        entry = StoreEntry(
            kind=kind,
            label=label,
            key=dict(key),
            key_hash=key_hash,
            rows=tuple(dict(row) for row in rows),
            provenance=provenance,
            row_schema=tuple(_row_schema(rows)),
            path=path,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so a crash mid-write never leaves a torn entry.
        scratch = path.with_name(path.name + ".tmp")
        scratch.write_text(
            json.dumps(entry.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        scratch.replace(path)
        return entry, status

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def load(path: Path | str) -> StoreEntry:
        """Load one entry file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read store entry {path}: {exc}") from exc
        return StoreEntry.from_dict(data, path=path)

    def get(self, kind: str, label: str, key: Mapping[str, Any]) -> Optional[StoreEntry]:
        """The stored entry for ``key``, or ``None``."""
        path = self.entry_path(kind, label, key)
        return self.load(path) if path.exists() else None

    def entries(self, kind: Optional[str] = None) -> Iterator[StoreEntry]:
        """All entries in the store (or in one kind), in file-name order."""
        if not self.root.is_dir():
            return
        kinds = [kind] if kind is not None else sorted(
            p.name for p in self.root.iterdir() if p.is_dir()
        )
        for sub in kinds:
            directory = self.root / sub
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                yield self.load(path)

    # -- comparison ------------------------------------------------------------

    def diff(self, other: "ResultsStore", *, kind: Optional[str] = None) -> StoreDiff:
        """Compare this store (the reference) against ``other``."""
        return diff_stores(self, other, kind=kind)


def _index(store: ResultsStore, kind: Optional[str]) -> Dict[str, StoreEntry]:
    """Entries keyed by display identity (kind/label, hash-suffixed on clashes)."""
    by_name: Dict[str, StoreEntry] = {}
    for entry in store.entries(kind):
        name = f"{entry.kind}/{entry.label}"
        if name in by_name:
            clash = by_name.pop(name)
            by_name[f"{name}-{clash.key_hash[:_HASH_PREFIX_LEN]}"] = clash
            name = f"{name}-{entry.key_hash[:_HASH_PREFIX_LEN]}"
        by_name[name] = entry
    return by_name


def diff_stores(
    reference: ResultsStore, candidate: ResultsStore, *, kind: Optional[str] = None
) -> StoreDiff:
    """Compare two stores entry by entry (matched by kind + label).

    An entry whose key changed (e.g. its config was edited) *and* whose rows
    changed reports both facts; provenance differences are ignored.
    """
    ref, cand = _index(reference, kind), _index(candidate, kind)
    diff = StoreDiff()
    diff.missing = sorted(set(ref) - set(cand))
    diff.extra = sorted(set(cand) - set(ref))
    for name in sorted(set(ref) & set(cand)):
        a, b = ref[name], cand[name]
        problems: List[str] = []
        if a.key_hash != b.key_hash:
            problems.append(f"key changed: {a.key_hash[:12]} -> {b.key_hash[:12]}")
        problems.extend(diff_rows(list(a.rows), list(b.rows)))
        if problems:
            diff.changed[name] = problems
    return diff
