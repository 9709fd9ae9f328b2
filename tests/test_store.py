"""The content-addressed results store: hashing, idempotence, provenance, diff."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import store as store_module
from repro.scenarios.store import (
    FORMAT_VERSION,
    ResultsStore,
    canonical_json,
    content_key,
    diff_rows,
    diff_stores,
)
from repro.version import __version__

KEY = {"experiment": "e99", "scale": "smoke", "params": {"n": 24, "seeds": [0, 1]}}
ROWS = [
    {"n": 24.0, "valid_fraction_mean": 1.0, "setting": "a"},
    {"n": 24.0, "valid_fraction_mean": 0.5, "setting": "b"},
]


class TestContentKey:
    def test_stable_across_dict_key_order(self):
        shuffled = {"params": {"seeds": [0, 1], "n": 24}, "scale": "smoke", "experiment": "e99"}
        assert content_key(KEY) == content_key(shuffled)

    def test_changes_with_any_value(self):
        mutated = {**KEY, "scale": "full"}
        assert content_key(KEY) != content_key(mutated)

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestPut:
    def test_created_then_unchanged(self, tmp_path):
        store = ResultsStore(tmp_path)
        entry, status = store.put("smoke", "e99", KEY, ROWS)
        assert status == "created"
        assert entry.path.exists()
        before = entry.path.read_bytes()

        again, status = store.put("smoke", "e99", KEY, ROWS)
        assert status == "unchanged"
        # Idempotent rerun: the file is byte-for-byte untouched.
        assert again.path.read_bytes() == before

    def test_updated_on_row_drift(self, tmp_path):
        store = ResultsStore(tmp_path)
        entry, _ = store.put("smoke", "e99", KEY, ROWS)
        drifted = [dict(ROWS[0], valid_fraction_mean=0.25), ROWS[1]]
        updated, status = store.put("smoke", "e99", KEY, drifted)
        assert status == "updated"
        assert updated.path == entry.path
        assert store.load(entry.path).rows[0]["valid_fraction_mean"] == 0.25

    def test_provenance_and_schema_populated(self, tmp_path):
        store = ResultsStore(tmp_path)
        entry, _ = store.put("smoke", "e99", KEY, ROWS)
        data = json.loads(entry.path.read_text())
        assert data["format"] == FORMAT_VERSION
        assert data["key"] == KEY
        assert data["key_hash"] == content_key(KEY)
        assert data["provenance"]["repro_version"] == __version__
        assert "git_sha" in data["provenance"]  # best-effort: a sha or null
        assert data["row_schema"] == ["n", "setting", "valid_fraction_mean"]

    def test_git_sha_asked_once_per_working_directory(self, tmp_path, monkeypatch):
        """Writes reuse one ``git rev-parse`` per directory; a new cwd asks again."""
        calls = []
        real_run = store_module.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(kwargs.get("cwd"))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(store_module.subprocess, "run", counting_run)
        store_module._git_sha_in.cache_clear()
        try:
            store = ResultsStore(tmp_path / "store")
            shas = [
                store.put("smoke", "e99", {**KEY, "i": i}, ROWS)[0].provenance["git_sha"]
                for i in range(3)
            ]
            assert len(calls) == 1 and len(set(shas)) == 1
            elsewhere = tmp_path / "elsewhere"
            elsewhere.mkdir()
            monkeypatch.chdir(elsewhere)
            store.put("smoke", "e99", {**KEY, "i": 3}, ROWS)
            assert calls == [calls[0], str(elsewhere)]
        finally:
            store_module._git_sha_in.cache_clear()

    def test_file_name_embeds_label_and_hash(self, tmp_path):
        store = ResultsStore(tmp_path)
        entry, _ = store.put("smoke", "e99", KEY, ROWS)
        assert entry.path.name == f"e99-{content_key(KEY)[:12]}.json"

    def test_corrupt_entry_self_heals(self, tmp_path):
        store = ResultsStore(tmp_path)
        entry, _ = store.put("smoke", "e99", KEY, ROWS)
        entry.path.write_text("{truncated")  # e.g. an interrupted earlier run
        healed, status = store.put("smoke", "e99", KEY, ROWS)
        assert status == "updated"
        assert store.load(healed.path).rows == entry.rows

    def test_nan_rows_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        rows = [{"rounds_mean": float("nan")}]
        _, first = store.put("smoke", "nan-case", KEY, rows)
        _, second = store.put("smoke", "nan-case", KEY, rows)
        assert (first, second) == ("created", "unchanged")


class TestDiff:
    def test_diff_rows_catches_a_mutated_cell(self):
        mutated = [dict(ROWS[0], valid_fraction_mean=0.0), ROWS[1]]
        problems = diff_rows(ROWS, mutated)
        assert len(problems) == 1
        assert "valid_fraction_mean" in problems[0]
        assert diff_rows(ROWS, [dict(r) for r in ROWS]) == []

    def test_diff_rows_reports_schema_and_count_changes(self):
        problems = diff_rows(ROWS, [dict(ROWS[0], extra=1.0)])
        assert any("row count" in p for p in problems)
        assert any("columns added: ['extra']" in p for p in problems)

    def test_diff_stores_clean_on_copies(self, tmp_path):
        a, b = ResultsStore(tmp_path / "a"), ResultsStore(tmp_path / "b")
        a.put("smoke", "e99", KEY, ROWS)
        b.put("smoke", "e99", KEY, ROWS)
        assert diff_stores(a, b).clean

    def test_diff_stores_flags_missing_extra_and_changed(self, tmp_path):
        a, b = ResultsStore(tmp_path / "a"), ResultsStore(tmp_path / "b")
        a.put("smoke", "only-in-a", KEY, ROWS)
        a.put("smoke", "shared", KEY, ROWS)
        b.put("smoke", "shared", KEY, [dict(ROWS[0], n=999.0), ROWS[1]])
        b.put("smoke", "only-in-b", KEY, ROWS)
        diff = diff_stores(a, b)
        assert not diff.clean
        assert diff.missing == ["smoke/only-in-a"]
        assert diff.extra == ["smoke/only-in-b"]
        assert list(diff.changed) == ["smoke/shared"]
        assert "n: 24.0 -> 999.0" in diff.describe()

    def test_diff_stores_reports_key_change(self, tmp_path):
        a, b = ResultsStore(tmp_path / "a"), ResultsStore(tmp_path / "b")
        a.put("smoke", "e99", KEY, ROWS)
        b.put("smoke", "e99", {**KEY, "params": {"n": 48}}, ROWS)
        diff = diff_stores(a, b)
        assert any("key changed" in p for p in diff.changed["smoke/e99"])


class TestLoad:
    def test_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else", "rows": []}))
        with pytest.raises(ConfigurationError, match="unsupported store entry format"):
            ResultsStore.load(path)

    def test_entries_iterates_kinds_in_order(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.put("smoke", "one", KEY, ROWS)
        store.put("experiments", "two", {**KEY, "scale": "full"}, ROWS)
        assert [e.kind for e in store.entries()] == ["experiments", "smoke"]
        assert [e.kind for e in store.entries("smoke")] == ["smoke"]
