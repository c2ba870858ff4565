"""Determinism and caching of the sharded grid executor.

The two load-bearing guarantees: a pooled run is byte-identical to a
serial run of the same cells, and the content-addressed cache serves
repeat runs while a source-tree fingerprint change invalidates it.
"""

import json

import pytest

from repro.grid import GridCache, GridCell, enumerate_grid, run_grid, source_fingerprint
from repro.grid.cache import CACHE_FORMAT, cell_key

CELLS = enumerate_grid(
    scenarios=[1, 5], platforms=["pentium3", "cisco"], seeds=[7], table_sizes=[100]
)


class TestDeterminism:
    def test_pooled_run_byte_identical_to_serial(self):
        serial = run_grid(CELLS, workers=1)
        pooled = run_grid(CELLS, workers=2)
        assert serial.to_json() == pooled.to_json()

    def test_results_keyed_in_enumeration_order(self):
        report = run_grid(CELLS, workers=2)
        assert list(report.results) == [cell.cell_id for cell in CELLS]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_grid(CELLS, workers=0)


class TestCache:
    def test_warm_run_is_all_hits(self, tmp_path):
        cache = GridCache(tmp_path / "cache", fingerprint="fp")
        cold = run_grid(CELLS, workers=1, cache=cache)
        assert cold.executed == len(CELLS) and cold.hits == 0

        warm_cache = GridCache(tmp_path / "cache", fingerprint="fp")
        warm = run_grid(CELLS, workers=1, cache=warm_cache)
        assert warm.executed == 0
        assert warm.hits == len(CELLS)
        assert warm.hit_rate == 1.0
        assert warm.to_json() == cold.to_json()

    def test_fingerprint_change_invalidates_cells(self, tmp_path):
        cache = GridCache(tmp_path / "cache", fingerprint="before")
        run_grid(CELLS, workers=1, cache=cache)

        stale = GridCache(tmp_path / "cache", fingerprint="after")
        rerun = run_grid(CELLS, workers=1, cache=stale)
        assert rerun.hits == 0
        assert rerun.executed == len(CELLS)

    def test_refresh_bypasses_hits_but_rewrites_entries(self, tmp_path):
        cache = GridCache(tmp_path / "cache", fingerprint="fp")
        run_grid(CELLS, workers=1, cache=cache)
        refreshed = run_grid(CELLS, workers=1, cache=cache, refresh=True)
        assert refreshed.hits == 0 and refreshed.executed == len(CELLS)
        warm = run_grid(CELLS, workers=1, cache=GridCache(tmp_path / "cache", "fp"))
        assert warm.hits == len(CELLS)

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = GridCache(tmp_path / "cache", fingerprint="fp")
        cell = CELLS[0]
        path = cache.put(cell, {"transactions": 1})
        no_result = {"format": CACHE_FORMAT, "cell": cell.spec()}
        damaged = ["{not json", "[]", "null", json.dumps(no_result)]
        for misses, text in enumerate(damaged, start=1):
            path.write_text(text)
            assert cache.get(cell) is None
            assert (cache.hits, cache.misses) == (0, misses)
        report = run_grid([cell], cache=cache)
        assert report.executed == 1 and cache.get(cell) == report.results[cell.cell_id]

    def test_entry_is_self_describing(self, tmp_path):
        cache = GridCache(tmp_path / "cache", fingerprint="fp")
        cell = CELLS[0]
        path = cache.put(cell, {"transactions": 1})
        entry = json.loads(path.read_text())
        assert entry["cell"] == cell.spec()
        assert entry["fingerprint"] == "fp"

    def test_progress_callback_reports_cache_state(self, tmp_path):
        cache = GridCache(tmp_path / "cache", fingerprint="fp")
        seen = []
        run_grid(CELLS[:1], cache=cache, progress=lambda c, hit: seen.append((c, hit)))
        run_grid(CELLS[:1], cache=cache, progress=lambda c, hit: seen.append((c, hit)))
        assert seen == [(CELLS[0].cell_id, False), (CELLS[0].cell_id, True)]


class TestSourceFingerprint:
    def test_changes_when_a_source_file_changes(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        (root / "b.py").write_text("y = 2\n")
        before = source_fingerprint(root)
        (root / "a.py").write_text("x = 3\n")
        assert source_fingerprint(root) != before

    def test_changes_when_a_file_is_added_or_renamed(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        before = source_fingerprint(root)
        (root / "c.py").write_text("z = 1\n")
        added = source_fingerprint(root)
        assert added != before
        (root / "c.py").rename(root / "d.py")
        assert source_fingerprint(root) != added

    def test_default_digests_the_live_repro_tree(self):
        live = source_fingerprint()
        assert len(live) == 64
        assert live == source_fingerprint()

    def test_live_fingerprint_keys_the_default_cache(self, tmp_path):
        cache = GridCache(tmp_path / "cache")
        assert cache.fingerprint == source_fingerprint()
        cell = GridCell(1, "xeon", 42, 100)
        assert cache.path_for(cell).name == f"{cell_key(cell, cache.fingerprint)}.json"
