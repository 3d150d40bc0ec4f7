"""Tests for the content-addressed result store (repro.exec.store)."""

import os

import pytest

from repro.exec.store import ResultStore, content_key, default_cache_dir


class TestContentKey:
    def test_deterministic(self):
        assert content_key("a", 1, [2.0]) == content_key("a", 1, [2.0])

    def test_sensitive_to_parts_and_order(self):
        assert content_key("a", 1) != content_key("a", 2)
        assert content_key("a", "b") != content_key("b", "a")

    def test_dict_key_order_irrelevant(self):
        assert (content_key({"x": 1, "y": 2})
                == content_key({"y": 2, "x": 1}))

    def test_folds_package_version(self, monkeypatch):
        before = content_key("a")
        monkeypatch.setattr("repro.exec.store.__version__",
                            "999.0.0-test")
        assert content_key("a") != before

    def test_is_hex_digest(self):
        key = content_key("a")
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().endswith(os.path.join(".cache",
                                                         "repro"))


class TestResultStore:
    @pytest.fixture
    def store(self, tmp_path):
        return ResultStore(str(tmp_path / "store"))

    def test_round_trip(self, store):
        key = content_key("unit", 1)
        assert store.put(key, {"rows": [1, 2, 3]})
        assert store.get(key) == {"rows": [1, 2, 3]}
        assert store.contains(key)

    def test_miss_returns_default(self, store):
        assert store.get(content_key("absent"), "fallback") == "fallback"

    def test_stored_none_is_a_hit(self, store):
        key = content_key("none")
        store.put(key, None)
        sentinel = object()
        assert store.get(key, sentinel) is None

    def test_corrupt_entry_degrades_to_miss_and_is_dropped(self, store):
        key = content_key("corrupt")
        store.put(key, "ok")
        path = store._path(key)
        with open(path, "wb") as handle:
            handle.write(b"\x80\x05 not a pickle")
        assert store.get(key, "default") == "default"
        assert not os.path.exists(path)  # poisoned entry removed

    def test_hit_touches_mtime_so_lru_keeps_hot_entries(self, tmp_path):
        # regression: without the utime-on-hit touch, a frequently-read
        # entry keeps its creation mtime and is evicted as "oldest"
        store = ResultStore(str(tmp_path / "hot"), max_entries=2)
        keys = [content_key("hot", i) for i in range(3)]
        store.put(keys[0], 0)
        os.utime(store._path(keys[0]), (1000, 1000))
        store.put(keys[1], 1)
        os.utime(store._path(keys[1]), (2000, 2000))
        assert store.get(keys[0]) == 0  # hit must refresh keys[0]
        assert os.path.getmtime(store._path(keys[0])) > 2000
        store.put(keys[2], 2)
        store._evict()
        assert store.contains(keys[0])      # hot entry survives
        assert not store.contains(keys[1])  # cold entry evicted
        assert store.contains(keys[2])

    def test_eviction_drops_oldest(self, tmp_path):
        store = ResultStore(str(tmp_path / "small"), max_entries=2)
        keys = [content_key("evict", i) for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, i)
            # distinct mtimes so the LRU order is unambiguous
            os.utime(store._path(key), (1000 + i, 1000 + i))
        store._evict()
        surviving = [k for k in keys if store.contains(k)]
        assert surviving == keys[-2:]  # oldest evicted, newest kept

    def test_put_under_the_bound_does_not_scan(self, tmp_path,
                                               monkeypatch):
        store = ResultStore(str(tmp_path / "counted"), max_entries=4)
        scans = []
        entries = store._entries
        monkeypatch.setattr(store, "_entries",
                            lambda: scans.append(1) or entries())
        for i in range(4):
            store.put(content_key("count", i), i)
        store.put(content_key("count", 0), "same key, not a new entry")
        assert scans == []
        store.put(content_key("count", 4), 4)
        assert scans == [1]

    def test_over_bound_store_trims_oldest_first(self, tmp_path):
        root = str(tmp_path / "full")
        unbounded = ResultStore(root, max_entries=None)
        keys = [content_key("trim", i) for i in range(10)]
        for i, key in enumerate(keys):
            unbounded.put(key, i)
            os.utime(unbounded._path(key), (1000 + i, 1000 + i))
        store = ResultStore(root, max_entries=8)
        fresh = content_key("trim", "fresh")
        store.put(fresh, "newest")
        surviving = [k for k in keys + [fresh] if store.contains(k)]
        assert len(surviving) <= 8
        assert surviving == (keys + [fresh])[-len(surviving):]
        # trimmed below the bound: the next puts only count
        assert store._count == len(surviving) < 8

    def test_clear_and_stats(self, store):
        for i in range(3):
            store.put(content_key("stat", i), i)
        stats = store.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert store.clear() == 3
        assert store.stats()["entries"] == 0

    def test_put_never_raises_on_unpicklable(self, store):
        assert store.put(content_key("bad"), lambda: 0) is False
