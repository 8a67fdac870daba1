"""Tests for the normalized benchmark result schema and provenance env."""

import json

import pytest

from repro.bench.env import (
    host_class,
    host_class_of,
    host_fingerprint,
    provenance_header,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    SchemaError,
    load_history,
    load_results,
    new_record,
    timing_from_stats,
    validate_record,
    write_results,
)


class TestHostFingerprint:
    def test_keys_always_present(self):
        fp = host_fingerprint()
        for key in ("cpus", "machine", "platform", "python",
                    "blas_threads", "git_rev", "git_dirty"):
            assert key in fp

    def test_git_rev_in_repo(self):
        fp = host_fingerprint()
        # the test suite runs from a git checkout
        assert isinstance(fp["git_rev"], str) and len(fp["git_rev"]) == 40

    def test_host_class_shape(self):
        assert host_class().endswith("cpu")

    def test_host_class_of_legacy_dict(self):
        # A host dict without a "machine" key is its own class: the
        # platform string is not parsed for one.
        legacy = {
            "cpus": 1,
            "platform": "Linux-6.18.5-x86_64-with-glibc2.36",
            "python": "3.11.7",
        }
        assert host_class_of(legacy) == "unknown-1cpu"

    def test_host_class_of_unknown(self):
        assert host_class_of({}) == "unknown-?cpu"

    def test_provenance_header(self):
        header = provenance_header(scale=0.01, threads=[1, 2],
                                   extra={"figure": "fig4"})
        assert all(line.startswith("#") for line in header.strip().splitlines())
        assert "git_rev:" in header
        assert "scale: 0.01" in header
        assert "threads: 1,2" in header
        assert "figure: fig4" in header


class TestTimingFromStats:
    def test_stats(self):
        t = timing_from_stats([3.0, 1.0, 2.0])
        assert t["mean_s"] == pytest.approx(2.0)
        assert t["median_s"] == pytest.approx(2.0)
        assert t["min_s"] == 1.0
        assert t["max_s"] == 3.0
        assert t["repeats"] == 3

    def test_even_count_median(self):
        assert timing_from_stats([1.0, 2.0, 3.0, 4.0])["median_s"] == 2.5

    def test_empty_rejected(self):
        with pytest.raises(SchemaError, match="at least one sample"):
            timing_from_stats([])


class TestRecordValidation:
    def test_new_record_is_valid(self):
        r = new_record("fig5", "N3/n1/onestep/T1",
                       timing={"median_s": 0.5, "repeats": 3},
                       params={"threads": 1}, counters={"flops": 100.0})
        assert validate_record(r) is r
        assert r["schema_version"] == SCHEMA_VERSION
        assert r["timing"]["mean_s"] is None  # key set complete

    def test_median_falls_back_to_mean(self):
        r = new_record("b", "c", timing={"mean_s": 0.25})
        assert r["timing"]["median_s"] == 0.25

    def test_missing_key(self):
        r = new_record("b", "c", timing={"median_s": 0.1})
        del r["host"]
        with pytest.raises(SchemaError, match="missing required key 'host'"):
            validate_record(r)

    def test_wrong_version(self):
        r = new_record("b", "c", timing={"median_s": 0.1})
        r["schema_version"] = 99
        with pytest.raises(SchemaError, match="unsupported schema_version"):
            validate_record(r)

    def test_empty_benchmark_name(self):
        r = new_record("b", "c", timing={"median_s": 0.1})
        r["benchmark"] = ""
        with pytest.raises(SchemaError, match="non-empty string"):
            validate_record(r)

    def test_median_required(self):
        with pytest.raises(SchemaError, match="median_s"):
            new_record("b", "c", timing={})

    def test_negative_median_rejected(self):
        with pytest.raises(SchemaError, match=">= 0"):
            new_record("b", "c", timing={"median_s": -1.0})

    def test_non_numeric_counter_rejected(self):
        r = new_record("b", "c", timing={"median_s": 0.1})
        r["counters"]["flops"] = "many"
        with pytest.raises(SchemaError, match="counters.*must be numeric"):
            validate_record(r)

    def test_host_requires_legacy_keys(self):
        with pytest.raises(SchemaError, match="host.*missing key"):
            new_record("b", "c", timing={"median_s": 0.1}, host={"cpus": 1})


class TestResultsFiles:
    def _records(self):
        return [
            new_record("fig5", f"case{i}", timing={"median_s": 0.1 * (i + 1)})
            for i in range(3)
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.bench.json"
        write_results(str(path), self._records(), meta={"note": "test"})
        loaded = load_results(str(path))
        assert len(loaded) == 3
        assert loaded[1]["case"] == "case1"
        assert loaded[1]["timing"]["median_s"] == pytest.approx(0.2)

    def test_writer_validates(self, tmp_path):
        bad = self._records()
        bad[0]["timing"]["median_s"] = None
        with pytest.raises(SchemaError):
            write_results(str(tmp_path / "x.bench.json"), bad)

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "x.bench.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(SchemaError, match="kind"):
            load_results(str(path))

    def test_load_history_skips_bad_files(self, tmp_path):
        write_results(str(tmp_path / "good.bench.json"), self._records())
        (tmp_path / "bad.bench.json").write_text("{not json")
        (tmp_path / "ignored.json").write_text("{}")
        with pytest.warns(UserWarning, match="skipping"):
            records = load_history(str(tmp_path))
        assert len(records) == 3
        assert all(r["context"]["file"] == "good.bench.json" for r in records)

    def test_load_history_strict(self, tmp_path):
        (tmp_path / "bad.bench.json").write_text("{not json")
        with pytest.raises(SchemaError):
            load_history(str(tmp_path), strict=True)

    def test_load_history_rejects_duplicate_case(self, tmp_path):
        write_results(str(tmp_path / "a.bench.json"), self._records())
        write_results(str(tmp_path / "b.bench.json"), self._records()[1:2])
        with pytest.raises(SchemaError, match="case1.*a.bench.json.*b.bench.json"):
            load_history(str(tmp_path))

    def test_load_history_missing_dir(self, tmp_path):
        assert load_history(str(tmp_path / "nope")) == []
