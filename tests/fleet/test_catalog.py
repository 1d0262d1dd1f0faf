"""Job catalog: content addressing, persistence, and failure modes."""

from __future__ import annotations

import json

import pytest

from repro.fleet import (
    CATALOG_FILE,
    CatalogError,
    JobCatalog,
    JobSpec,
    build_catalog,
    file_digest,
    job_id_for,
)

PARAMS = {"signals": ["a"], "constraints": []}


def _write_traces(root, contents):
    paths = []
    for i, text in enumerate(contents):
        path = root / "t{}.trc".format(i)
        path.write_text(text)
        paths.append(path)
    return paths


class TestContentAddressing:
    def test_same_inputs_same_id(self):
        assert job_id_for("ab" * 32, "SYN", PARAMS) == \
            job_id_for("ab" * 32, "SYN", PARAMS)

    def test_id_depends_on_trace_bytes(self):
        assert job_id_for("ab" * 32, "SYN", PARAMS) != \
            job_id_for("cd" * 32, "SYN", PARAMS)

    def test_id_depends_on_dataset_and_params(self):
        base = job_id_for("ab" * 32, "SYN", PARAMS)
        assert job_id_for("ab" * 32, "LIG", PARAMS) != base
        assert job_id_for("ab" * 32, "SYN", {"signals": ["b"]}) != base

    def test_id_ignores_param_key_order(self):
        flipped = {"constraints": [], "signals": ["a"]}
        assert job_id_for("ab" * 32, "SYN", PARAMS) == \
            job_id_for("ab" * 32, "SYN", flipped)

    def test_rebuild_agrees_on_every_id(self, tmp_path):
        paths = _write_traces(tmp_path, ["one\n", "two\n"])
        first = build_catalog(tmp_path, paths, "SYN", PARAMS)
        second = build_catalog(tmp_path, paths, "SYN", PARAMS)
        assert first.job_ids() == second.job_ids()

    def test_file_digest_is_sha256(self, tmp_path):
        path = tmp_path / "t.trc"
        path.write_bytes(b"payload")
        import hashlib

        assert file_digest(path) == hashlib.sha256(b"payload").hexdigest()


class TestBuildCatalog:
    def test_records_relative_paths_and_sizes(self, tmp_path):
        (tmp_path / "traces").mkdir()
        path = tmp_path / "traces" / "j0.trc"
        path.write_text("row\n")
        catalog = build_catalog(tmp_path, [path], "SYN", PARAMS)
        (job,) = list(catalog)
        assert job.trace == "traces/j0.trc"
        assert job.trace_bytes == 4
        assert job.index == 0

    def test_missing_trace_rejected_up_front(self, tmp_path):
        with pytest.raises(CatalogError, match="does not exist"):
            build_catalog(tmp_path, [tmp_path / "nope.trc"], "SYN", PARAMS)

    def test_trace_outside_run_dir_rejected(self, tmp_path):
        inside = tmp_path / "run"
        inside.mkdir()
        outside = tmp_path / "elsewhere.trc"
        outside.write_text("x\n")
        with pytest.raises(CatalogError, match="outside the run directory"):
            build_catalog(inside, [outside], "SYN", PARAMS)

    def test_duplicate_trace_bytes_rejected(self, tmp_path):
        paths = _write_traces(tmp_path, ["same\n", "same\n"])
        with pytest.raises(CatalogError, match="duplicate job id"):
            build_catalog(tmp_path, paths, "SYN", PARAMS)


class TestPersistence:
    def _catalog(self, tmp_path):
        paths = _write_traces(tmp_path, ["one\n", "two\n"])
        return build_catalog(tmp_path, paths, "SYN", PARAMS)

    def test_save_load_roundtrip(self, tmp_path):
        catalog = self._catalog(tmp_path)
        catalog.save(tmp_path)
        loaded = JobCatalog.load(tmp_path)
        assert loaded.dataset == "SYN"
        assert loaded.params == PARAMS
        assert [j.to_dict() for j in loaded] == [j.to_dict() for j in catalog]

    def test_save_leaves_no_staging_debris(self, tmp_path):
        self._catalog(tmp_path).save(tmp_path)
        assert not list(tmp_path.glob(".staging-*"))

    def test_load_missing_catalog(self, tmp_path):
        with pytest.raises(CatalogError, match="no catalog"):
            JobCatalog.load(tmp_path)

    def test_load_corrupt_json(self, tmp_path):
        (tmp_path / CATALOG_FILE).write_text("{not json")
        with pytest.raises(CatalogError, match="not valid JSON"):
            JobCatalog.load(tmp_path)

    def test_load_wrong_format(self, tmp_path):
        (tmp_path / CATALOG_FILE).write_text(
            json.dumps({"format": "something/9", "jobs": []})
        )
        with pytest.raises(CatalogError, match="has format"):
            JobCatalog.load(tmp_path)

    def test_load_missing_job_list(self, tmp_path):
        (tmp_path / CATALOG_FILE).write_text(
            json.dumps({"format": "repro.fleet.catalog/1"})
        )
        with pytest.raises(CatalogError, match="missing its job list"):
            JobCatalog.load(tmp_path)

    def test_null_params_load(self, tmp_path):
        catalog = self._catalog(tmp_path)
        catalog.params = None
        catalog.save(tmp_path)
        assert JobCatalog.load(tmp_path).params is None

    def test_malformed_job_entry(self, tmp_path):
        with pytest.raises(CatalogError, match="malformed job entry"):
            JobSpec.from_dict({"job_id": "abc"})

    def test_job_lookup(self, tmp_path):
        catalog = self._catalog(tmp_path)
        job = catalog.jobs[1]
        assert catalog.job(job.job_id) is job
        with pytest.raises(CatalogError, match="no job"):
            catalog.job("ffffffffffffffff")
