"""``PagesDatasource`` (sources/readers.py) reads what ``rd.read_parquet``
reads: the same rows, in the same order, with the same column types."""

import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from ai_service_ocr_grading_handler_ray.sources import readers
from ai_service_ocr_grading_handler_ray.sources.readers import PagesDatasource, read_pages
from ai_service_ocr_grading_handler_ray.synth import docs_to_pages


@pytest.fixture(scope="module")
def pages(sf_dir):
    return docs_to_pages(pq.read_table(f"{sf_dir}/documents.parquet"))


@pytest.fixture(scope="module")
def pages_files(tmp_path_factory, pages):
    """Six Parquet files of the sf0.001 pages."""
    d = tmp_path_factory.mktemp("pages")
    files = []
    for i in range(6):
        files.append(str(d / f"pages-{i}.parquet"))
        pq.write_table(pages.slice(i * 80, 80), files[-1])
    return files


def _table(ds: rd.Dataset) -> pa.Table | None:
    """Every row of ``ds`` in read order, columns in name order; None when
    it has none."""
    ds.context.execution_options.preserve_order = True  # its own context copy
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return None
    table = pa.concat_tables(tables, promote_options="default")
    return table.select(sorted(table.column_names))


def assert_reads_like_ray(paths, include_paths=False):
    source = PagesDatasource([paths] if isinstance(paths, str) else paths, include_paths)
    tasks = source.read_tasks()
    ours = rd.read_datasource(source, override_num_blocks=tasks)
    theirs = rd.read_parquet(paths, include_paths=include_paths, override_num_blocks=tasks)
    got, want = _table(ours), _table(theirs)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.schema == want.schema
        assert got.equals(want)
    return got


def test_six_files_and_one_str_path(pages_files, pages):
    got = assert_reads_like_ray(pages_files)
    assert got.num_rows == 480
    assert got["url"].to_pylist() == pages["url"].to_pylist()[:480]
    assert assert_reads_like_ray(pages_files[2]).num_rows == 80


def test_empty_file_and_several_row_groups(tmp_path, pages):
    empty, groups = str(tmp_path / "empty.parquet"), str(tmp_path / "groups.parquet")
    pq.write_table(pages.slice(0, 0), empty)
    pq.write_table(pages.slice(0, 200), groups, row_group_size=30)
    assert pq.read_metadata(groups).num_row_groups == 7
    assert assert_reads_like_ray(empty) is None
    assert assert_reads_like_ray([empty, groups, empty]).num_rows == 200


def test_include_paths_and_a_relative_path(pages_files):
    """``path`` holds each file's path as given, relative ones too."""
    got = assert_reads_like_ray(pages_files, include_paths=True)
    assert got["path"].to_pylist() == [f for f in pages_files for _ in range(80)]
    relative = [os.path.relpath(f) for f in pages_files[:2]]
    assert not os.path.isabs(relative[0])
    got = assert_reads_like_ray(relative, include_paths=True)
    assert got["path"].to_pylist() == [f for f in relative for _ in range(80)]


def test_drifted_schemas_read_into_one(tmp_path):
    """A file without ``lang`` next to one whose ``text`` is null-typed:
    ``lang`` reads as nulls in the first, ``text`` as strings in both."""
    ts = pa.array([1, 2], pa.timestamp("us"))
    a = pa.table({"url": ["a1", "a2"], "warc_ts": ts,
                  "html": pa.array([b"<p>x", b"%PDF-"], pa.binary()), "text": ["t1", None]})
    b = pa.table({"url": ["b1", "b2"], "warc_ts": ts,
                  "html": pa.array([b"<q", b""], pa.binary()), "text": pa.nulls(2),
                  "lang": ["en", None]})
    pq.write_table(a, str(tmp_path / "a.parquet"))
    pq.write_table(b, str(tmp_path / "b.parquet"))
    for names in (["a", "b"], ["b", "a"]):
        files = [str(tmp_path / f"{n}.parquet") for n in names]
        got = assert_reads_like_ray(files, include_paths=True)
        assert got.schema.field("text").type == pa.string()
        assert got.schema.field("lang").type == pa.string()
        rows = {r["url"]: r for r in got.to_pylist()}
        assert rows["a1"]["lang"] is None and rows["a1"]["text"] == "t1"
        assert rows["b1"]["lang"] == "en" and rows["b1"]["text"] is None
        # one block per file, each in the one schema
        ds = rd.read_datasource(PagesDatasource(files, True), override_num_blocks=2)
        blocks = ray.get(ds.to_arrow_refs())
        assert len(blocks) == 2
        for block in blocks:
            assert block.schema == ds.schema().base_schema
            assert block.column_names == ["url", "warc_ts", "html", "text", "lang", "path"]


def test_groups_are_contiguous_runs_of_whole_files(pages_files):
    source = PagesDatasource(pages_files)
    for n in (1, 4, 6):
        tasks = source.get_read_tasks(n)
        groups = [t.metadata.input_files for t in tasks]
        assert len(groups) == n
        assert [f for g in groups for f in g] == pages_files
        assert max(map(len, groups)) - min(map(len, groups)) <= 1
        assert sum(t.metadata.num_rows for t in tasks) == 480


def _read_operators(ds: rd.Dataset) -> list[str]:
    return re.findall(r"^Operator \d+ (\S+):", ds.materialize().stats(), flags=re.M)


def test_what_it_cannot_read_goes_to_rays_reader(tmp_path, pages_files):
    """A directory of page files is read by the datasource; only a nested
    directory goes to Ray's reader, and a file that is not Parquet and a
    missing path raise."""
    flat = read_pages(os.path.dirname(pages_files[0]))
    assert sorted(flat.input_files()) == pages_files
    assert _read_operators(flat) == ["ReadPages"]
    nested = tmp_path / "nested"
    (nested / "part=0").mkdir(parents=True)
    pq.write_table(pq.read_table(pages_files[0]), str(nested / "part=0" / "x.parquet"))
    assert readers._hive_parquet(str(nested))
    assert _read_operators(read_pages(str(nested)))[0].startswith("ReadParquet")
    assert read_pages(str(nested)).count() == 80
    text = tmp_path / "notes.parquet"
    text.write_text("not parquet")
    with pytest.raises(pa.ArrowInvalid):
        read_pages(str(text))
    with pytest.raises(FileNotFoundError):
        read_pages(str(tmp_path / "missing.parquet"))
