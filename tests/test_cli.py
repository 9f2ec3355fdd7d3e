"""Tests for the command-line interface."""

from __future__ import annotations


import pytest

from repro.cli import _load_engine, build_parser, main
from repro.core.vectorized import plan_for
from repro.graph import FrozenGraph


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    code = main([
        "generate", "--dataset", "yago", "--vertices", "300",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    return out


class TestGenerate:
    def test_files_written(self, dataset_dir):
        assert (dataset_dir / "public.graph").exists()
        assert (dataset_dir / "private_user0.graph").exists()

    def test_ppdblp_vertices_mapping(self, tmp_path):
        code = main([
            "generate", "--dataset", "ppdblp", "--vertices", "200",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "public.graph").exists()


class TestIndex:
    def test_build_and_persist(self, dataset_dir, tmp_path):
        out = tmp_path / "idx.jsonl"
        code = main([
            "index", "--graph", str(dataset_dir / "public.graph"),
            "--out", str(out), "--k", "2",
        ])
        assert code == 0
        assert out.exists() and out.stat().st_size > 0


class TestQuery:
    def _common(self, dataset_dir):
        return [
            "--public", str(dataset_dir / "public.graph"),
            "--private", str(dataset_dir / "private_user0.graph"),
        ]

    def test_blinks_query(self, dataset_dir, capsys):
        code = main([
            "query", *self._common(dataset_dir),
            "--semantic", "blinks", "--keywords", "t0,t1", "--tau", "5",
        ])
        assert code == 0
        assert "public-private answers" in capsys.readouterr().out

    def test_rclique_with_persisted_index(self, dataset_dir, tmp_path, capsys):
        idx = tmp_path / "idx.jsonl"
        main(["index", "--graph", str(dataset_dir / "public.graph"),
              "--out", str(idx)])
        capsys.readouterr()
        code = main([
            "query", *self._common(dataset_dir), "--index", str(idx),
            "--semantic", "rclique", "--keywords", "t0,t2", "--tau", "5",
        ])
        assert code == 0
        assert "answers" in capsys.readouterr().out

    def test_engine_from_persisted_index_is_frozen(self, dataset_dir,
                                                   tmp_path):
        idx = tmp_path / "idx.jsonl"
        assert main(["index", "--graph", str(dataset_dir / "public.graph"),
                     "--out", str(idx)]) == 0
        args = build_parser().parse_args([
            "query", *self._common(dataset_dir), "--index", str(idx),
            "--semantic", "blinks", "--keywords", "t0,t1",
        ])
        engine = _load_engine(args)
        assert isinstance(engine.public, FrozenGraph)
        assert plan_for(engine, "vectorized") is not None

    def test_knk_query(self, dataset_dir, capsys):
        code = main([
            "query", *self._common(dataset_dir),
            "--semantic", "knk", "--keywords", "t0",
            "--source", "user0:v0", "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "matches" in out

    def test_missing_keywords_is_error(self, dataset_dir, capsys):
        code = main([
            "query", *self._common(dataset_dir), "--semantic", "blinks",
        ])
        assert code == 2

    def test_knk_missing_source_is_error(self, dataset_dir):
        code = main([
            "query", *self._common(dataset_dir),
            "--semantic", "knk", "--keywords", "t0",
        ])
        assert code == 2


class TestBench:
    def test_bench_small(self, capsys):
        code = main([
            "bench", "--dataset", "ppdblp", "--semantic", "blinks",
            "--scale", "small", "--queries", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PPKWS(ms)" in out
        assert "PEval(ms)" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
