import argparse
import ast
import gc
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import sdglab
from sdglab import pipeline
from sdglab.cli import build_parser, main
from sdglab.pipeline import TABLE_COLUMNS, PipelineConfig, PipelineError, run_pipeline
from sdglab.query import MAX_DEPTH
from sdglab.termmap import TermMapConfig

# sha256 of every demo pipeline output, as the manifest records them.
DEMO_OUTPUTS = {
    "comparisons/alpha__beta/overlap.json":
        "2257609ce14dcf8ae2d144ad4a92508f5310d7348f4b5c609331c32322a36c95",
    "comparisons/alpha__beta/overlap.svg":
        "934761f655d9587a72a44f327b2f8f350e77c724a67403ffaec14a623e59cac9",
    "comparisons/alpha__delta/overlap.json":
        "8e9f6f96863d145bb3f90218549f3332a0abbd05e82cc6e217a7a43c2c2fb1e2",
    "comparisons/alpha__delta/overlap.svg":
        "4e462753e281a9e2ef2961d2810bcb3170f2397c345eedc7c722fcef4c1354ab",
    "comparisons/alpha__gamma/overlap.json":
        "0fea73419385e05cce483b54413cf4a64ea44d862ad84ad3405de705ad6a98e8",
    "comparisons/alpha__gamma/overlap.svg":
        "2438c55f22cc6fb73a29417b55a016dbb1f420e8f7e28c7f4a84b4f32889e380",
    "comparisons/beta__delta/overlap.json":
        "b1a711a9d33a80cbfe39aa2e97a3ff944db0ac7b9b89cdd21760a52077238d66",
    "comparisons/beta__delta/overlap.svg":
        "8dcdc4d9ccd5deee6820c49aa337df5f5ecdb36a02f8e8627047ee152878e6c6",
    "comparisons/beta__gamma/overlap.json":
        "e0de04543ae77f98d0d836ac6041b17eff9679e1edadd9c20b57ccdde2051b0f",
    "comparisons/beta__gamma/overlap.svg":
        "e2c5f4f7c8309dbe82e19c984625b3d1b96c740a9b12d64eed8e1f8b4c877c92",
    "comparisons/gamma__delta/overlap.json":
        "934a80954d6823bf408dfba2e015e5fac1401c8930e107d41e9e9972c03881ea",
    "comparisons/gamma__delta/overlap.svg":
        "25f91c4d3e581c7398cb372e5a9281ce3ba2d6c077d9ed9210aa309a6c8956d2",
    "reports/bundle.json":
        "d094eca50a000f94314dc2027600021a388f179dd073bd0e1036a84de4eb66b6",
    "reports/table3.csv":
        "4f4cf2a2116873ab12079a1993c0ac90899964af29b9ec49cd91be0a30afa309",
    "reports/table3.md":
        "1ee9f087ad5fcb833739fc72ddacc98ab471849db56e8b63ecce7c775c8cf41a",
    "reports/table4.csv":
        "e286cd12daaa61c33076f2c3c87215c2d88f091d9e8b902d4c1ff5e24c6bdf3c",
    "reports/table4.md":
        "97127e184e759ce6d78ea90581e5efe962f2ac17770825315a7aa25441b27469",
    "reports/table5.csv":
        "f70e879e5e7a42e2c53418984659f30baf6a88ab45b8a5a9dedd0ac9be4c0306",
    "reports/table5.md":
        "f169e364243ec4bd717ce6767b87e577a35441a182b2198ec390fdf9c4341085",
    "results/alpha/result.json":
        "1682bb81f6351c312151c66d0e6d4f2df416c05b91b0759fb4fbf50950f7b879",
    "results/beta/enhancement.json":
        "fe0419f8ff37313a9243b3e6a96f1cc32059a132d147fac1c4b056103e342deb",
    "results/beta/result.json":
        "d2a9a967441dc5c7e5bd6b5c961cb3f30ea117682ad811c046827f6f735c17f2",
    "results/delta/result.json":
        "fff4c277fd79428c4098908aaf39d51e76959d4c5d1af30cfe7b8501ba90366a",
    "results/gamma/result.json":
        "1dfacb8f6b4a039cc885b94423b386d73a3ab71a17815e2331ae412f42841b07",
    "termmaps/alpha__gamma/termmap.graphml":
        "09582749bc4a9ea9287abea9803c7b50aa6919447cebe586dd38616d3057eff1",
    "termmaps/alpha__gamma/termmap.html":
        "db11d8fe1a347c5559d508e031088434843684bcb8b46a71b927312fc7bc506d",
    "termmaps/alpha__gamma/termmap.json":
        "65f6fa82ad98c78f36144604b225fd605e18531eaef757a3d1d5f261c6dc78b0",
    "termmaps/beta__delta/termmap.graphml":
        "c6279cd5376faca051e657536976d8c8a9239c24bf08b37ff186b0fb98471ab9",
    "termmaps/beta__delta/termmap.html":
        "3d05a03dd9bf42a53e6428101e24dcfe0833f3c2353937bae755f3471647b5bf",
    "termmaps/beta__delta/termmap.json":
        "fe6a0b3a75992578f50c8741d08ac97ef9a24169716d6535ce739aa7378b3b31",
}
DEMO_OUTPUTS_SHA256 = "80d875b94d09ddb0e19eab4ab898e21c4d13c62b3afdf01f0968733c0ea668b3"


@pytest.fixture()
def demo_config(demo_dir, tmp_path):
    return PipelineConfig.load(demo_dir / "config.json",
                               output_dir=tmp_path / "out")


def tree_digest(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class TestRunPipeline:
    def test_demo_bundle_shape(self, demo_config):
        bundle = run_pipeline(demo_config)
        assert len(bundle.table3) == 4
        assert len(bundle.table4) == 4
        assert len(bundle.table5) == 6

    def test_rerun_is_byte_identical(self, demo_dir, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_pipeline(PipelineConfig.load(demo_dir / "config.json", out1))
        run_pipeline(PipelineConfig.load(demo_dir / "config.json", out2))
        assert tree_digest(out1) == tree_digest(out2)

    def test_demo_outputs_are_golden(self, demo_config):
        outputs = run_pipeline(demo_config).manifest["outputs"]
        assert outputs == DEMO_OUTPUTS
        assert hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()) \
            .hexdigest() == DEMO_OUTPUTS_SHA256

    def test_manifest_lists_every_output_with_hash(self, demo_config, monkeypatch):
        # the digests are taken as the files are written: no output is read back
        def written_only(file, mode="r", *args, **kwargs):
            assert "w" in mode, f"{file} opened with mode {mode!r}"
            return open(file, mode, *args, **kwargs)

        def unread(path, *args, **kwargs):
            raise AssertionError(f"{path} read back")

        monkeypatch.setattr(pipeline, "open", written_only, raising=False)
        monkeypatch.setattr(Path, "read_bytes", unread)
        monkeypatch.setattr(Path, "read_text", unread)
        run_pipeline(demo_config)
        monkeypatch.undo()
        out = demo_config.output_dir
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == tree_digest(out)

    def test_indexes_released_before_enhancement(self, demo_config, monkeypatch):
        """No index is alive once clustering or a term map starts: every
        strategy runs first, then run_pipeline drops the indexes."""
        built, alive = [], []

        def tracked(corpus):
            index = index_corpus(corpus)
            built.append(weakref.ref(index))
            return index

        def checked(stage_function):
            def call(*args, **kwargs):
                gc.collect()
                alive.append(sum(ref() is not None for ref in built))
                return stage_function(*args, **kwargs)
            return call

        index_corpus = pipeline.index_corpus
        monkeypatch.setattr(pipeline, "index_corpus", tracked)
        monkeypatch.setattr(pipeline, "cluster_assignment",
                            checked(pipeline.cluster_assignment))
        monkeypatch.setattr(pipeline, "term_map", checked(pipeline.term_map))
        assert run_pipeline(demo_config).manifest["outputs"] == DEMO_OUTPUTS
        assert len(built) == 2
        assert alive == [0, 0, 0]  # beta's clustering, then two term maps

    def test_clusterings_released_before_term_maps(self, demo_config, monkeypatch):
        """No ClusterAssignment is alive once a term map starts: run_pipeline
        drops them after the last enhancement is written."""
        made, alive = [], []

        def tracked(*args, **kwargs):
            assignment = cluster_assignment(*args, **kwargs)
            made.append(weakref.ref(assignment))
            return assignment

        def checked(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in made))
            return term_map(*args, **kwargs)

        cluster_assignment, term_map = pipeline.cluster_assignment, pipeline.term_map
        monkeypatch.setattr(pipeline, "cluster_assignment", tracked)
        monkeypatch.setattr(pipeline, "term_map", checked)
        assert run_pipeline(demo_config).manifest["outputs"] == DEMO_OUTPUTS
        assert len(made) == 1
        assert alive == [0, 0]

    def test_manifest_lists_only_this_runs_files(self, demo_config):
        out = demo_config.output_dir
        for stale in ("comparisons/old__pair/overlap.svg", "notes.txt",
                      "extra/table3.csv"):
            (out / stale).parent.mkdir(parents=True, exist_ok=True)
            (out / stale).write_text("left over\n")
        assert run_pipeline(demo_config).manifest["outputs"] == DEMO_OUTPUTS
        assert (out / "notes.txt").read_text() == "left over\n"

    def test_duplicate_strategy_names_rejected(self, demo_dir, tmp_path, capsys):
        doc = json.loads((demo_dir / "config.json").read_text())
        doc["strategies"].append({"file": "other/alpha.json", "corpus": "corpus_y"})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(PipelineError) as exc:
            PipelineConfig.load(config)
        assert exc.value.kind == "config"
        assert str(exc.value) == "[config] duplicate strategy names"
        assert main(["pipeline", "--config", str(config),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "error: [config] duplicate strategy names\n"
        assert not (tmp_path / "out").exists()

    def test_undefined_corpus_rejected_before_work(self, demo_dir, tmp_path):
        doc = json.loads((demo_dir / "config.json").read_text())
        doc["strategies"][0]["corpus"] = "nonexistent"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        # config paths resolve relative to the config file
        for entry in doc["corpora"] + doc["strategies"]:
            key = "corpus_file" if "corpus_file" in entry else "file"
            entry[key] = str(demo_dir / entry[key])
        bad.write_text(json.dumps(doc))
        with pytest.raises(PipelineError) as exc:
            PipelineConfig.load(bad, output_dir=tmp_path / "out")
        assert exc.value.kind == "config"

    def test_output_dir_resolves_against_config_file(self, demo_dir, tmp_path,
                                                     monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "config.json").write_text(json.dumps({
            "corpora": [{"name": "c", "corpus_file": str(demo_dir / "corpus_x.jsonl")}],
            "strategies": [{"file": str(demo_dir / "alpha.json"), "corpus": "c"}]}))
        monkeypatch.chdir(tmp_path)
        config = PipelineConfig.load(Path("sub") / "config.json")
        run_pipeline(config)
        assert (sub / "sdglab-out" / "results" / "alpha" / "result.json").is_file()
        assert not (tmp_path / "sdglab-out").exists()
        # an output directory given by the caller stays relative to the cwd
        given = PipelineConfig.load(Path("sub") / "config.json", output_dir="given")
        assert given.output_dir == Path("given")

    def test_non_distinct_pair_rejected(self, demo_dir, tmp_path):
        doc = json.loads((demo_dir / "config.json").read_text())
        doc["comparisons"].append({"a": "alpha", "b": "alpha"})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(PipelineError):
            PipelineConfig.load(bad)

    def test_table5_csv_self_consistent(self, demo_config):
        run_pipeline(demo_config)
        lines = (demo_config.output_dir / "reports" / "table5.csv") \
            .read_text().strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            counts = [int(row[k]) for k in
                      ("cov_a", "meth_a", "overlap", "meth_b", "cov_b")]
            denom = sum(counts)
            for k, c in zip(("cov_a_pct", "meth_a_pct", "overlap_pct",
                             "meth_b_pct", "cov_b_pct"), counts):
                # same half-up convention the tables use
                from decimal import Decimal, ROUND_HALF_UP
                recomputed = float(
                    (Decimal(100 * c) / Decimal(denom)).quantize(
                        Decimal("0.1"), rounding=ROUND_HALF_UP))
                assert float(row[k]) == recomputed

    def test_empty_comparisons_header_only(self, demo_dir, tmp_path):
        doc = json.loads((demo_dir / "config.json").read_text())
        doc["comparisons"] = []
        doc["termmaps"] = []
        cfg_path = demo_dir  # resolve against demo dir
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        config = PipelineConfig.load(path, output_dir=tmp_path / "out")
        config.base_dir = cfg_path
        run_pipeline(config)
        table5 = (tmp_path / "out" / "reports" / "table5.csv").read_text()
        assert table5.strip().splitlines() == [
            "a,b,cov_a,meth_a,overlap,meth_b,cov_b,"
            "cov_a_pct,meth_a_pct,overlap_pct,meth_b_pct,cov_b_pct"]


def write_config(out_dir: Path, corpus_file: Path, strategies: list[dict]) -> Path:
    """A pipeline config over one corpus named "c" that runs `strategies`
    (strategy documents, each written to <name>.json) and nothing else."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for doc in strategies:
        path = out_dir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        entries.append({"file": str(path), "corpus": "c"})
    config = out_dir / "config.json"
    config.write_text(json.dumps({
        "corpora": [{"name": "c", "corpus_file": str(corpus_file)}],
        "strategies": entries}))
    return config


class TestSharedClustering:
    @pytest.fixture()
    def strategies(self, demo_dir):
        def enhanced(base, name, seed):
            doc = json.loads((demo_dir / base).read_text())
            doc["name"] = name
            doc["enhancement"] = {"kind": "cluster_threshold", "threshold": 0.15,
                                  "assignment_source": "computed", "seed": seed}
            return doc
        return [enhanced("alpha.json", "alpha7", 7), enhanced("beta.json", "beta7", 7),
                enhanced("beta.json", "beta3", 3)]

    def test_one_clustering_per_corpus_resolution_seed(self, demo_dir, tmp_path,
                                                       strategies, monkeypatch):
        calls = []

        def counting(graph, **kwargs):
            calls.append(kwargs)
            return cluster_citation_graph(graph, **kwargs)

        cluster_citation_graph = pipeline.cluster_citation_graph
        monkeypatch.setattr("sdglab.pipeline.cluster_citation_graph", counting)
        corpus_file = demo_dir / "corpus_x.jsonl"
        run_pipeline(PipelineConfig.load(
            write_config(tmp_path / "all", corpus_file, strategies), tmp_path / "all"))
        assert calls == [{"resolution": 1.0, "seed": 7}, {"resolution": 1.0, "seed": 3}]
        for doc in strategies:
            alone = tmp_path / doc["name"]
            run_pipeline(PipelineConfig.load(write_config(alone, corpus_file, [doc]), alone))
            for name in ("enhancement.json", "result.json"):
                shared = tmp_path / "all" / "results" / doc["name"] / name
                own = alone / "results" / doc["name"] / name
                assert shared.read_bytes() == own.read_bytes()

    def test_reuse_is_logged(self, demo_dir, tmp_path, strategies, caplog):
        caplog.set_level(logging.INFO, logger="sdglab.pipeline")
        run_pipeline(PipelineConfig.load(
            write_config(tmp_path, demo_dir / "corpus_x.jsonl", strategies), tmp_path))
        messages = [r.getMessage() for r in caplog.records]
        clustering = [m for m in messages if m.startswith("clustering ")]
        assert clustering[0].startswith("clustering c resolution=1.0 seed=7: computed")
        assert clustering[1] == "clustering c resolution=1.0 seed=7: reused"
        assert clustering[2].startswith("clustering c resolution=1.0 seed=3: computed")
        assert [m.split(":")[0] for m in messages if m not in clustering] == \
            ["ingest c", "run alpha7", "run beta7", "run beta3", "report"]


class TestEnhancedWindow:
    @pytest.mark.parametrize("whole_corpus_shares, share",
                             [(True, 1 / 3), (False, 1 / 2)])
    def test_enhanced_members_stay_in_window(self, tmp_path, whole_corpus_shares,
                                             share):
        # Two citation triangles; w3 (2010) is outside the 2015-2019 window
        # but in the cluster of the seed hit w1.
        records = [("w1", 2016, "climate policy", ["w2", "w3"]),
                   ("w2", 2017, "ocean study", ["w3"]),
                   ("w3", 2010, "forest data", ["w1"]),
                   ("o1", 2016, "energy model", ["o2", "o3"]),
                   ("o2", 2016, "energy storage", ["o3"]),
                   ("o3", 2016, "solar energy", ["o1"])]
        corpus_file = tmp_path / "c.jsonl"
        corpus_file.write_text("".join(
            json.dumps({"id": rid, "year": year, "title": title, "refs": refs}) + "\n"
            for rid, year, title, refs in records))
        strategy = {"name": "s", "seeds": [{"query": "climate", "class": "general"}],
                    "window": {"start": 2015, "end": 2019},
                    "enhancement": {"kind": "cluster_threshold", "threshold": 0.3,
                                    "whole_corpus_shares": whole_corpus_shares}}
        run_pipeline(PipelineConfig.load(write_config(tmp_path, corpus_file, [strategy]),
                                         tmp_path))
        results = tmp_path / "results" / "s"
        assert json.loads((results / "result.json").read_text())["members"] == ["w1", "w2"]
        report = json.loads((results / "enhancement.json").read_text())
        assert list(report["included_clusters"].values()) == [pytest.approx(share)]
        # the CLI's run then enhance is the pipeline's step, byte for byte
        strategy_file = tmp_path / "s.json"
        seed, cli = tmp_path / "seed.json", tmp_path / "cli.json"
        assert main(["run", "--strategy", str(strategy_file), "--corpus", str(corpus_file),
                     "--out", str(seed)]) == 0
        assert main(["enhance", "--corpus", str(corpus_file), "--result", str(seed),
                     "--strategy", str(strategy_file), "--out", str(cli)]) == 0
        assert cli.read_bytes() == (results / "result.json").read_bytes()


def index_text(drop: str | None = None, **changes) -> str:
    """An empty version-2 index object, without key `drop`, with `changes`."""
    doc = {"magic": "SDGLAB-INDEX", "version": 2, "doc_count": 0, "doc_ids": [],
           "tokens": [], "counts": "", "postings": "", **changes}
    doc.pop(drop, None)
    return json.dumps(doc)


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def run_cli_failing(self, capsys, code, *argv) -> str:
        """Run a CLI call that must exit with `code` and report a
        stage-labelled error; return its stderr."""
        capsys.readouterr()
        assert main(list(argv)) == code
        err = capsys.readouterr().err
        assert any(line.startswith("error: [") for line in err.splitlines()), err
        return err

    def test_parse_explain(self, capsys):
        assert self.run_cli("parse", "--query", '"climate change"~2',
                            "--explain") == 0
        out = capsys.readouterr().out
        assert "Proximity" in out

    def test_parse_error_exit_code(self, capsys):
        err = self.run_cli_failing(capsys, 2, "parse", "--query", '"unbalanced')
        assert err.startswith("error: [parse] ")
        err = self.run_cli_failing(capsys, 2, "parse", "--query", "c*")
        assert err == "error: [parse] wildcard stem 'c' shorter than 2 characters " \
            "(at offset 0)\n"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        err = self.run_cli_failing(capsys, 3, "ingest", "--corpus",
                                   str(tmp_path / "missing.jsonl"))
        assert err.startswith("error: [ingest:missing] ")

    def test_strategy_summarize(self, data_dir, capsys):
        path = data_dir / "strategies" / "strings.json"
        assert self.run_cli("strategy", "summarize", str(path)) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "strategy,general,policy,technical,total"
        assert out[1] == "strings,70,24,4,98"

    def test_run_and_compare_flow(self, demo_dir, tmp_path, capsys):
        res_a = tmp_path / "alpha.json"
        res_g = tmp_path / "gamma.json"
        assert self.run_cli(
            "run", "--strategy", str(demo_dir / "alpha.json"),
            "--corpus", str(demo_dir / "corpus_x.jsonl"),
            "--out", str(res_a)) == 0
        assert self.run_cli(
            "run", "--strategy", str(demo_dir / "gamma.json"),
            "--corpus", str(demo_dir / "corpus_y.jsonl"),
            "--out", str(res_g)) == 0
        assert self.run_cli(
            "compare", "--a", str(res_a), "--b", str(res_g),
            "--coverage-a", str(demo_dir / "coverage_x.txt"),
            "--coverage-b", str(demo_dir / "coverage_y.txt"),
            "--out", str(tmp_path / "cmp")) == 0
        out = capsys.readouterr().out
        assert out.startswith("a,b,cov_a")
        assert (tmp_path / "cmp" / "overlap.svg").exists()
        assert (tmp_path / "cmp" / "overlap.json").exists()

    def test_pipeline_and_report_commands(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run_cli("pipeline", "--config",
                            str(demo_dir / "config.json"),
                            "--output-dir", str(out)) == 0
        assert self.run_cli("report", "--bundle", str(out),
                            "--format", "markdown",
                            "--out", str(tmp_path / "md")) == 0
        table3 = (tmp_path / "md" / "table3.md").read_text()
        assert table3.startswith("| strategy |")

    def test_index_command(self, demo_dir, tmp_path):
        out = tmp_path / "index.json"
        assert self.run_cli("index", "--corpus",
                            str(demo_dir / "corpus_x.jsonl"),
                            "--out", str(out)) == 0
        assert out.exists()

    def test_run_with_saved_index_matches_fresh_build(self, demo_dir, tmp_path):
        index = tmp_path / "index.json"
        corpus = str(demo_dir / "corpus_x.jsonl")
        assert self.run_cli("index", "--corpus", corpus, "--out", str(index)) == 0
        fresh, loaded = tmp_path / "fresh.json", tmp_path / "loaded.json"
        for out, extra in ((fresh, ()), (loaded, ("--index", str(index)))):
            assert self.run_cli("run", "--strategy", str(demo_dir / "alpha.json"),
                                "--corpus", corpus, "--out", str(out), *extra) == 0
        assert loaded.read_bytes() == fresh.read_bytes()

    def test_failed_index_write_keeps_previous_file(self, demo_dir, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "index.json"
        out.write_text("previous", encoding="utf-8")

        def partial_then_fail(index, sink):
            sink.write('{"doc_count": ')
            raise KeyboardInterrupt

        monkeypatch.setattr("sdglab.cli.save_index", partial_then_fail)
        with pytest.raises(KeyboardInterrupt):
            self.run_cli("index", "--corpus", str(demo_dir / "corpus_x.jsonl"),
                         "--out", str(out))
        assert out.read_text(encoding="utf-8") == "previous"
        assert list(tmp_path.iterdir()) == [out]

    def run_with_index_failing(self, capsys, code, demo_dir, index) -> str:
        return self.run_cli_failing(capsys, code, "run",
                                    "--strategy", str(demo_dir / "alpha.json"),
                                    "--corpus", str(demo_dir / "corpus_x.jsonl"),
                                    "--index", str(index))

    def test_index_of_another_corpus_exit_code(self, demo_dir, tmp_path, capsys):
        index = tmp_path / "index_y.json"
        assert self.run_cli("index", "--corpus", str(demo_dir / "corpus_y.jsonl"),
                            "--out", str(index)) == 0
        err = self.run_with_index_failing(capsys, 2, demo_dir, index)
        assert str(index) in err and "does not index corpus" in err

    def test_partly_overlapping_index_exit_code(self, demo_dir, tmp_path, capsys):
        lines = (demo_dir / "corpus_x.jsonl").read_text(encoding="utf-8").splitlines()
        part = tmp_path / "part.jsonl"
        part.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        index = tmp_path / "index_part.json"
        assert self.run_cli("index", "--corpus", str(part), "--out", str(index)) == 0
        assert str(index) in self.run_with_index_failing(capsys, 2, demo_dir, index)

    @pytest.mark.parametrize("content, message", [
        ('{"magic": "nope"}', "not an index file"),
        ('{"magic": "SDGLAB-INDEX", "version": 99}', "unsupported index version"),
        ('{"magic": "SDGLAB-INDEX", "version": 2, "doc_ids": ["x0', "Unterminated"),
        (index_text(drop="postings"), "no 'postings' key"),
        (index_text(drop="doc_count"), "no 'doc_count' key"),
        (index_text(postings=[]), "'postings' is a list"),
        ('{"magic": "SDGLAB-INDEX", "version": 1, "postings": {}, "doc_count": 0, '
         '"doc_ids": []}', "unsupported index version: 1"),
        (index_text(postings="!!!!"), "'postings' is not base64"),
    ], ids=["magic", "version", "truncated", "no-postings", "no-doc_count",
            "postings-list", "version-1", "bad-base64"])
    def test_bad_index_file_exit_code(self, demo_dir, tmp_path, capsys,
                                      content, message):
        index = tmp_path / "bad.json"
        index.write_text(content, encoding="utf-8")
        err = self.run_with_index_failing(capsys, 2, demo_dir, index)
        assert str(index) in err and message in err

    def test_missing_index_file_exit_code(self, demo_dir, tmp_path, capsys):
        self.run_with_index_failing(capsys, 3, demo_dir, tmp_path / "missing.json")

    def test_enhance_command(self, demo_dir, tmp_path, capsys):
        res = tmp_path / "beta.json"
        self.run_cli("run", "--strategy", str(demo_dir / "beta.json"),
                     "--corpus", str(demo_dir / "corpus_x.jsonl"),
                     "--out", str(res))
        enhanced = tmp_path / "beta_enhanced.json"
        assert self.run_cli(
            "enhance", "--corpus", str(demo_dir / "corpus_x.jsonl"),
            "--result", str(res), "--strategy", str(demo_dir / "beta.json"),
            "--out", str(enhanced)) == 0
        doc = json.loads(enhanced.read_text())
        assert len(doc["members"]) == 29
        assert "clusters included: 1, excluded: 4" in capsys.readouterr().err

    def test_saved_assignment_round_trip(self, demo_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        corpus = str(demo_dir / "corpus_x.jsonl")
        assert self.run_cli("run", "--strategy", str(demo_dir / "beta.json"),
                            "--corpus", corpus, "--out", "seed.json") == 0
        assert self.run_cli("enhance", "--corpus", corpus, "--result", "seed.json",
                            "--strategy", str(demo_dir / "beta.json"),
                            "--save-assignment", "beta.tsv", "--out", "computed.json") == 0
        doc = json.loads((demo_dir / "beta.json").read_text())
        # a relative source resolves against the working directory, not the
        # strategy file's directory
        doc["enhancement"]["assignment_source"] = "beta.tsv"
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "beta.json").write_text(json.dumps(doc))
        assert self.run_cli("enhance", "--corpus", corpus, "--result", "seed.json",
                            "--strategy", str(Path("sub") / "beta.json"),
                            "--out", "loaded.json") == 0
        assert (tmp_path / "loaded.json").read_bytes() == \
            (tmp_path / "computed.json").read_bytes()

    @pytest.mark.parametrize("text, code, message", [
        ("nosuch\tc1\n", 2, "line 1: unknown internal_id 'nosuch'"),
        ("x0000 c1\n", 2, "line 1: expected id<TAB>cluster_id"),
        ("x0000\tc1\nx0000\tc2\n", 2,
         "line 2: internal_id 'x0000' already assigned on line 1"),
        (None, 3, "No such file or directory"),
    ], ids=["unknown-id", "no-tab", "id-twice", "missing"])
    def test_bad_assignment_file_exit_code(self, demo_dir, tmp_path, capsys, text, code,
                                           message):
        assignment = tmp_path / "assignment.tsv"
        if text is not None:
            assignment.write_text(text)
        doc = json.loads((demo_dir / "beta.json").read_text())
        doc["enhancement"]["assignment_source"] = str(assignment)
        strategy, seed = tmp_path / "beta.json", tmp_path / "seed.json"
        strategy.write_text(json.dumps(doc))
        corpus = str(demo_dir / "corpus_x.jsonl")
        assert self.run_cli("run", "--strategy", str(strategy), "--corpus", corpus,
                            "--out", str(seed)) == 0
        label = f"error: [assignment:{assignment}] "
        err = self.run_cli_failing(capsys, code, "enhance", "--corpus", corpus,
                                   "--result", str(seed), "--strategy", str(strategy))
        assert err.startswith(label) and message in err
        config = write_config(tmp_path / "pipe", demo_dir / "corpus_x.jsonl", [doc])
        err = self.run_cli_failing(capsys, code, "pipeline", "--config", str(config))
        assert err.startswith(label) and message in err

    def test_enhance_strategy_without_enhancement_exit_code(self, demo_dir, tmp_path,
                                                            capsys):
        seed = tmp_path / "alpha.json"
        assert self.run_cli("run", "--strategy", str(demo_dir / "alpha.json"),
                            "--corpus", str(demo_dir / "corpus_x.jsonl"),
                            "--out", str(seed)) == 0
        err = self.run_cli_failing(
            capsys, 2, "enhance", "--corpus", str(demo_dir / "corpus_x.jsonl"),
            "--result", str(seed), "--strategy", str(demo_dir / "alpha.json"),
            "--out", str(tmp_path / "enhanced.json"))
        assert err == "error: [strategy:alpha] has no enhancement\n"
        assert not (tmp_path / "enhanced.json").exists()

    def test_enhance_result_of_another_strategy_exit_code(self, demo_dir, tmp_path,
                                                          capsys):
        seed = tmp_path / "alpha.json"
        assert self.run_cli("run", "--strategy", str(demo_dir / "alpha.json"),
                            "--corpus", str(demo_dir / "corpus_x.jsonl"),
                            "--out", str(seed)) == 0
        err = self.run_cli_failing(
            capsys, 2, "enhance", "--corpus", str(demo_dir / "corpus_x.jsonl"),
            "--result", str(seed), "--strategy", str(demo_dir / "beta.json"),
            "--save-assignment", str(tmp_path / "beta.tsv"),
            "--out", str(tmp_path / "enhanced.json"))
        assert err == (f"error: [result:{seed}] is a result of strategy 'alpha', "
                       f"not of 'beta'\n")
        assert not (tmp_path / "enhanced.json").exists()
        assert not (tmp_path / "beta.tsv").exists()

    def test_strategy_name_not_its_stem_exit_code(self, demo_dir, tmp_path, capsys):
        """A copy of alpha.json still named alpha would be reported as
        alpha_v2 in Table 3 and as alpha in Table 5 and the figures."""
        copy = tmp_path / "alpha_v2.json"
        shutil.copyfile(demo_dir / "alpha.json", copy)
        message = "error: [strategy:alpha_v2] name 'alpha' is not the file stem 'alpha_v2'\n"
        assert self.run_cli_failing(capsys, 2, "strategy", "summarize", str(copy)) == message
        assert self.run_cli_failing(
            capsys, 2, "run", "--strategy", str(copy),
            "--corpus", str(demo_dir / "corpus_x.jsonl")) == message
        doc = json.loads((demo_dir / "config.json").read_text())
        for entry in doc["strategies"]:
            entry["file"] = str(copy if entry["file"] == "alpha.json"
                                else demo_dir / entry["file"])
        for entry in doc["corpora"]:
            for key in ("corpus_file", "coverage_file"):
                entry[key] = str(demo_dir / entry[key])
        for pair in doc["comparisons"] + doc.get("termmaps", []):
            for key in ("a", "b"):
                pair[key] = {"alpha": "alpha_v2"}.get(pair[key], pair[key])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert self.run_cli_failing(capsys, 2, "pipeline", "--config", str(config),
                                    "--output-dir", str(tmp_path / "out")) == message
        assert not (tmp_path / "out").exists()

    @pytest.fixture()
    def gamma_result(self, demo_dir, tmp_path):
        """A result of the demo strategy gamma on corpus_y."""
        res = tmp_path / "gamma.json"
        assert self.run_cli("run", "--strategy", str(demo_dir / "gamma.json"),
                            "--corpus", str(demo_dir / "corpus_y.jsonl"),
                            "--out", str(res)) == 0
        return res

    def test_enhance_result_of_another_corpus_exit_code(self, demo_dir, tmp_path,
                                                        capsys, gamma_result):
        err = self.run_cli_failing(
            capsys, 2, "enhance", "--corpus", str(demo_dir / "corpus_x.jsonl"),
            "--result", str(gamma_result), "--strategy", str(demo_dir / "beta.json"),
            "--out", str(tmp_path / "enhanced.json"))
        assert f"error: [result:{gamma_result}] members not in corpus" in err
        assert not (tmp_path / "enhanced.json").exists()

    def test_termmap_result_of_another_corpus_exit_code(self, demo_dir, tmp_path,
                                                        capsys, gamma_result):
        err = self.run_cli_failing(
            capsys, 2, "termmap", "--a", str(gamma_result), "--b", str(gamma_result),
            "--corpus-a", str(demo_dir / "corpus_x.jsonl"), "--out", str(tmp_path / "tm"))
        assert f"error: [result:{gamma_result}] members not in corpus" in err
        assert not (tmp_path / "tm").exists()

    def test_malformed_result_file_exit_code(self, demo_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"strategy": "s", "corpus": "c"}', encoding="utf-8")
        err = self.run_cli_failing(
            capsys, 2, "compare", "--a", str(bad), "--b", str(bad),
            "--coverage-a", str(demo_dir / "coverage_x.txt"),
            "--coverage-b", str(demo_dir / "coverage_y.txt"))
        assert f"error: [result:{bad}] not a result document" in err

    @pytest.mark.parametrize("key, value, kind", [
        ("dois", "10.5555/x.1", "list of strings"),
        ("members", "abc", "list of strings"),
        ("members", [1, 2], "list of strings"),
        ("with_doi", "many", "int"),
        ("with_doi", True, "int"),
        ("strategy", None, "str"),
    ], ids=["dois-string", "members-string", "members-ints", "with_doi-string",
            "with_doi-bool", "strategy-null"])
    def test_result_key_of_wrong_type_exit_code(self, demo_dir, tmp_path, capsys, key,
                                                value, kind):
        """`compare` reads a result without its corpus, `termmap` against it;
        either way a key of the wrong type is a bad result file."""
        res = tmp_path / "alpha.json"
        assert self.run_cli("run", "--strategy", str(demo_dir / "alpha.json"),
                            "--corpus", str(demo_dir / "corpus_x.jsonl"),
                            "--out", str(res)) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(res.read_text()), key: value}))
        message = f"error: [result:{bad}] not a result document: {key!r} is not a {kind}\n"
        assert self.run_cli_failing(
            capsys, 2, "compare", "--a", str(bad), "--b", str(res),
            "--coverage-a", str(demo_dir / "coverage_x.txt"),
            "--coverage-b", str(demo_dir / "coverage_y.txt")) == message
        if key in ("strategy", "members"):
            assert self.run_cli_failing(
                capsys, 2, "termmap", "--a", str(bad), "--b", str(res),
                "--corpus-a", str(demo_dir / "corpus_x.jsonl"),
                "--out", str(tmp_path / "tm")) == message

    def test_pipeline_and_termmap_digests_are_bytes_on_disk(self, demo_dir, tmp_path):
        out, cli = tmp_path / "out", tmp_path / "cli"
        assert self.run_cli("pipeline", "--config", str(demo_dir / "config.json"),
                            "--output-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == tree_digest(out) == DEMO_OUTPUTS
        for a, b in (("alpha", "gamma"), ("beta", "delta")):
            assert self.run_cli("termmap", "--a", str(out / "results" / a / "result.json"),
                                "--b", str(out / "results" / b / "result.json"),
                                "--corpus-a", str(demo_dir / "corpus_x.jsonl"),
                                "--corpus-b", str(demo_dir / "corpus_y.jsonl"),
                                "--min-occurrences", "5", "--seed", "11",
                                "--out", str(cli / f"{a}__{b}")) == 0
        assert tree_digest(cli) == tree_digest(out / "termmaps")

    def test_bad_second_strategy_fails_before_any_write(self, demo_dir, tmp_path,
                                                        capsys):
        demo = tmp_path / "demo"
        shutil.copytree(demo_dir, demo)
        (demo / "beta.json").write_text("{")
        out = tmp_path / "out"
        err = self.run_cli_failing(capsys, 2, "pipeline", "--config",
                                   str(demo / "config.json"), "--output-dir", str(out))
        assert err.startswith("error: [strategy:beta] ")
        assert not (out / "results").exists()
        assert not (out / "manifest.json").exists()

    def test_enhanced_strategy_on_empty_corpus_writes_empty_results(self, demo_dir,
                                                                    tmp_path):
        (tmp_path / "empty.jsonl").write_text("")
        for name in ("alpha", "beta"):
            shutil.copy(demo_dir / f"{name}.json", tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpora": [{"name": "empty", "corpus_file": "empty.jsonl"}],
            "strategies": [{"file": "alpha.json", "corpus": "empty"},
                           {"file": "beta.json", "corpus": "empty"}],
            "comparisons": [{"a": "alpha", "b": "beta"}],
            "termmaps": [{"a": "alpha", "b": "beta"}]}))
        out = tmp_path / "out"
        assert self.run_cli("pipeline", "--config", str(config),
                            "--output-dir", str(out)) == 0
        for name in ("alpha", "beta"):
            doc = json.loads((out / "results" / name / "result.json").read_text())
            assert doc["members"] == doc["dois"] == []
        assert json.loads((out / "results" / "beta" / "enhancement.json").read_text()) \
            == {"included_clusters": {}, "excluded_clusters": {},
                "seed_members_lost": 0, "singleton_members": 0}
        bundle = json.loads((out / "reports" / "bundle.json").read_text())
        assert [row["doi_share_pct"] for row in bundle["table3"]] == [0.0, 0.0]
        term_map = json.loads((out / "termmaps" / "alpha__beta" / "termmap.json")
                              .read_text())
        assert term_map["terms"] == term_map["edges"] == []
        assert (out / "manifest.json").exists()

    def test_strategies_retrieving_nothing_compare_to_zero(self, demo_dir, tmp_path):
        demo = tmp_path / "demo"
        shutil.copytree(demo_dir, demo)
        for name in ("alpha", "gamma"):
            doc = json.loads((demo / f"{name}.json").read_text())
            doc["window"] = {"start": 1900, "end": 1901}
            (demo / f"{name}.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert self.run_cli("pipeline", "--config", str(demo / "config.json"),
                            "--output-dir", str(out)) == 0
        bundle = json.loads((out / "reports" / "bundle.json").read_text())
        row = next(r for r in bundle["table5"] if (r["a"], r["b"]) == ("alpha", "gamma"))
        columns = TABLE_COLUMNS["table5"]
        assert [row[c] for c in columns[2:7]] == [0] * 5
        assert [row[c] for c in columns[7:]] == [0.0] * 5
        term_map = json.loads((out / "termmaps" / "alpha__gamma" / "termmap.json")
                              .read_text())
        assert term_map["terms"] == []

    def test_ingest_empty_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert self.run_cli("ingest", "--corpus", str(empty)) == 0
        assert capsys.readouterr().out == "empty: 0 records, 0 with DOI, coverage 0 DOIs\n"
        assert self.run_cli("index", "--corpus", str(empty),
                            "--out", str(tmp_path / "index.json")) == 0

    def test_query_nested_too_deep_exit_code(self, demo_dir, tmp_path, capsys):
        at_limit = '"a"' + ' AND NOT "b"' * MAX_DEPTH
        assert self.run_cli("parse", "--query", at_limit, "--explain") == 0
        err = self.run_cli_failing(capsys, 2, "parse", "--query", at_limit + ' AND NOT "c"')
        assert err.startswith(f"error: [parse] query nests more than {MAX_DEPTH} "
                              f"operators deep")
        doc = json.loads((demo_dir / "alpha.json").read_text())
        doc["name"] = "deep"
        doc["seeds"].append({"query": "(" * (MAX_DEPTH + 1) + '"a"' + ")" * (MAX_DEPTH + 1),
                             "class": "general"})
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps(doc))
        for argv in (("strategy", "summarize", str(deep)),
                     ("run", "--strategy", str(deep),
                      "--corpus", str(demo_dir / "corpus_x.jsonl"))):
            err = self.run_cli_failing(capsys, 2, *argv)
            assert err.startswith("error: [strategy:deep] query ")
            assert f"nests more than {MAX_DEPTH} parentheses deep" in err

    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    def test_coverage_file_without_a_record_doi_exit_code(self, demo_dir, tmp_path,
                                                          capsys, command):
        demo = tmp_path / "demo"
        shutil.copytree(demo_dir, demo)
        first = json.loads((demo / "corpus_x.jsonl").read_text().splitlines()[0])["doi"]
        coverage = (demo / "coverage_x.txt").read_text().splitlines()
        coverage.remove(first)
        (demo / "coverage_x.txt").write_text("\n".join(coverage) + "\n")
        argv = ("ingest", "--corpus", str(demo / "corpus_x.jsonl"),
                "--coverage", str(demo / "coverage_x.txt")) if command == "ingest" else \
            ("pipeline", "--config", str(demo / "config.json"),
             "--output-dir", str(tmp_path / "out"))
        err = self.run_cli_failing(capsys, 2, *argv)
        assert err == (f"error: [ingest:corpus_x] coverage file {demo / 'coverage_x.txt'} "
                       f"omits 1 record DOIs, e.g. {first!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, code, message", [
        (b"10.5555/shared.0000\n\xff\n", 2, "'utf-8' codec can't decode byte 0xff"),
        (None, 3, "No such file or directory"),
    ], ids=["undecodable", "missing"])
    def test_compare_bad_coverage_file_exit_code(self, demo_dir, tmp_path, capsys,
                                                 content, code, message):
        results = {}
        for name, corpus in (("alpha", "corpus_x"), ("gamma", "corpus_y")):
            results[name] = tmp_path / f"{name}.json"
            assert self.run_cli("run", "--strategy", str(demo_dir / f"{name}.json"),
                                "--corpus", str(demo_dir / f"{corpus}.jsonl"),
                                "--out", str(results[name])) == 0
        coverage = tmp_path / "coverage.txt"
        if content is not None:
            coverage.write_bytes(content)
        err = self.run_cli_failing(capsys, code, "compare", "--a", str(results["alpha"]),
                                   "--b", str(results["gamma"]),
                                   "--coverage-a", str(demo_dir / "coverage_x.txt"),
                                   "--coverage-b", str(coverage))
        assert err.startswith(f"error: [coverage:{coverage}] ") and message in err

    def test_compare_rows_equal_pipeline_table5(self, demo_config, demo_dir, capsys):
        """`sdglab compare` on the pipeline's results and the coverage files
        of their corpora prints the pipeline's Table 5 row of each pair."""
        run_pipeline(demo_config)
        out = demo_config.output_dir
        coverage = {Path(s["file"]).stem:
                    demo_dir / next(c["coverage_file"] for c in demo_config.corpora
                                    if c["name"] == s["corpus"])
                    for s in demo_config.strategies}
        capsys.readouterr()
        for pair in demo_config.comparisons:
            a, b = pair["a"], pair["b"]
            assert self.run_cli("compare", "--a", str(out / "results" / a / "result.json"),
                                "--b", str(out / "results" / b / "result.json"),
                                "--coverage-a", str(coverage[a]),
                                "--coverage-b", str(coverage[b])) == 0
        lines = capsys.readouterr().out.splitlines()  # a header and a row per pair
        table5 = (out / "reports" / "table5.csv").read_text().splitlines()
        assert lines[::2] == table5[:1] * len(demo_config.comparisons)
        assert lines[1::2] == table5[1:]

    @pytest.mark.parametrize("flags, settings", [
        ((), {}), (("--seed", "11"), {"layout_seed": 11}),
        (("--max-ngram", "2", "--layout-iterations", "40"),
         {"max_ngram": 2, "layout_iterations": 40}),
    ], ids=["none", "seed", "ngram-and-iterations"])
    def test_termmap_flags_left_out_take_config_defaults(self, demo_dir, tmp_path, flags,
                                                         settings):
        for name, corpus in (("alpha", "corpus_x"), ("gamma", "corpus_y")):
            assert self.run_cli("run", "--strategy", str(demo_dir / f"{name}.json"),
                                "--corpus", str(demo_dir / f"{corpus}.jsonl"),
                                "--out", str(tmp_path / f"{name}.json")) == 0
        assert self.run_cli("termmap", "--a", str(tmp_path / "alpha.json"),
                            "--b", str(tmp_path / "gamma.json"),
                            "--corpus-a", str(demo_dir / "corpus_x.jsonl"),
                            "--corpus-b", str(demo_dir / "corpus_y.jsonl"),
                            *flags, "--out", str(tmp_path / "tm")) == 0
        config = json.loads((tmp_path / "tm" / "termmap.json").read_text())["config"]
        expected = TermMapConfig(**settings)
        assert config == {"layout_iterations": expected.layout_iterations,
                          "layout_seed": expected.layout_seed,
                          "max_ngram": expected.max_ngram,
                          "min_occurrences": expected.min_occurrences,
                          "stoplist": sorted(expected.stoplist)}

    def test_cli_outputs_equal_pipeline_outputs(self, demo_config, demo_dir, tmp_path):
        run_pipeline(demo_config)
        pipe, cli = demo_config.output_dir, tmp_path / "cli"
        for name, corpus in (("alpha", "corpus_x"), ("gamma", "corpus_y")):
            assert self.run_cli("run", "--strategy", str(demo_dir / f"{name}.json"),
                                "--corpus", str(demo_dir / f"{corpus}.jsonl"),
                                "--out", str(cli / f"{name}.json")) == 0
            assert (cli / f"{name}.json").read_bytes() == \
                (pipe / "results" / name / "result.json").read_bytes()
        assert self.run_cli("run", "--strategy", str(demo_dir / "beta.json"),
                            "--corpus", str(demo_dir / "corpus_x.jsonl"),
                            "--out", str(cli / "beta_seed.json")) == 0
        assert self.run_cli("enhance", "--corpus", str(demo_dir / "corpus_x.jsonl"),
                            "--result", str(cli / "beta_seed.json"),
                            "--strategy", str(demo_dir / "beta.json"),
                            "--out", str(cli / "beta.json")) == 0
        assert (cli / "beta.json").read_bytes() == \
            (pipe / "results" / "beta" / "result.json").read_bytes()
        results = ("--a", str(cli / "alpha.json"), "--b", str(cli / "gamma.json"))
        assert self.run_cli("compare", *results,
                            "--coverage-a", str(demo_dir / "coverage_x.txt"),
                            "--coverage-b", str(demo_dir / "coverage_y.txt"),
                            "--out", str(cli / "compare")) == 0
        for name in ("overlap.svg", "overlap.json"):
            assert (cli / "compare" / name).read_bytes() == \
                (pipe / "comparisons" / "alpha__gamma" / name).read_bytes()
        assert self.run_cli("termmap", *results,
                            "--corpus-a", str(demo_dir / "corpus_x.jsonl"),
                            "--corpus-b", str(demo_dir / "corpus_y.jsonl"),
                            "--min-occurrences", "5", "--seed", "11",
                            "--out", str(cli / "termmap")) == 0
        for fmt in ("json", "graphml", "html"):
            assert (cli / "termmap" / f"termmap.{fmt}").read_bytes() == \
                (pipe / "termmaps" / "alpha__gamma" / f"termmap.{fmt}").read_bytes()
        # non-default n-gram length and layout iterations, from the config and
        # from the options
        doc = json.loads((demo_dir / "config.json").read_text())
        for entry in doc["corpora"]:
            for key in ("corpus_file", "coverage_file"):
                entry[key] = str(demo_dir / entry[key])
        for entry in doc["strategies"]:
            entry["file"] = str(demo_dir / entry["file"])
        doc["termmaps"][0]["config"].update(max_ngram=2, layout_iterations=40)
        (tmp_path / "settings.json").write_text(json.dumps(doc))
        run_pipeline(PipelineConfig.load(tmp_path / "settings.json",
                                         output_dir=tmp_path / "settings"))
        assert self.run_cli("termmap", *results,
                            "--corpus-a", str(demo_dir / "corpus_x.jsonl"),
                            "--corpus-b", str(demo_dir / "corpus_y.jsonl"),
                            "--min-occurrences", "5", "--seed", "11", "--max-ngram", "2",
                            "--layout-iterations", "40",
                            "--out", str(cli / "settings")) == 0
        for fmt in ("json", "graphml", "html"):
            text = (cli / "settings" / f"termmap.{fmt}").read_bytes()
            assert text == (tmp_path / "settings" / "termmaps" / "alpha__gamma" /
                            f"termmap.{fmt}").read_bytes()
            assert text != (cli / "termmap" / f"termmap.{fmt}").read_bytes()

    @pytest.fixture()
    def overflow_corpus(self, tmp_path):
        """A corpus file whose record "big" has 42,000 one-word keywords; with
        the gap between keywords its last position is past 2**22."""
        path = tmp_path / "over.jsonl"
        records = [{"id": "ok", "title": "climate", "year": 2016},
                   {"id": "big", "title": "climate", "year": 2016,
                    "keywords": ["k"] * 42_000}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return path

    def test_position_overflow_exit_code(self, demo_dir, tmp_path, capsys,
                                         overflow_corpus):
        label = "error: [ingest:over] record 'big' field 'keywords': position"
        out = tmp_path / "index.json"
        err = self.run_cli_failing(capsys, 2, "index", "--corpus", str(overflow_corpus),
                                   "--out", str(out))
        assert err.startswith(label)
        assert not out.exists()
        err = self.run_cli_failing(capsys, 2, "run",
                                   "--strategy", str(demo_dir / "alpha.json"),
                                   "--corpus", str(overflow_corpus))
        assert err.startswith(label)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpora": [{"name": "over", "corpus_file": str(overflow_corpus)}],
            "strategies": [{"file": str(demo_dir / "alpha.json"), "corpus": "over"}]}))
        err = self.run_cli_failing(capsys, 2, "pipeline", "--config", str(config),
                                   "--output-dir", str(tmp_path / "out"))
        assert err.startswith(label)

    @pytest.mark.parametrize("section, key", [
        ("corpora", "name"), ("corpora", "corpus_file"), ("strategies", "file"),
        ("strategies", "corpus"), ("comparisons", "a"), ("comparisons", "b"),
        ("termmaps", "a"), ("termmaps", "b")])
    @pytest.mark.parametrize("value", [None, 5], ids=["missing", "int"])
    def test_config_entry_key_exit_code(self, demo_dir, tmp_path, capsys, section, key,
                                        value):
        doc = json.loads((demo_dir / "config.json").read_text())
        if value is None:
            del doc[section][0][key]
        else:
            doc[section][0][key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(PipelineError) as exc:
            PipelineConfig.load(config)
        assert exc.value.kind == "config"
        err = self.run_cli_failing(capsys, 2, "pipeline", "--config", str(config),
                                   "--output-dir", str(tmp_path / "out"))
        assert err.startswith("error: [config] ") and f"has no string {key!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        ([], "config file is not a JSON object"),
        ({"corpora": {}}, "config 'corpora' is not a list"),
        ({"strategies": "alpha.json"}, "config 'strategies' is not a list"),
        ({"comparisons": {}}, "config 'comparisons' is not a list"),
        ({"termmaps": None}, "config 'termmaps' is not a list"),
        ({"output_dir": 5}, "config 'output_dir' is not a str"),
    ], ids=["list", "corpora", "strategies", "comparisons", "termmaps", "output_dir"])
    def test_config_file_shape_exit_code(self, tmp_path, capsys, doc, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        err = self.run_cli_failing(capsys, 2, "pipeline", "--config", str(config))
        assert err.startswith(f"error: [config] {message}")

    @pytest.mark.parametrize("value", [5, False, ["coverage_x.txt"]],
                             ids=["int", "bool", "list"])
    def test_config_coverage_file_not_a_string_exit_code(self, demo_dir, tmp_path, capsys,
                                                         value):
        doc = json.loads((demo_dir / "config.json").read_text())
        doc["corpora"][0]["coverage_file"] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        err = self.run_cli_failing(capsys, 2, "pipeline", "--config", str(config),
                                   "--output-dir", str(tmp_path / "out"))
        assert err.startswith("error: [config] corpus entry ")
        assert "has a 'coverage_file' that is not a string" in err
        assert not (tmp_path / "out").exists()

    def test_config_entry_not_an_object_exit_code(self, demo_dir, tmp_path, capsys):
        doc = json.loads((demo_dir / "config.json").read_text())
        doc["strategies"].append("alpha.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        err = self.run_cli_failing(capsys, 2, "pipeline", "--config", str(config))
        assert err.startswith("error: [config] strategy entry 'alpha.json' has no string")

    @pytest.mark.parametrize("bundle, message", [
        ("[]", "bundle.json is not an object"),
        ('{"table4": [], "table5": [], "figures": []}', "no 'table3' list"),
        ('{"table3": [], "table5": [], "figures": []}', "no 'table4' list"),
        ('{"table3": [], "table4": [], "figures": []}', "no 'table5' list"),
        ('{"table3": [], "table4": [], "table5": []}', "no 'figures' list"),
        ('{"table3": {}, "table4": [], "table5": [], "figures": []}', "no 'table3' list"),
        ('{"table3": [{}], "table4": [], "table5": [], "figures": []}',
         "'table3' row {} lacks a column of strategy,total"),
        ('{"table3": [], "table4": [], "table5": [[]], "figures": []}',
         "'table5' row [] lacks a column of a,b,cov_a"),
        ('{"table3": [', "Expecting value"),
    ], ids=["not-object", "no-table3", "no-table4", "no-table5", "no-figures",
            "table3-object", "table3-row-empty", "table5-row-list", "truncated"])
    def test_report_bad_bundle_exit_code(self, tmp_path, capsys, bundle, message):
        (tmp_path / "run" / "reports").mkdir(parents=True)
        (tmp_path / "run" / "reports" / "bundle.json").write_text(bundle, encoding="utf-8")
        err = self.run_cli_failing(capsys, 2, "report", "--bundle", str(tmp_path / "run"),
                                   "--out", str(tmp_path / "md"))
        assert err.startswith("error: [report] ") and message in err
        assert not (tmp_path / "md").exists()

    def test_strategy_bad_fields_exit_code(self, demo_dir, tmp_path, capsys):
        doc = json.loads((demo_dir / "alpha.json").read_text())
        doc["fields"] = ["title", "body"]
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(doc))
        err = self.run_cli_failing(capsys, 2, "strategy", "summarize", str(path))
        assert err.startswith("error: [strategy:alpha] fields must be a non-empty list")

    @pytest.mark.parametrize("key, value, message", [
        ("seeds", "abc", "seeds must be a list: 'abc'"),
        ("seeds", [5], "seed must be an object with a string query: 5"),
        ("seeds", [{"class": "general"}], "seed must be an object with a string query"),
        ("seeds", [{"query": 5}], "seed must be an object with a string query"),
        ("exclusions", [5], "exclusions must be a list of strings: [5]"),
        ("exclusions", "climate", "exclusions must be a list of strings: 'climate'"),
        ("enhancement", {"assignment_source": 5}, "assignment_source must be a string: 5"),
        ("seeds", [{"query": '"c*"', "class": "general"}],
         "query '\"c*\"' does not parse: wildcard stem 'c' shorter than 2 characters"),
    ], ids=["seeds-string", "seed-int", "seed-no-query", "query-int", "exclusion-int",
            "exclusions-string", "source-int", "seed-short-stem"])
    def test_strategy_bad_document_exit_code(self, demo_dir, tmp_path, capsys, key,
                                             value, message):
        doc = json.loads((demo_dir / "beta.json").read_text())
        doc[key] = value
        path = tmp_path / "beta.json"
        path.write_text(json.dumps(doc))
        corpus, result = str(demo_dir / "corpus_x.jsonl"), str(tmp_path / "result.json")
        assert self.run_cli("run", "--strategy", str(demo_dir / "beta.json"),
                            "--corpus", corpus, "--out", result) == 0
        for argv in (("strategy", "summarize", str(path)),
                     ("run", "--strategy", str(path), "--corpus", corpus),
                     ("enhance", "--corpus", corpus, "--result", result,
                      "--strategy", str(path))):
            err = self.run_cli_failing(capsys, 2, *argv)
            assert err.startswith(f"error: [strategy:beta] {message}"), argv

    def test_many_overlapping_proximity_patterns_run(self, tmp_path, capsys):
        """A stem and 1,499 copies of a token it prefixes, against a record
        holding that token 1,500 times."""
        corpus = tmp_path / "ww.jsonl"
        corpus.write_text(json.dumps({"id": "r", "title": "ww " * 1500, "year": 2016})
                          + "\n")
        strategy = tmp_path / "ww.json"
        strategy.write_text(json.dumps({"name": "ww", "seeds": [
            {"query": '"ww* ' + "ww " * 1499 + '"~1'}]}))
        out = tmp_path / "result.json"
        assert self.run_cli("run", "--strategy", str(strategy), "--corpus", str(corpus),
                            "--out", str(out)) == 0
        assert json.loads(out.read_text())["members"] == ["r"]

    @pytest.mark.parametrize("line, command, message", [
        ("5", "ingest", "line 2: record is not a JSON object"),
        ("null", "ingest", "line 2: record is not a JSON object"),
        ('{"id": "b", "title": "t", "year": 2016, "doi": 5}', "ingest",
         "line 2: 'doi' is not a string: 5"),
        ('{"id": "b", "title": 5, "year": 2016}', "index",
         "line 2: 'title' is not a string: 5"),
        ('{"id": "b", "title": "t", "year": 2016, "abstract": ["x"]}', "index",
         "line 2: 'abstract' is not a string: ['x']"),
        ('{"id": "b", "title": "t", "year": 2016, "keywords": "climate change"}',
         "index", "line 2: 'keywords' is not a list of strings: 'climate change'"),
        ('{"id": "b", "title": "t", "year": 2016, "refs": "b"}', "index",
         "line 2: 'refs' is not a list of strings: 'b'"),
        ('{"id": "b", "title": "t", "year": 2019.9}', "ingest",
         "line 2: 'year' is not an integer: 2019.9"),
        ('{"id": "b", "title": "t", "year": "\\uff12\\uff10\\uff11\\uff16"}', "ingest",
         "line 2: 'year' is not an integer: '２０１６'"),
        ('{"id": "b", "title": "t", "year": true}', "index",
         "line 2: 'year' is not an integer: True"),
        ('{"id": ["b"], "title": "t", "year": 2016}', "ingest",
         "line 2: 'id' is not a string or an integer: ['b']"),
        ('{"id": true, "title": "t", "year": 2016}', "index",
         "line 2: 'id' is not a string or an integer: True"),
        ("[" * 10**5, "ingest", "line 2: invalid JSON (nested too deeply)"),
    ], ids=["int", "null", "doi-int", "title-int", "abstract-list", "keywords-string",
            "refs-string", "year-float", "year-fullwidth-digits", "year-bool", "id-list",
            "id-bool", "nested-too-deeply"])
    def test_bad_corpus_line_exit_code(self, tmp_path, capsys, line, command, message):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"id": "a", "title": "t", "year": 2016}\n' + line + "\n")
        argv = ("--corpus", str(corpus)) + (
            ("--out", str(tmp_path / "index.json")) if command == "index" else ())
        err = self.run_cli_failing(capsys, 2, command, *argv)
        assert err == f"error: [ingest:bad] {message}\n"

    @pytest.mark.parametrize("kind", ["config", "strategy", "index", "result", "bundle"])
    def test_file_nested_too_deeply_exit_code(self, demo_dir, tmp_path, capsys, kind):
        """A JSON file nested deeper than the reader can go is bad input of
        its stage, not a RecursionError."""
        deep = tmp_path / ("alpha.json" if kind == "strategy" else f"{kind}.json")
        if kind == "bundle":
            deep = tmp_path / "run" / "reports" / "bundle.json"
            deep.parent.mkdir(parents=True)
        deep.write_text('{"a": ' + "[" * 10**5, encoding="utf-8")
        corpus = str(demo_dir / "corpus_x.jsonl")
        argv, label = {
            "config": (("pipeline", "--config", str(deep)), "config"),
            "strategy": (("strategy", "summarize", str(deep)), "strategy:alpha"),
            "index": (("run", "--strategy", str(demo_dir / "alpha.json"), "--corpus",
                       corpus, "--index", str(deep)), f"index:{deep}"),
            "result": (("enhance", "--corpus", corpus, "--result", str(deep),
                        "--strategy", str(demo_dir / "beta.json")), f"result:{deep}"),
            "bundle": (("report", "--bundle", str(tmp_path / "run"),
                        "--out", str(tmp_path / "md")), "report"),
        }[kind]
        err = self.run_cli_failing(capsys, 2, *argv)
        assert err.startswith(f"error: [{label}] maximum recursion depth exceeded"), err

    @pytest.mark.parametrize("change, message", [
        ({"resolution": "1"}, "resolution must be a finite number > 0: '1'"),
        ({"resolution": 0}, "resolution must be a finite number > 0: 0"),
        ({"resolution": -1}, "resolution must be a finite number > 0: -1"),
        ({"threshold": "0.2"}, "threshold must be a number: '0.2'"),
        ({"seed": 1.5}, "seed must be an int: 1.5"),
        ({"whole_corpus_shares": "no"}, "whole_corpus_shares must be a bool: 'no'"),
        ({"window": {"start": 2015}}, "window must be an object with int start and end"),
    ], ids=["resolution-string", "resolution-zero", "resolution-negative",
            "threshold-string", "seed-float", "shares-string", "window-no-end"])
    def test_strategy_bad_enhancement_exit_code(self, demo_dir, tmp_path, capsys,
                                                change, message):
        demo = tmp_path / "demo"
        shutil.copytree(demo_dir, demo)
        doc = json.loads((demo / "beta.json").read_text())
        if "window" in change:
            doc.update(change)
        else:
            doc["enhancement"].update(change)
        (demo / "beta.json").write_text(json.dumps(doc))
        err = self.run_cli_failing(capsys, 2, "pipeline", "--config",
                                   str(demo / "config.json"),
                                   "--output-dir", str(tmp_path / "out"))
        assert err.startswith(f"error: [strategy:beta] {message}")

    @pytest.mark.parametrize("config, message", [
        ({"min_occurrences": 5, "layout_iterations": -1},
         "layout_iterations must be an int >= 0: -1"),
        ({"min_occurrences": 5, "layout_iterations": 2.5},
         "layout_iterations must be an int >= 0: 2.5"),
        ({"min_occurrences": 5, "layout_seed": 1.5}, "layout_seed must be an int >= 0: 1.5"),
        ({"min_occurrences": 5, "layout_seed": -1}, "layout_seed must be an int >= 0: -1"),
        ({"min_occurrences": 5, "max_ngram": "3"}, "max_ngram must be an int >= 1: '3'"),
        ({"min_occurrences": 5, "max_ngram": 0}, "max_ngram must be an int >= 1: 0"),
        ({"min_occurrences": "5"}, "min_occurrences must be an int >= 1: '5'"),
        ({"min_occurrences": 0}, "min_occurrences must be an int >= 1: 0"),
        ("x", "termmap config is not an object: 'x'"),
    ], ids=["iterations-negative", "iterations-float", "seed-float", "seed-negative",
            "ngram-string", "ngram-zero", "occurrences-string", "occurrences-zero",
            "not-an-object"])
    def test_termmap_bad_config_exit_code(self, demo_dir, tmp_path, capsys, config,
                                          message):
        doc = json.loads((demo_dir / "config.json").read_text())
        doc["termmaps"][1]["config"] = config
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        err = self.run_cli_failing(capsys, 2, "pipeline", "--config", str(path),
                                   "--output-dir", str(tmp_path / "out"))
        assert err.startswith(f"error: [config] termmap beta__delta: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, argument", [
        (["termmap", "--min-occurrences", "0"], "--min-occurrences"),
        (["termmap", "--min-occurrences", "1.5"], "--min-occurrences"),
        (["termmap", "--seed", "-1"], "--seed"),
        (["termmap", "--seed", "x"], "--seed"),
        (["termmap", "--max-ngram", "0"], "--max-ngram"),
        (["termmap", "--max-ngram", "2.5"], "--max-ngram"),
        (["termmap", "--layout-iterations", "-1"], "--layout-iterations"),
        (["termmap", "--layout-iterations", "many"], "--layout-iterations"),
        (["compare", "--sample", "-1"], "--sample"),
        (["compare", "--sample", "2.5"], "--sample"),
    ], ids=["occurrences-zero", "occurrences-float", "seed-negative", "seed-word",
            "ngram-zero", "ngram-float", "iterations-negative", "iterations-word",
            "sample-negative", "sample-float"])
    def test_bad_setting_is_a_usage_error(self, demo_dir, tmp_path, capsys, argv,
                                          argument):
        command, *option = argv
        required = {"termmap": ["--a", "a.json", "--b", "b.json", "--corpus-a",
                                str(demo_dir / "corpus_x.jsonl"), "--out", str(tmp_path)],
                    "compare": ["--a", "a.json", "--b", "b.json", "--coverage-a",
                                "x.txt", "--coverage-b", "y.txt"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *required, *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: sdglab {command}")
        assert f"argument {argument}: " in err

    def test_entry_point_installed(self):
        """The console script, or `python -m sdglab` where none is installed."""
        exe = shutil.which("sdglab")
        command = [exe] if exe else [sys.executable, "-m", "sdglab"]
        env = {**os.environ, "PYTHONPATH": str(Path(sdglab.__file__).parents[1])}
        proc = subprocess.run(command + ["parse", "--query", '"a" AND "b"'],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == '"a" AND "b"\n'


def test_benchmark_imports_resolve():
    """perfbench/measure.py imports names from the sdglab modules; renaming
    one of them must fail here, not only in the benchmark's own tests."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])}
    proc = subprocess.run([sys.executable, "-c", "import measure"], cwd=root, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_runtime_imports_no_networkx(demo_dir, tmp_path):
    """networkx is only the tests' clustering reference: importing sdglab and
    its CLI and running the demo pipeline load no networkx module."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = ("import json, sys\n"
              "import sdglab, sdglab.cli\n"
              "code = sdglab.cli.main(['pipeline', '--config', sys.argv[1],\n"
              "                        '--output-dir', sys.argv[2]])\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                               if m.split('.')[0] == 'networkx')]))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(demo_dir / "config.json"),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
    assert (tmp_path / "out" / "manifest.json").exists()


def test_readme_cli_synopsis_matches_parser():
    """Each `sdglab <cmd>` entry of the README's CLI synopsis names exactly
    the options `build_parser()` gives that subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis: dict[str, set[str]] = {}
    for line in block.splitlines():
        usage = line.split("#")[0]
        if usage.startswith("sdglab "):
            command = usage.split()[1]
            synopsis[command] = set()
        synopsis[command] |= set(re.findall(r"--[a-z][a-z-]*", usage))
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {command: {option for action in parser._actions
                         for option in action.option_strings
                         if option.startswith("--") and option != "--help"}
               for command, parser in subparsers.choices.items()}
    assert synopsis == options


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    """Each demo runs to exit 0 in an empty working directory."""
    env = {**os.environ, "PYTHONPATH": str(demo.parents[1] / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "03_enhancement_and_overlap":
        # the pipeline's results/beta/result.json: 29 members, window cut included
        assert "enhanced: 29 records" in proc.stdout


def test_public_names():
    """`sdglab.__all__` holds the data types, the four query functions and the
    stage functions, and every name the demos and the README quick start
    import from `sdglab`."""
    functions = {"parse_query", "print_query", "explain", "evaluate",
                 "ingest", "index_corpus", "load_strategy", "run_strategy",
                 "load_result_file", "cluster_assignment", "enhance", "compare",
                 "term_map", "run_pipeline", "emit_report"}
    exported = {name: getattr(sdglab, name) for name in sdglab.__all__}
    assert {name for name, obj in exported.items() if not isinstance(obj, type)} == functions
    root = Path(__file__).resolve().parents[1]
    quick_start = (root / "README.md").read_text().split(
        "## Quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    sources = [quick_start] + [path.read_text() for path in DEMOS]
    imported = {alias.name for source in sources for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "sdglab"
                for alias in node.names}
    assert imported <= exported.keys()
