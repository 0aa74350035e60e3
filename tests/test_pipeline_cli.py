import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sdglab.cli import main
from sdglab.pipeline import PipelineConfig, PipelineError, run_pipeline


@pytest.fixture()
def demo_config(demo_dir, tmp_path):
    return PipelineConfig.load(demo_dir / "config.json",
                               output_dir=tmp_path / "out")


def tree_digest(root: Path) -> dict:
    import hashlib
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

    def test_manifest_lists_every_output_with_hash(self, demo_config):
        run_pipeline(demo_config)
        out = demo_config.output_dir
        manifest = json.loads((out / "manifest.json").read_text())
        files = {str(p.relative_to(out)) for p in out.rglob("*")
                 if p.is_file() and p.name != "manifest.json"}
        assert set(manifest["outputs"]) == files
        for digest in manifest["outputs"].values():
            assert len(digest) == 64

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


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_parse_explain(self, capsys):
        assert self.run_cli("parse", "--query", '"climate change"~2',
                            "--explain") == 0
        out = capsys.readouterr().out
        assert "Proximity" in out

    def test_parse_error_exit_code(self, capsys):
        assert self.run_cli("parse", "--query", '"unbalanced') == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert self.run_cli("ingest", "--corpus",
                            str(tmp_path / "missing.jsonl")) == 3

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

    def run_with_index(self, demo_dir, index, corpus="corpus_x.jsonl"):
        return self.run_cli("run", "--strategy", str(demo_dir / "alpha.json"),
                            "--corpus", str(demo_dir / corpus),
                            "--index", str(index))

    def test_index_of_another_corpus_exit_code(self, demo_dir, tmp_path, capsys):
        index = tmp_path / "index_y.json"
        assert self.run_cli("index", "--corpus", str(demo_dir / "corpus_y.jsonl"),
                            "--out", str(index)) == 0
        capsys.readouterr()
        assert self.run_with_index(demo_dir, index) == 2
        err = capsys.readouterr().err
        assert str(index) in err and "does not index corpus" in err

    def test_partly_overlapping_index_exit_code(self, demo_dir, tmp_path, capsys):
        lines = (demo_dir / "corpus_x.jsonl").read_text(encoding="utf-8").splitlines()
        part = tmp_path / "part.jsonl"
        part.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        index = tmp_path / "index_part.json"
        assert self.run_cli("index", "--corpus", str(part), "--out", str(index)) == 0
        capsys.readouterr()
        assert self.run_with_index(demo_dir, index) == 2
        assert str(index) in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        ('{"magic": "nope"}', "not an index file"),
        ('{"magic": "SDGLAB-INDEX", "version": 99}', "unsupported index version"),
        ('{"magic": "SDGLAB-INDEX", "version": 1, "postings": {"a": [["x0', "Unterminated"),
    ], ids=["magic", "version", "truncated"])
    def test_bad_index_file_exit_code(self, demo_dir, tmp_path, capsys,
                                      content, message):
        index = tmp_path / "bad.json"
        index.write_text(content, encoding="utf-8")
        assert self.run_with_index(demo_dir, index) == 2
        err = capsys.readouterr().err
        assert str(index) in err and message in err

    def test_missing_index_file_exit_code(self, demo_dir, tmp_path):
        assert self.run_with_index(demo_dir, tmp_path / "missing.json") == 3

    def test_enhance_command(self, demo_dir, tmp_path, capsys):
        res = tmp_path / "beta.json"
        self.run_cli("run", "--strategy", str(demo_dir / "beta.json"),
                     "--corpus", str(demo_dir / "corpus_x.jsonl"),
                     "--out", str(res))
        enhanced = tmp_path / "beta_enhanced.json"
        assert self.run_cli(
            "enhance", "--corpus", str(demo_dir / "corpus_x.jsonl"),
            "--result", str(res), "--threshold", "0.15",
            "--out", str(enhanced)) == 0
        doc = json.loads(enhanced.read_text())
        assert doc["members"]

    def test_entry_point_installed(self):
        exe = shutil.which("sdglab")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run([exe, "parse", "--query", '"a" AND "b"'],
                              capture_output=True, text=True)
        assert proc.returncode == 0
