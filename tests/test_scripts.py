"""The generator scripts still write the data that ships in src/sdglab/data."""

import importlib.util
from pathlib import Path

import pytest

from conftest import DATA_DIR

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, shipped", [
    ("gen_demo", DATA_DIR / "demo"),
    ("gen_strategies", DATA_DIR / "strategies"),
], ids=["gen_demo", "gen_strategies"])
def test_script_reproduces_shipped_data(script, shipped, tmp_path):
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT_DIR = tmp_path
    module.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in shipped.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
