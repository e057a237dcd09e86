"""The README's code runs as written: each fenced ``python`` block, and
its run config through the ``run`` verb."""

import json
import pathlib
import re

import pytest

from hpgalerkin import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_has_the_blocks():
    # the quick start, the custom problem and the run config
    assert len(blocks("python")) == 2 and len(blocks("json")) == 1


@pytest.mark.parametrize("index", [0, 1], ids=["quick-start", "custom-problem"])
def test_python_block_runs(index, capsys):
    exec(compile(blocks("python")[index], f"README.md python block {index}", "exec"), {})


def test_run_config_runs(tmp_path):
    config = json.loads(blocks("json")[0])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == config
