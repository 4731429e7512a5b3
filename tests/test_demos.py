import os
import subprocess
import sys
from pathlib import Path

import pytest

import textfract

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, args, cwd):
    src = str(Path(textfract.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py"), *map(str, args)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_text_pipeline_demo_runs_on_novel(novel_path, tmp_path):
    assert "sentences, mean length" in run_demo("text_pipeline", [novel_path], tmp_path)


# small sizes; demos that write files write them under the working directory
@pytest.mark.parametrize("argv", [
    ["cascade_mfdfa", "--levels", "12"],
    ["spectrum_surrogates", "--n", "4096"],
    ["tail_fit", "--n", "20000"],
    ["wavelet_map", "--levels", "10"],
], ids=lambda argv: argv[0])
def test_demo_runs(argv, tmp_path):
    assert run_demo(argv[0], argv[1:], tmp_path)
