import os
import subprocess
import sys
from pathlib import Path

import textfract

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_text_pipeline_demo_runs_on_novel(novel_path):
    src = str(Path(textfract.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "text_pipeline.py"), str(novel_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sentences, mean length" in proc.stdout
