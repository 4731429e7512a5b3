import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

from _novel import build_novel  # noqa: E402


@pytest.fixture(scope="session")
def novel():
    """(text, exact per-sentence word counts) of the synthetic novel."""
    return build_novel()


@pytest.fixture(scope="session")
def novel_path(novel, tmp_path_factory):
    text, _lengths = novel
    path = tmp_path_factory.mktemp("novel") / "novel.txt"
    path.write_text(text, encoding="utf-8")
    return path
