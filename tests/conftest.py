"""Session-wide guard: the test suite leaves the checkout as it found it.

Tests write their outputs under pytest's tmp_path, and Hypothesis keeps
its storage in a temporary directory (set below, before any test runs);
pytest's cache and pytest-benchmark's storage are off (pyproject.toml).
The guard records the size and modification time of each file git
tracks, and every path of the checkout, before the session.  It fails
the session if by its end a tracked file changed, appeared or vanished,
or any new file or directory appeared outside __pycache__, ignored
paths included.  Outside a git checkout (or without git) no file is
tracked, and only the check for new paths runs.
"""

import os
import subprocess
import tempfile
from pathlib import Path

import pytest

try:
    import hypothesis.configuration
except ImportError:  # the tests that use Hypothesis fail on their own import
    pass
else:
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    hypothesis.configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

ROOT = Path(__file__).resolve().parent.parent


def _tracked_files() -> list[Path] | None:
    try:
        listing = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "-z"], capture_output=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return [ROOT / os.fsdecode(name) for name in listing.split(b"\0") if name]


def _paths() -> set[str]:
    """Every file and directory of the checkout outside .git and __pycache__."""
    found = set()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = [name for name in dirs if name not in (".git", "__pycache__")]
        found.update(os.path.relpath(os.path.join(top, name), ROOT) for name in dirs + files)
    return found


def _stamp(path: Path) -> tuple[int, int] | None:
    try:
        stat = path.stat()
    except FileNotFoundError:
        return None
    return stat.st_size, stat.st_mtime_ns


@pytest.fixture(scope="session", autouse=True)
def checkout_unchanged():
    before = {path: _stamp(path) for path in _tracked_files() or ()}
    paths = _paths()
    yield
    changed = [str(path.relative_to(ROOT)) for path, stamp in before.items() if _stamp(path) != stamp]
    if changed:
        pytest.fail(f"the test session changed git-tracked files: {', '.join(changed)}")
    appeared = sorted(_paths() - paths)
    if appeared:
        pytest.fail(f"the test session added paths to the checkout: {', '.join(appeared)}")
