"""Session-wide guard: the test suite leaves every git-tracked file as it found it.

Tests write their outputs under pytest's tmp_path.  The guard records the
size and modification time of each file git tracks before the session and
fails the session if any of them changed, appeared or vanished by its end.
Outside a git checkout (or without git) there is nothing to compare and
the guard does nothing.
"""

import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracked_files() -> list[Path] | None:
    try:
        listing = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "-z"], capture_output=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return [ROOT / os.fsdecode(name) for name in listing.split(b"\0") if name]


def _stamp(path: Path) -> tuple[int, int] | None:
    try:
        stat = path.stat()
    except FileNotFoundError:
        return None
    return stat.st_size, stat.st_mtime_ns


@pytest.fixture(scope="session", autouse=True)
def tracked_files_unchanged():
    files = _tracked_files()
    before = {path: _stamp(path) for path in files or ()}
    yield
    changed = [str(path.relative_to(ROOT)) for path, stamp in before.items() if _stamp(path) != stamp]
    if changed:
        pytest.fail(f"the test session changed git-tracked files: {', '.join(changed)}")
