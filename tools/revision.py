"""A git revision's src/, for the tools that compare it with this checkout.

    with revision_src("HEAD") as src:
        ...  # import radarnet from src, or run it there

Stdlib only; the repository is found from this file's location, so the
tools that use it run from any directory.
"""

from __future__ import annotations

import io
import subprocess
import tarfile
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def revision_src(rev: str) -> Iterator[Path]:
    """Yield the path of revision `rev`'s src/, extracted with `git archive`
    into a temporary directory that is removed on exit."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        yield Path(tree) / "src"
