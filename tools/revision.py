"""Extract a git revision of this repository into a fresh directory."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path


def extract(root: Path, revision: str, dest: Path) -> str:
    """Write ``revision``'s committed files into ``dest`` with ``git archive``.

    ``dest`` must not exist yet. Returns the revision's short commit hash.
    """
    if dest.exists():
        sys.exit(f"error: {dest} exists; pass an empty --work directory")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", revision], cwd=root, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", "--short", revision], cwd=root,
                          check=True, capture_output=True, text=True).stdout.strip()
