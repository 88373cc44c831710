"""Locates the porosplit sources of the checkout the benchmark lives in.

The benchmark measures the library in ``<checkout>/src``, never an
installed copy, so a checkout without its sources fails instead of
measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingLibrary(RuntimeError):
    """The checkout holds no porosplit sources."""


def library_present() -> bool:
    return (SRC / "porosplit" / "__init__.py").is_file()


def use_checkout_library() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` and import porosplit."""
    if not library_present():
        raise MissingLibrary(f"no porosplit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import porosplit
    if Path(porosplit.__file__).resolve().parent != SRC / "porosplit":
        raise MissingLibrary(f"porosplit imported from {porosplit.__file__}, "
                             f"not from {SRC}")


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
