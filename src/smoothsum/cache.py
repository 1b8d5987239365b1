"""Plain-text value cache, rooted at $SMOOTHSUM_CACHE_DIR (no caching if unset).

Files carry a versioned header and floats are written with 17 significant
digits, so a cache hit reproduces the computed doubles bit for bit.
"""

import os
import tempfile
from pathlib import Path

CACHE_ENV = "SMOOTHSUM_CACHE_DIR"
CACHE_FORMAT_VERSION = 1


def cache_dir() -> Path | None:
    root = os.environ.get(CACHE_ENV)
    return Path(root) if root else None


def fmt_float(x: float) -> str:
    return format(x, ".17g")


def load_floats(name: str, key: str) -> list[float] | None:
    root = cache_dir()
    if root is None:
        return None
    path = root / name
    if not path.is_file():
        return None
    lines = path.read_text().splitlines()
    if len(lines) < 2 or lines[0] != f"# smoothsum-cache v{CACHE_FORMAT_VERSION}":
        return None
    if lines[1] != f"# key: {key}":
        return None
    try:
        return [float(tok) for tok in lines[2:] if tok]
    except ValueError:  # a damaged file is a miss, not an error
        return None


def store_floats(name: str, key: str, values) -> None:
    root = cache_dir()
    if root is None:
        return
    root.mkdir(parents=True, exist_ok=True)
    body = "\n".join(fmt_float(v) for v in values)
    text = f"# smoothsum-cache v{CACHE_FORMAT_VERSION}\n# key: {key}\n{body}\n"
    # write-then-rename in one directory, so an interrupted write never
    # leaves a partial file under the final name
    fd, tmp = tempfile.mkstemp(dir=root, prefix=f".{name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, root / name)
    except BaseException:
        os.unlink(tmp)
        raise
