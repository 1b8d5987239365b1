"""Plain-text value cache, rooted at $SMOOTHSUM_CACHE_DIR (no caching if unset).

Files carry a versioned header and floats are written with 17 significant
digits, so a cache hit reproduces the computed doubles bit for bit.  A third
header line holds the value count and the sha256 of the body; a file that
does not match it (cut short, edited, or from an older format) is a miss.
"""

import os
import tempfile
from pathlib import Path

CACHE_ENV = "SMOOTHSUM_CACHE_DIR"
CACHE_FORMAT_VERSION = 2


def cache_dir() -> Path | None:
    root = os.environ.get(CACHE_ENV)
    return Path(root) if root else None


def fmt_float(x: float) -> str:
    return format(x, ".17g")


def _check_line(count: int, body: str) -> str:
    # imported on first use: hashlib loads OpenSSL (~3.5 MB resident), which
    # runs without a cache directory never need
    import hashlib

    return f"# count: {count} sha256: {hashlib.sha256(body.encode()).hexdigest()}"


def load_floats(name: str, key: str) -> list[float] | None:
    root = cache_dir()
    if root is None:
        return None
    path = root / name
    if not path.is_file():
        return None
    header = [f"# smoothsum-cache v{CACHE_FORMAT_VERSION}", f"# key: {key}"]
    parts = path.read_text(errors="replace").split("\n", 3)
    if len(parts) < 4 or parts[:2] != header:
        return None
    tokens = parts[3].split()
    if parts[2] != _check_line(len(tokens), parts[3]):
        return None
    try:
        return [float(tok) for tok in tokens]
    except ValueError:  # a damaged file is a miss, not an error
        return None


def store_floats(name: str, key: str, values) -> None:
    root = cache_dir()
    if root is None:
        return
    root.mkdir(parents=True, exist_ok=True)
    lines = [fmt_float(v) + "\n" for v in values]
    body = "".join(lines)
    text = (
        f"# smoothsum-cache v{CACHE_FORMAT_VERSION}\n# key: {key}\n"
        f"{_check_line(len(lines), body)}\n{body}"
    )
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
