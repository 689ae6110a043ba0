"""The package's compiled library: every C source of btas, built into one
shared library on first use, cached per user and loaded with ctypes.

The sources are fw_relax.c (Floyd-Warshall's strip loop, for apsp),
write_table.c (the result writer's distinct-value table, for graph_io) and
read_table.c (the readers' tokenizer and number conversion, for graph_io).
They are compiled with `cc -O3 -fPIC -shared`: no -ffast-math, which could
change sums, comparisons and NaN, and no -march=native, so the library runs
on any CPU of its architecture.  The library is
$XDG_CACHE_HOME/btas (or ~/.cache/btas) /btas-KEY.so, KEY from the sha256
of every source, the flags and `cc --version`, so a change to any of them
builds a new one.  It is compiled under a temporary name and renamed into
place, so a process that races this one loads a whole file or builds its
own.  Where no C compiler builds it, or the cache cannot be written,
library() is None and each caller runs its numpy loop, silently and on the
same bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

_SOURCES = tuple(Path(__file__).with_name(name) for name in ("fw_relax.c", "read_table.c", "write_table.c"))
_CC = "cc"
_FLAGS = ("-O3", "-fPIC", "-shared")

_RELAX = (ctypes.c_int, [ctypes.c_void_p] * 3 + [ctypes.c_long] * 4 + [ctypes.c_double] * 2)
#: Each function's (restype, argtypes), declared as the library is loaded.
_PROTOTYPES = {
    "btas_relax_f32": _RELAX,
    "btas_relax_f64": _RELAX,
    "btas_distinct": (ctypes.c_long, [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]),
    "btas_write_rows": (ctypes.c_long, [ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_char_p,
                                        ctypes.c_void_p, ctypes.c_void_p]),
    "btas_read_edges": (ctypes.c_long, [ctypes.c_char_p] + [ctypes.c_long] * 3 + [ctypes.c_void_p] * 3),
    "btas_read_grid": (ctypes.c_long, [ctypes.c_char_p] + [ctypes.c_long] * 4 + [ctypes.c_void_p]),
}

_NOT_LOADED = object()
_library: "ctypes.CDLL | None | object" = _NOT_LOADED
_lock = threading.Lock()


def _key(version: bytes) -> str:
    """The cache key: a sha256 over the sha256 of each source's name and bytes, of the flags and of version."""
    parts = [part for source in _SOURCES for part in (source.name.encode(), source.read_bytes())]
    parts += [" ".join(_FLAGS).encode(), version]
    return hashlib.sha256(b"".join(hashlib.sha256(part).digest() for part in parts)).hexdigest()[:16]


def _load() -> "ctypes.CDLL | None":
    """The library with every prototype declared, built into the user's cache
    unless it is there already; None when it cannot be built or loaded."""
    try:
        version = subprocess.run([_CC, "--version"], capture_output=True, check=True).stdout
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "btas"
        library = cache / f"btas-{_key(version)}.so"
        if not library.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, built = tempfile.mkstemp(".so", ".btas-", cache)
            os.close(fd)
            try:
                subprocess.run([_CC, *_FLAGS, "-o", built, *map(str, _SOURCES)], capture_output=True, check=True)
                os.replace(built, library)
            finally:
                if os.path.exists(built):
                    os.unlink(built)
        loaded = ctypes.CDLL(str(library))
        for name, (restype, argtypes) in _PROTOTYPES.items():
            function = getattr(loaded, name)
            function.restype, function.argtypes = restype, argtypes
    except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError):  # RuntimeError: no home directory
        return None
    return loaded


def library() -> "ctypes.CDLL | None":
    """_load's result, from its first call in this process."""
    global _library
    if _library is _NOT_LOADED:
        with _lock:
            if _library is _NOT_LOADED:
                _library = _load()
    return _library
