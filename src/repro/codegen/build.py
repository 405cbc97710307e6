"""Compile the native executor once per toolchain and cache the artifact.

The native artifact cache extends the persistent design cache: it lives in
a ``native/`` subdirectory of the same root (``$REPRO_DESIGN_CACHE`` or
``~/.cache/repro-designs``) and uses the same discipline — SHA-256 keys
over canonical JSON, atomic writes (concurrent sweep workers share the
directory), negative entries so a failing compile is diagnosed once, not
re-attempted on every run.

**Key scheme.**  ``sha256({format, toolchain fingerprint, source})``.
There is one source, :data:`~repro.codegen.executor.EXECUTOR_SOURCE`, so
there is one artifact per toolchain: every design runs on it with its
program passed in as data (:func:`~repro.codegen.encode_program`).  A
loaded executor is memoised per process, so only the first design of a
process touches the disk.

Per key the cache holds ``<key>.c`` (the source, for debugging),
``<key>.so`` (the loadable artifact) and ``<key>.json`` (metadata: status
and compile time — or the compiler's stderr for a negative entry).
Hit/miss/negative counters and the ``native.cc`` / ``native.load`` spans
make warm-vs-cold behaviour visible in ``--stats``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from repro.codegen.executor import EXECUTOR_SOURCE, EXECUTOR_SYMBOL
from repro.codegen.toolchain import Toolchain, find_toolchain
from repro.obs import TRACER

#: Same root as the design cache (see :mod:`repro.core.cache`); kept as a
#: literal here so the codegen layer stays import-independent of ``core``.
CACHE_ENV_VAR = "REPRO_DESIGN_CACHE"

#: Bump when the key layout or metadata schema changes incompatibly.
NATIVE_FORMAT_VERSION = 2


def native_cache_dir(root: "str | os.PathLike | None" = None) -> Path:
    """``<design cache root>/native`` — override root with the argument
    or ``$REPRO_DESIGN_CACHE``."""
    if root is not None:
        return Path(root)
    env = os.environ.get(CACHE_ENV_VAR)
    base = Path(env) if env else Path.home() / ".cache" / "repro-designs"
    return base / "native"


def kernel_key(source: str, toolchain: Toolchain) -> str:
    """Canonical SHA-256 key of one (source, toolchain) pair."""
    return _kernel_key(source, toolchain.fingerprint)


@lru_cache(maxsize=8)
def _kernel_key(source: str, fingerprint: str) -> str:
    payload = json.dumps({
        "format": NATIVE_FORMAT_VERSION,
        "toolchain": fingerprint,
        "material": source,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class NativeExecutor:
    """The loaded executor, ready to run encoded programs."""

    path: Path
    _fn: Callable

    def run(self, values: np.ndarray, code: np.ndarray) -> int:
        """Execute ``code`` over a C-contiguous int64 ``(rows, stride)``
        matrix in place; returns 0 on success, 1 on overflow and 2 for a
        malformed code stream."""
        if (values.dtype != np.int64 or values.ndim != 2
                or not values.flags.c_contiguous or not values.flags.writeable
                or code.dtype != np.int32 or code.ndim != 1
                or not code.flags.c_contiguous):
            raise ValueError("the executor needs a writable C-contiguous "
                             "int64 matrix and a contiguous int32 code "
                             "stream")
        rows, stride = values.shape
        return self._fn(values.ctypes.data, rows, stride, code.ctypes.data,
                        len(code))


def _atomic_write(path: Path, body: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load(path: Path) -> NativeExecutor:
    with TRACER.span("native.load"):
        fn = getattr(ctypes.CDLL(str(path)), EXECUTOR_SYMBOL)
        fn.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
                       ctypes.c_void_p, ctypes.c_long]
        fn.restype = ctypes.c_int
        return NativeExecutor(path=path, _fn=fn)


def _read_meta(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    if meta.get("format") != NATIVE_FORMAT_VERSION:
        return None
    return meta


#: Executors already loaded in this process, by artifact path.
_loaded: dict[Path, NativeExecutor] = {}


def load_or_build(source: str = EXECUTOR_SOURCE,
                  cache_dir: "str | os.PathLike | None" = None,
                  ) -> "tuple[NativeExecutor | None, str | None]":
    """The loaded executor for ``source``, through the artifact cache.

    Returns ``(executor, None)`` on success or ``(None, reason)`` when the
    native path is unavailable here: no toolchain or a compile failure
    (negative-cached so ``cc`` runs once per key, not once per process).
    """
    toolchain = find_toolchain()
    if toolchain is None:
        return None, "no C toolchain (cc/gcc/clang) found; set $REPRO_CC"

    root = native_cache_dir(cache_dir)
    key = kernel_key(source, toolchain)
    so_path = root / f"{key}.so"
    loaded = _loaded.get(so_path)
    if loaded is not None:
        return loaded, None
    meta_path = root / f"{key}.json"

    meta = _read_meta(meta_path)
    if meta is not None and meta.get("status") == "ok" and so_path.is_file():
        TRACER.count("native.cache_hits")
        try:
            loaded = _loaded[so_path] = _load(so_path)
            return loaded, None
        except (OSError, AttributeError) as exc:  # truncated, wrong arch
            TRACER.count("native.load_errors")
            return None, f"cached executor failed to load: {exc}"
    if meta is not None and meta.get("status") == "error":
        TRACER.count("native.cache_hits")
        TRACER.count("native.negative_hits")
        return None, meta.get("reason", "cached compile failure")

    TRACER.count("native.cache_misses")
    root.mkdir(parents=True, exist_ok=True)
    c_path = root / f"{key}.c"
    _atomic_write(c_path, source.encode("utf-8"))
    fd, tmp_so = tempfile.mkstemp(dir=root, suffix=".so.tmp")
    os.close(fd)
    t0 = time.perf_counter()
    try:
        with TRACER.span("native.cc"):
            proc = subprocess.run(
                toolchain.compile_command(str(c_path), tmp_so),
                capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        return None, f"compiler failed to run: {exc}"
    compile_ms = round((time.perf_counter() - t0) * 1e3, 3)
    if proc.returncode != 0:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        reason = (f"cc exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-500:]}")
        _atomic_write(meta_path, json.dumps({
            "format": NATIVE_FORMAT_VERSION, "status": "error",
            "reason": reason, "toolchain": toolchain.fingerprint,
        }, sort_keys=True, indent=1).encode("utf-8"))
        TRACER.count("native.negative_stores")
        return None, reason
    os.replace(tmp_so, so_path)
    _atomic_write(meta_path, json.dumps({
        "format": NATIVE_FORMAT_VERSION, "status": "ok",
        "compile_ms": compile_ms, "toolchain": toolchain.fingerprint,
    }, sort_keys=True, indent=1).encode("utf-8"))
    TRACER.count("native.compiles")
    TRACER.annotate(native_compile_ms=compile_ms)
    try:
        loaded = _loaded[so_path] = _load(so_path)
        return loaded, None
    except (OSError, AttributeError) as exc:
        TRACER.count("native.load_errors")
        return None, f"freshly built executor failed to load: {exc}"
