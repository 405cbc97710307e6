"""System C toolchain discovery for the native engine.

The native backend is feature-gated on a working C compiler: everything
degrades to ndarray kernels when none is present, so this module never
raises on a missing toolchain — it answers "is there one, and which one".

Discovery order: ``$REPRO_CC`` (explicit override), then ``cc``, ``gcc``,
``clang`` on ``PATH``.  ``$REPRO_NO_NATIVE`` (any non-empty value)
force-disables the toolchain — :func:`native_disabled` sets it for a block,
so the fuzzer and the test suite reach the ndarray tier on machines that
*do* have a compiler.

The **fingerprint** (compiler path + the first line of ``--version``)
enters every native cache key: upgrading or switching the compiler must
miss the shared-object cache, never load an artifact some other toolchain
produced.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass

#: Environment variable naming the C compiler explicitly.
CC_ENV_VAR = "REPRO_CC"

#: Environment variable force-disabling the native backend when non-empty.
DISABLE_ENV_VAR = "REPRO_NO_NATIVE"

#: Compilers probed on PATH, in order, when ``$REPRO_CC`` is unset.
_CANDIDATES = ("cc", "gcc", "clang")


@dataclass(frozen=True)
class Toolchain:
    """One usable C compiler: invocation path plus its cache fingerprint."""

    cc: str
    fingerprint: str

    def compile_command(self, source: str, output: str) -> list[str]:
        """The shared-object build line for the native executor."""
        return [self.cc, "-O2", "-std=c99", "-shared", "-fPIC",
                source, "-o", output]


#: Memoised discovery result: unset / Toolchain / None (no toolchain).
_cached: "Toolchain | None | str" = "unset"


def _version_line(cc: str) -> str | None:
    """First line of ``cc --version``, or ``None`` if it cannot run."""
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    out = proc.stdout.strip().splitlines()
    return out[0] if out else ""


def _discover() -> "Toolchain | None":
    if os.environ.get(DISABLE_ENV_VAR):
        return None
    explicit = os.environ.get(CC_ENV_VAR)
    candidates = (explicit,) if explicit else _CANDIDATES
    for name in candidates:
        path = shutil.which(name)
        if path is None:
            continue
        version = _version_line(path)
        if version is None:
            continue
        return Toolchain(cc=path, fingerprint=f"{path}|{version}")
    return None


def find_toolchain(refresh: bool = False) -> "Toolchain | None":
    """The system C toolchain, or ``None`` when the native engine must
    fall back.  Discovery is memoised per process; ``refresh`` re-probes
    (tests flipping the environment variables)."""
    global _cached
    if refresh or _cached == "unset":
        _cached = _discover()
    return _cached


def native_available(refresh: bool = False) -> bool:
    """Whether the native engine can compile kernels on this machine."""
    return find_toolchain(refresh) is not None


@contextmanager
def native_disabled():
    """Run the block with ``$REPRO_NO_NATIVE`` set and discovery re-probed:
    the native engine takes its ndarray tier, as on a machine without a
    compiler.  The environment and the memoised toolchain are restored on
    exit."""
    old = os.environ.get(DISABLE_ENV_VAR)
    os.environ[DISABLE_ENV_VAR] = "1"
    find_toolchain(refresh=True)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(DISABLE_ENV_VAR, None)
        else:
            os.environ[DISABLE_ENV_VAR] = old
        find_toolchain(refresh=True)
