"""Native execution: one precompiled C executor for every design.

The pipeline is ``executor`` (the fixed C source plus
:func:`encode_program`, VectorProgram → ``int32`` instruction stream),
``toolchain`` (system compiler discovery + cache fingerprint) and
``build`` (compile the executor once per toolchain, content-address and
load the shared object).  :mod:`repro.machine.native` wires the three
into the ``engine="native"`` execution path.
"""

from repro.codegen.build import (
    NATIVE_FORMAT_VERSION,
    NativeExecutor,
    kernel_key,
    load_or_build,
    native_cache_dir,
)
from repro.codegen.executor import (
    EXECUTOR_SOURCE,
    UnsupportedForNative,
    encode_program,
)
from repro.codegen.toolchain import (
    CC_ENV_VAR,
    DISABLE_ENV_VAR,
    Toolchain,
    find_toolchain,
    native_available,
    native_disabled,
)

__all__ = [
    "CC_ENV_VAR",
    "DISABLE_ENV_VAR",
    "EXECUTOR_SOURCE",
    "NATIVE_FORMAT_VERSION",
    "NativeExecutor",
    "Toolchain",
    "UnsupportedForNative",
    "encode_program",
    "find_toolchain",
    "kernel_key",
    "load_or_build",
    "native_available",
    "native_cache_dir",
    "native_disabled",
]
