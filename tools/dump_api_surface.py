#!/usr/bin/env python
"""Snapshot the ``repro.api`` public surface (names + signatures).

The snapshot lives at ``tests/data/api_surface.txt`` and is the repo's
API-stability contract: CI runs ``--check`` and fails when the surface
drifts from the committed file, so every surface change is an explicit
diff in review rather than an accident.

Usage::

    python tools/dump_api_surface.py            # rewrite the snapshot
    python tools/dump_api_surface.py --check    # exit 1 on drift (CI)
"""

from __future__ import annotations

import difflib
import inspect
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO / "tests" / "data" / "api_surface.txt"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def describe(name: str, obj: object) -> str:
    if isinstance(obj, type):
        return f"{name}: class {_signature(obj)}"
    if callable(obj):
        return f"{name}: function {_signature(obj)}"
    return f"{name}: data ({type(obj).__name__})"


def render() -> str:
    from repro import api

    lines = [
        "# repro.api public surface — regenerate with",
        "# `python tools/dump_api_surface.py` and commit the diff",
        "# alongside the code change that caused it.",
    ]
    lines += [describe(name, getattr(api, name))
              for name in sorted(api.__all__)]
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    current = render()
    if "--check" in argv:
        if not SNAPSHOT.exists():
            print(f"missing snapshot {SNAPSHOT}; run "
                  "`python tools/dump_api_surface.py` and commit it",
                  file=sys.stderr)
            return 1
        committed = SNAPSHOT.read_text()
        if committed == current:
            print(f"api surface matches {SNAPSHOT}")
            return 0
        diff = difflib.unified_diff(
            committed.splitlines(keepends=True),
            current.splitlines(keepends=True),
            fromfile=str(SNAPSHOT), tofile="current surface")
        sys.stderr.writelines(diff)
        print("\napi surface drifted; regenerate the snapshot with "
              "`python tools/dump_api_surface.py` and commit the diff",
              file=sys.stderr)
        return 1
    SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
    SNAPSHOT.write_text(current)
    print(f"wrote {SNAPSHOT} ({len(current.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
