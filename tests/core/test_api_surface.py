"""`repro.api.__all__` is complete, importable and snapshot-stable."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import api

REPO = Path(__file__).resolve().parent.parent.parent

sys.path.insert(0, str(REPO / "tools"))
import dump_api_surface  # noqa: E402


class TestAllList:
    def test_every_name_resolves(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_no_private_names(self):
        assert not [n for n in api.__all__ if n.startswith("_")]

    def test_sorted_and_unique(self):
        assert list(api.__all__) == sorted(set(api.__all__))

    def test_complete(self):
        # Everything importable from the module that isn't a submodule
        # reference must be declared in __all__ — no accidental exports,
        # no undeclared ones.
        import types

        public = {name for name, obj in vars(api).items()
                  if not name.startswith("_")
                  and not isinstance(obj, types.ModuleType)}
        assert public == set(api.__all__)

    def test_pipeline_surface_exported(self):
        for name in ("Pass", "PassPipeline", "PipelineState",
                     "default_pipeline", "make_pass", "available_passes",
                     "run_pipeline"):
            assert name in api.__all__, name

    def test_star_import_honours_all(self):
        namespace: dict = {}
        exec("from repro.api import *", namespace)
        exported = {n for n in namespace if not n.startswith("_")}
        assert exported == set(api.__all__)


class TestSnapshot:
    def test_snapshot_exists(self):
        assert dump_api_surface.SNAPSHOT.exists(), (
            "run `python tools/dump_api_surface.py` and commit the result")

    def test_surface_matches_snapshot(self):
        committed = dump_api_surface.SNAPSHOT.read_text()
        current = dump_api_surface.render()
        assert committed == current, (
            "repro.api drifted from tests/data/api_surface.txt; regenerate "
            "with `python tools/dump_api_surface.py` and commit the diff")

    def test_check_mode_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "dump_api_surface.py"),
             "--check"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr

    def test_sentinel_defaults_normalised(self):
        # No default may leak a memory address into the snapshot, or every
        # regeneration would differ.
        text = dump_api_surface.render()
        assert "object at 0x" not in text


@pytest.mark.parametrize("name", sorted(api.__all__))
def test_documented_or_self_describing(name):
    obj = getattr(api, name)
    if callable(obj):
        assert (obj.__doc__ or "").strip(), f"{name} has no docstring"
