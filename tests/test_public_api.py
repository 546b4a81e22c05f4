"""Public API surface checks: every ``__all__`` name must resolve, and
the headline entry points must be importable from the package root."""

import importlib

import pytest

_PACKAGES = [
    "repro",
    "repro.ir",
    "repro.lang",
    "repro.cfg",
    "repro.callgraph",
    "repro.pta",
    "repro.core",
    "repro.semantics",
    "repro.javalib",
    "repro.bytecode",
]


@pytest.mark.parametrize("name", _PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, "%s must declare __all__" % name
    for attr in exported:
        assert hasattr(module, attr), "%s.%s missing" % (name, attr)


def test_root_quickstart_surface():
    import repro

    for attr in (
        "parse_program",
        "LeakChecker",
        "LoopSpec",
        "RegionSpec",
        "DetectorConfig",
        "analyze_loop",
        "analyze_trace",
        "execute",
        "inline_calls",
    ):
        assert hasattr(repro, attr)


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_no_all_duplicates():
    for name in _PACKAGES:
        module = importlib.import_module(name)
        exported = module.__all__
        assert len(exported) == len(set(exported)), name


def test_all_sorted_for_readability():
    for name in _PACKAGES:
        module = importlib.import_module(name)
        exported = [n for n in module.__all__ if n != "__version__"]
        assert exported == sorted(exported), name


def _current_surface():
    lines = []
    for name in ("repro", "repro.core"):
        module = importlib.import_module(name)
        for attr in sorted(module.__all__):
            lines.append("%s.%s" % (name, attr))
    return lines


def test_api_surface_matches_manifest():
    """The public surface is a contract: any addition or removal must
    be deliberate.  When this fails, update tests/data/public_api.txt
    in the same change that moves the API (and document the move in
    docs/internals.md)."""
    import pathlib

    manifest_path = (
        pathlib.Path(__file__).parent / "data" / "public_api.txt"
    )
    manifest = manifest_path.read_text().split()
    current = _current_surface()
    added = sorted(set(current) - set(manifest))
    removed = sorted(set(manifest) - set(current))
    assert current == manifest, (
        "public API surface drifted (added: %s; removed: %s) — if "
        "intentional, regenerate tests/data/public_api.txt"
        % (", ".join(added) or "none", ", ".join(removed) or "none")
    )


def test_new_facade_exported_everywhere():
    for name in ("repro", "repro.core"):
        module = importlib.import_module(name)
        assert "Analyzer" in module.__all__
        assert "analyze" in module.__all__


def test_library_import_stays_light():
    """Importing the scan library must not drag in the process-pool
    machinery or the daemon; a fanned-out scan imports them on use."""
    import os
    import subprocess
    import sys

    import repro

    script = (
        "import sys, repro.core.scan, repro.lang\n"
        "heavy = ('multiprocessing', 'concurrent.futures', 'repro.server')\n"
        "for name in sorted(sys.modules):\n"
        "    if any(name == h or name.startswith(h + '.') for h in heavy):\n"
        "        print(name)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert proc.stdout.split() == []
