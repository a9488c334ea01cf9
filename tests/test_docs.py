"""The top-level documents may only name files that exist."""

import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A backticked token is a repo path when, up to an optional
#: ``:symbol``/``:line`` suffix, it is made of path characters and ends
#: in a source/data extension or a ``/``.  Globs are allowed.
_TOKEN = re.compile(r"`([\w.*/-]+(?:\.(?:py|md|json|jsonl|yml|toml|txt)|/))"
                    r"(?::[^`\n]*)?`")
#: Files a documented command writes; named in the docs, never committed.
_GENERATED = {"trace.json"}
#: Where a relative path may be anchored (module paths are written
#: ``repro/net/…`` and ``net/…`` as well as ``src/repro/net/…``).
_ANCHORS = ("", "src", os.path.join("src", "repro"))


def _resolves(path: str) -> bool:
    if any(glob.glob(os.path.join(ROOT, anchor, path))
           for anchor in _ANCHORS):
        return True
    # A bare file name (``pbft.py``, ``common.py``) may live anywhere.
    return "/" not in path and bool(
        glob.glob(os.path.join(ROOT, "**", path), recursive=True))


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_backticked_paths_resolve(doc):
    with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
        paths = sorted(set(_TOKEN.findall(fh.read())) - _GENERATED)
    assert paths, "the pattern found no path at all"
    assert [p for p in paths if not _resolves(p)] == []
