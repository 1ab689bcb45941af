"""The fork list of tools/fork_audit.py stays true to the code: each
fork's snippet occurs exactly once in its file, the file with the general
route in its place compiles, and its layer is a function of the package.
A change that moves a fork's code has to retire or update its entry in
the open.  The byte check and the timing themselves run in their own CI
step (python tools/fork_audit.py --bytes-only)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fork_audit.py"
_SPEC = importlib.util.spec_from_file_location("fork_audit", _PATH)
fork_audit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fork_audit)


def _source(entry):
    return (fork_audit.SRC / entry.file).read_text(encoding="utf-8")


@pytest.mark.parametrize("fork", fork_audit.FORKS, ids=lambda fork: fork.id)
def test_each_fork_occurs_once_and_its_general_route_compiles(fork):
    source = _source(fork)
    assert source.count(fork.snippet) == 1
    forced = fork_audit.forced(fork, source)
    assert forced != source
    compile(forced, fork.file, "exec")
    module, name = fork.layer.split(".")
    assert callable(getattr(importlib.import_module("evolalg." + module), name))


@pytest.mark.parametrize("route", fork_audit.REQUIRED, ids=lambda route: route.id)
def test_each_required_route_occurs_once(route):
    assert _source(route).count(route.snippet) == 1


def test_fork_ids_are_distinct():
    ids = [entry.id for entry in (*fork_audit.FORKS, *fork_audit.REQUIRED)]
    assert len(ids) == len(set(ids))


def test_a_snippet_that_does_not_occur_once_is_refused():
    fork = fork_audit.FORKS[0]
    with pytest.raises(ValueError, match="occurs 2 times"):
        fork_audit.forced(fork, fork.snippet * 2)
