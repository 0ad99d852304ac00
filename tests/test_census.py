"""The reach census maps what ran onto the definitions it lists.

A fixture package is recorded in this process, with one function run
only in a forked child; the census must list exactly the definitions
that did not run, by line, not by name.
"""

import importlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
import census  # noqa: E402

FIXTURE = '''
import functools
import multiprocessing


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@traced
def decorated_ran():
    return 1


@traced
def decorated_idle():
    return 2


def helper():
    return 0


def outer():
    def helper():
        return 1
    return helper()


def in_child():
    return 3


def idle():
    return 4


class Shape:
    def __init__(self):
        self.side = 2

    @property
    def area(self):
        return self.side ** 2

    @property
    def perimeter(self):
        return 4 * self.side

    def scale(self, k):
        self.side *= k

    def rotate(self):
        pass


class Unused:
    def spin(self):
        pass


def run():
    decorated_ran()
    outer()
    shape = Shape()
    shape.scale(2)
    assert shape.area == 16
    child = multiprocessing.get_context("fork").Process(target=in_child)
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
'''


@pytest.mark.skipif(sys.platform == "win32", reason="needs the fork start method")
def test_census_lists_exactly_the_definitions_that_did_not_run(tmp_path):
    sources = tmp_path / "src"
    sources.mkdir()
    (sources / "census_fixture.py").write_text(FIXTURE)
    sys.path.insert(0, str(sources))
    recorder = census.Recorder(str(tmp_path), root=tmp_path)
    try:
        recorder.start()
        try:
            importlib.import_module("census_fixture").run()
        finally:
            recorder.stop()
    finally:
        sys.path.remove(str(sources))
        sys.modules.pop("census_fixture", None)
    recorder.dump()
    reached = census.read_reach(tmp_path)
    in_child = FIXTURE.splitlines().index("def in_child():") + 1
    assert ("src/census_fixture.py", in_child, "in_child") in reached  # the child's dump
    listed = {qualname for _, _, qualname, _ in census.census(reached, sources, tmp_path)}
    # ``helper`` is listed although a nested ``helper`` ran; ``traced``
    # ran at import; a class none of whose methods ran is one entry.
    assert listed == {"decorated_idle", "helper", "idle", "Shape.perimeter",
                      "Shape.rotate", "Unused"}
