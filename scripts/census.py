"""Reach census: the ``src/`` definitions that no documented entry point runs.

Runs each command of ``ENTRY_POINTS`` (the documented traffic: the
baseline gate, the figure CLI, the README's ``repro.experiments`` lines,
CI's steps, the examples, the micro-op benchmarks and an e2e workload)
in a subprocess under ``sys.setprofile`` and ``threading.setprofile``,
and records every code object it enters. Workers forked through
``multiprocessing`` record too: the after-fork hook registers their
dump with ``multiprocessing.util``, since a forked process exits
through ``os._exit`` and runs no ``atexit`` handler.

Each recorded code object maps to its ``ast`` definition by file, first
line and name, so a name used elsewhere hides nothing. A decorated
definition's code starts at its first decorator. The census lists each
module-level function and each method of a module-level class that
never ran. An undecorated class none of whose methods ran (it defines
at least one that is not a dunder) is listed once, in place of its
methods; a dataclass's generated methods have no ``src/`` code, so its
own methods are listed one by one. Dunders are not listed: Python calls
them. A nested ``def`` is part of its enclosing definition.

``scripts/census.txt`` holds the accepted list, one
``path qualname  # reason`` line per definition; the reason says why it
stays though nothing runs it. Run from the repository root::

    python scripts/census.py

It prints one ``path:line qualname (N lines)`` row per unreached
definition and a total, then each difference from ``census.txt``, and
exits 1 if there is one (a definition that joined or left the list), if
a line gives no reason, or if an entry point fails.
"""

from __future__ import annotations

import ast
import atexit
import concurrent.futures
import multiprocessing.util
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile
import threading
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
ACCEPTED = ROOT / "scripts" / "census.txt"

#: ``(path, first line, name)``: where a definition's code object starts.
Key = Tuple[str, int, str]

_CLI = ("-m", "repro.experiments")

#: CI's "Set-up at scale" step, less its printing.
_SET_UP_AT_SCALE = """
from repro import PushTapEngine
from tests.test_scale_ladder import term_means
engine = PushTapEngine.build(scale=1e-2, seed=7)
engine.memory_bytes()
term_means(engine)
"""

#: The documented traffic, each entry a sequence of commands run in
#: order in one scratch directory (``report-metrics`` reads the dump the
#: command before it wrote). It is the baseline gate, the figure CLI,
#: the README's ``repro.experiments`` lines, CI's steps, the examples,
#: the micro-op benchmarks and every e2e workload at ``--quick --trace
#: 0/1``, less each command whose reach the others cover: ``all`` on
#: hbm3 and lpddr5x-pim, the README's remaining lines (the full
#: roofline, ``serve --ivm``, the crash and cluster sweeps, ``cluster
#: --jobs 4``, ``fig9b headline``, ``pytest benchmarks/
#: --benchmark-only``), CI's profile smoke and pinned-row CLI runs, three
#: examples and nine e2e runs. Add a command back if dropping it would
#: shrink the reached set.
ENTRY_POINTS: Tuple[Tuple[Tuple[str, ...], ...], ...] = (
    (("scripts/check_baselines.py",),),
    ((*_CLI, "all", "--substrate", "ddr5"),),
    # README.md
    ((*_CLI, "fig9a", "--metrics-out", "fig9a.json"),
     (*_CLI, "report-metrics", "fig9a.json"),
     (*_CLI, "report-metrics", "--csv", "fig9a.json")),
    ((*_CLI, "profile", "--workload", "mixed", "--model", "pushtap",
      "--intervals", "4", "--txns-per-query", "25", "--out-dir", "profile-out"),),
    ((*_CLI, "roofline", "--substrates", "ddr5", "hbm3", "--sizes", "1024", "4096",
      "--micro-sizes", "8", "1024"),),
    ((*_CLI, "fault-sweep", "--seed", "1", "2", "3",
      "--rates", "drop_launch=0.05,duplicate_launch=0.05,forced_abort=0.1",
      "--metrics-out", "faults.json", "--out", "fault-sweep.json"),),
    ((*_CLI, "serve", "--tenants", "4", "--policy", "batched", "--seed", "7",
      "--out", "serve.json"),),
    ((*_CLI, "serve", "--ablation", "--out", "ablation.json"),),
    ((*_CLI, "cluster", "--check", "--out", "scaling.json"),),
    # CI
    (("-c", _SET_UP_AT_SCALE),),
    (("-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks/test_micro_ops.py",
      "--benchmark-disable"),),
    *(((f"examples/{example}",),) for example in (
        "architecture_comparison.py", "custom_schema.py", "format_explorer.py",
        "quickstart.py", "transactions_tour.py",
    )),
    (("benchmarks/e2e/run.py", "--workload", "serve_tenants", "--quick", "--trace", "0"),),
)


# ----------------------------------------------------------------------
# The recorder: runs in each entry point's process
# ----------------------------------------------------------------------
class Recorder:
    """Collects every code object entered in this process and, after a
    fork, in the child; :meth:`dump` writes the ones under ``root/src``."""

    def __init__(self, out_dir: str, root: pathlib.Path = ROOT) -> None:
        self.out_dir = out_dir
        self.root = str(root)
        self.codes: Set[object] = set()
        self._add = self.codes.add

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self._add(frame.f_code)

    def start(self) -> None:
        sys.setprofile(self._profile)
        threading.setprofile(self._profile)
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def _after_fork(self) -> None:
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def dump(self) -> None:
        prefix = os.path.join(self.root, "src", "")
        lines = sorted({
            f"{code.co_filename[len(self.root) + 1:]} {code.co_firstlineno} {code.co_name}\n"
            for code in list(self.codes) if code.co_filename.startswith(prefix)
        })
        path = pathlib.Path(self.out_dir) / f"reach-{os.getpid()}.txt"
        path.write_text("".join(lines), encoding="utf-8")


def record(out_dir: str, argv: Sequence[str]) -> None:
    """Run one command (``script args``, ``-m module args`` or ``-c
    code``) in this process as ``python`` would, recording what it
    enters; the dump is written at exit."""
    recorder = Recorder(out_dir)
    atexit.register(recorder.dump)
    recorder.start()
    # This process runs ``python -c``, so sys.path[0] is already the
    # working directory, as it is for ``-c`` and ``-m``.
    if argv[0] == "-c":
        sys.argv = ["-c", *argv[2:]]
        exec(compile(argv[1], "<string>", "exec"), {"__name__": "__main__"})
    elif argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
        runpy.run_path(argv[0], run_name="__main__")


def read_reach(out_dir: pathlib.Path) -> Set[Key]:
    """The union of every process's dump under ``out_dir``."""
    reached: Set[Key] = set()
    for path in out_dir.glob("reach-*.txt"):
        for line in path.read_text(encoding="utf-8").splitlines():
            file, first_line, name = line.split()
            reached.add((file, int(first_line), name))
    return reached


# ----------------------------------------------------------------------
# The census: run the entry points, map their reach onto definitions
# ----------------------------------------------------------------------
def _absolute(command: Sequence[str]) -> List[str]:
    """Repository paths in ``command`` made absolute, since each entry
    point runs in its own scratch directory (where its outputs land)."""
    return [str(ROOT / arg) if arg.startswith(("scripts/", "examples/", "benchmarks/"))
            else arg for arg in command]


def run_entry(entry: Sequence[Sequence[str]], out_dir: pathlib.Path) -> None:
    """Run one entry point's commands under the recorder; raise
    ``RuntimeError`` naming the command if one fails."""
    env = dict(os.environ)
    # The root too: CI's set-up step imports a helper from ``tests``.
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (SOURCES, ROOT / "scripts", ROOT))
    with tempfile.TemporaryDirectory(prefix="census-") as cwd:
        for command in entry:
            done = subprocess.run(
                [sys.executable, "-c", "import sys, census; census.record(sys.argv[1], sys.argv[2:])",
                 str(out_dir), *_absolute(command)],
                cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")


def reach(entries: Iterable[Sequence[Sequence[str]]], out_dir: pathlib.Path) -> Set[Key]:
    """Run ``entries`` (as many at once as there are cores) and return
    the union of what they reached."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for future in [pool.submit(run_entry, entry, out_dir) for entry in entries]:
            future.result()
    return read_reach(out_dir)


def _python_files(root: pathlib.Path) -> Iterator[pathlib.Path]:
    yield from sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _span(node: ast.AST) -> Tuple[int, int]:
    """First line (a decorator's, if any) and length of a definition."""
    first = min([d.lineno for d in node.decorator_list] + [node.lineno])
    return first, node.end_lineno - first + 1


def unreached(path: pathlib.Path, reached: Set[Key], root: pathlib.Path = ROOT
              ) -> Iterator[Tuple[int, int, str]]:
    """``(line, length, qualname)`` of each definition in ``path`` that
    the census lists, given the ``reached`` keys."""
    relative = str(path.relative_to(root))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def ran(node: ast.AST) -> bool:
        return (relative, _span(node)[0], node.name) in reached

    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, functions):
            if not _is_dunder(node.name) and not ran(node):
                yield (*_span(node), node.name)
        elif isinstance(node, ast.ClassDef):
            methods = [item for item in node.body if isinstance(item, functions)]
            # A decorated class (a dataclass) gets methods the recorder
            # cannot see, so it may be built though none of its own ran.
            if (not node.decorator_list and not any(map(ran, methods))
                    and not all(_is_dunder(m.name) for m in methods)):
                yield (*_span(node), node.name)
                continue
            for item in methods:
                if not _is_dunder(item.name) and not ran(item):
                    yield (*_span(item), f"{node.name}.{item.name}")


def census(reached: Set[Key], sources: pathlib.Path = SOURCES, root: pathlib.Path = ROOT
           ) -> List[Tuple[str, int, str, int]]:
    """``(path, line, qualname, length)`` of each listed definition, in
    file order."""
    return [
        (str(path.relative_to(root)), line, qualname, length)
        for path in _python_files(sources)
        for line, length, qualname in unreached(path, reached, root)
    ]


def accepted() -> Dict[str, str]:
    """``census.txt`` as ``{"path qualname": reason}``."""
    entries = {}
    for line in ACCEPTED.read_text(encoding="utf-8").splitlines():
        entry, _, reason = line.partition("#")
        entries[" ".join(entry.split())] = reason.strip()
    return entries


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-reach-") as out_dir:
        try:
            reached = reach(ENTRY_POINTS, pathlib.Path(out_dir))
        except RuntimeError as error:
            print(f"entry point failed: {error}", file=sys.stderr)
            return 1
    listed = census(reached)
    for path, line, qualname, length in listed:
        print(f"{path}:{line} {qualname} ({length} lines)")
    total = sum(length for *_, length in listed)
    print(f"{len(listed)} definitions ({total} lines) that no entry point runs")
    found = {f"{path} {qualname}" for path, _, qualname, _ in listed}
    reasons = accepted()
    for entry in sorted(found - set(reasons)):
        print(f"newly unreached: {entry} (give it a caller, move it into the tests, "
              f"or delete it; if it must stay, add it to {ACCEPTED.name} with its reason)")
    for entry in sorted(set(reasons) - found):
        print(f"reached now: {entry} (drop it from {ACCEPTED.name})")
    for entry in sorted(e for e, reason in reasons.items() if not reason):
        print(f"no reason given: {entry}")
    return 1 if found != set(reasons) or not all(reasons.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
