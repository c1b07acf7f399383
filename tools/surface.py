#!/usr/bin/env python3
"""Audit the program's surface and write ``surface.json``.

Run from anywhere, with numpy installed::

    python3 tools/surface.py [--out PATH]

The file it writes (``surface.json`` at the repository root by default)
holds, with no timings and no machine details, so that two runs on one
tree give the same bytes:

* ``src``: lines and Python modules of the files git tracks under
  ``src/`` (the lines are ``git ls-files src | xargs cat | wc -l``), and
  the number of functions defined in them;
* ``public_names``: the ``__all__`` of ``repro`` and ``repro.api``;
* ``settable``: every value a caller can set, namely the parameters of
  the functions ``repro.api`` exports, the fields of the config
  dataclasses (``*Config`` and ``*Params``) and the CLI's flags;
* ``reach``: the ``src/`` functions that no flow starts (``unreached``)
  and those that only an example starts (``examples_only``). The flows
  are the pipeline benchmark's five workloads (``run.py --smoke``), every
  tracked example and every CLI subcommand, including ``serve
  --http-port`` with each telemetry endpoint scraped once.

A call recorder decides reach. Each flow runs with a generated
``sitecustomize.py`` first on ``PYTHONPATH``, so every Python process
the flow starts records the functions under ``src/`` that begin to run:
child processes, forked or spawned pool workers and threads included.
A process writes a function's name the first time it starts, with one
unbuffered ``os.write``, so a pool worker that ``Pool.__exit__``
terminates, or that leaves through ``os._exit`` after multiprocessing's
finalizers, has already written what it ran. The recorder is
``sys.settrace`` and ``threading.settrace`` on every interpreter; a
generator or coroutine counts once a line of it runs, so interpreters
that do and do not enter the frame of one closed unstarted agree. The
standard library is all it needs.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (path relative to the source root, first line, function name); the
#: first line of a decorated function is its first decorator's, as in
#: ``code.co_firstlineno``.
FunctionKey = Tuple[str, int, str]

_BOOTSTRAP = '''\
"""Call recorder installed by tools/surface.py for one audited flow."""
import inspect
import os
import sys
import threading

_ROOT = {root!r}
_OUT = {out!r}
_pid = None
_fd = None


def _note(code):
    global _pid, _fd
    path = os.path.abspath(code.co_filename)
    if not path.startswith(_ROOT) or code.co_name.startswith("<"):
        return
    pid = os.getpid()
    if pid != _pid:
        _pid = pid
        _fd = os.open(os.path.join(_OUT, "%d.calls" % pid),
                      os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    line = "%s\\t%d\\t%s\\n" % (path[len(_ROOT):], code.co_firstlineno, code.co_name)
    os.write(_fd, line.encode("utf-8", "surrogateescape"))


# A generator or coroutine that is closed unstarted still enters its
# frame (before 3.12); it counts only once a line of it runs.
_SUSPENDABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
_seen = set()


def _first_line(frame, event, arg):
    if event != "line":
        return _first_line
    if frame.f_code not in _seen:
        _seen.add(frame.f_code)
        _note(frame.f_code)
    return None


def _trace(frame, event, arg):
    code = frame.f_code
    if code in _seen:
        return None
    if code.co_flags & _SUSPENDABLE:
        return _first_line
    _seen.add(code)
    _note(code)
    return None


sys.settrace(_trace)
threading.settrace(_trace)
'''


# ---------------------------------------------------------------- counts


def tracked_files(repo: Path, subdir: str) -> List[Path]:
    """The files git tracks under ``subdir`` of ``repo``, sorted."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--", subdir],
        cwd=repo, check=True, capture_output=True,
    ).stdout.decode("utf-8", "surrogateescape")
    return sorted(repo / name for name in listed.split("\0") if name)


def count_lines(paths: Iterable[Path]) -> int:
    """Newlines in ``paths``, as ``cat paths | wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in paths)


def defined_functions(src_root: Path, files: Iterable[Path]) -> Dict[FunctionKey, str]:
    """Every ``def`` in ``files``, keyed as the recorder reports it, to
    ``module path:qualified name``."""
    found: Dict[FunctionKey, str] = {}
    for path in files:
        if path.suffix != ".py":
            continue
        rel = path.relative_to(src_root).as_posix()
        tree = ast.parse(path.read_bytes(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[(rel, first, child.name)] = f"{rel}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def settable_values(src_root: Path, files: Iterable[Path]) -> dict:
    """The api parameters, config-dataclass fields and CLI flags."""
    from repro import api
    from repro.__main__ import _build_parser

    api_parameters = {
        name: list(inspect.signature(getattr(api, name)).parameters)
        for name in sorted(api.__all__)
        if inspect.isfunction(getattr(api, name))
    }
    config_fields: Dict[str, List[str]] = {}
    for path in files:
        if path.suffix != ".py":
            continue
        module = ".".join(path.relative_to(src_root).with_suffix("").parts)
        for node in ast.parse(path.read_bytes()).body:
            if isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Params")):
                cls = getattr(importlib.import_module(module), node.name)
                if dataclasses.is_dataclass(cls):
                    config_fields[f"{module}.{node.name}"] = [
                        field.name for field in dataclasses.fields(cls) if field.init
                    ]
    cli_flags: Dict[str, List[str]] = {}

    def walk(parser: argparse.ArgumentParser, command: str) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, name)
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                cli_flags.setdefault(command, []).append(max(action.option_strings, key=len))

    walk(_build_parser(), "(global)")
    count = (
        sum(map(len, api_parameters.values()))
        + sum(map(len, config_fields.values()))
        + sum(map(len, cli_flags.values()))
    )
    return {
        "count": count,
        "api_parameters": api_parameters,
        "config_fields": dict(sorted(config_fields.items())),
        "cli_flags": dict(sorted(cli_flags.items())),
    }


# -------------------------------------------------------------- recorder


class Recorder:
    """Runs flows with the call recorder on and collects what they reach."""

    def __init__(self, src_root: Path, scratch: Path) -> None:
        self.src_root = src_root.resolve()
        self.calls = scratch / "calls"
        boot = scratch / "boot"
        self.calls.mkdir(parents=True)
        boot.mkdir()
        (boot / "sitecustomize.py").write_text(_BOOTSTRAP.format(
            root=str(self.src_root) + os.sep, out=str(self.calls)))
        path = [str(boot), str(self.src_root), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    def run(self, argv: Sequence[str], cwd: Path, timeout: float = 900) -> None:
        """Run one flow to completion; a non-zero exit is an error."""
        done = subprocess.run(
            list(argv), cwd=cwd, env=self.env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        if done.returncode != 0:
            tail = done.stderr.decode("utf-8", "replace")[-2000:]
            raise RuntimeError(f"flow {list(argv)} exited {done.returncode}:\n{tail}")

    def reached(self) -> Set[FunctionKey]:
        """Functions started in any process of the flows run so far."""
        found: Set[FunctionKey] = set()
        for path in self.calls.glob("*.calls"):
            for line in path.read_text("utf-8", "surrogateescape").splitlines():
                rel, first, name = line.split("\t")
                found.add((Path(rel).as_posix(), int(first), name))
        return found


# ----------------------------------------------------------------- flows


def repro_cli(*arguments: str) -> List[str]:
    return [sys.executable, "-m", "repro", *arguments]


def cli_flows(tmp: Path) -> List[List[str]]:
    """One or more small runs of every CLI subcommand but the live serve."""
    trace, ledger = str(tmp / "trace.jsonl"), str(tmp / "serve.jsonl")
    small = ["--trials", "4", "--scale", "0.3"]
    return [
        repro_cli("ecc"),
        repro_cli("ecc", "--ecc", "SEC-DED"),
        repro_cli(
            "--log-level", "info", "characterize", "--app", "websearch",
            "--scale", "0.4", "--trials", "6", "--queries", "20", "--seed", "11",
            "--workers", "2", "--metrics", "--region-codec", "heap=SEC-DED",
            "--trace-out", trace, "--metrics-out", str(tmp / "metrics.json"),
            "--prom-out", str(tmp / "metrics.prom"),
        ),
        repro_cli(
            "characterize", "--app", "graphlab", "--scale", "0.3", "--trials", "3",
            "--queries", "10", "--backend", "scalar", "--errors", "soft", "--json",
        ),
        repro_cli("recoverability", "--app", "memcached", "--queries", "30", "--scale", "0.3"),
        repro_cli("design", "--app", "memcached", *small, "--target", "0.5", "--workers", "2"),
        repro_cli(
            "explore", "--app", "memcached", *small, "--target", "0.5", "--top-k", "3",
            "--max-incorrect", "1000", "--simulate-months", "60", "--json",
            "--trace-out", str(tmp / "explore.jsonl"), "--metrics-out",
            str(tmp / "explore.json"), "--prom-out", str(tmp / "explore.prom"),
        ),
        repro_cli(
            "fleet", "--app", "memcached", *small, "--servers", "100", "--months", "24",
            "--designs", "typical", "less-tested", "recover",
            "--correlation", "rate=0.5,cohort=0.2,downtime=30", "--aging", "bathtub",
            "--target", "0.99", "--json", "--trace-out", str(tmp / "fleet.jsonl"),
            "--metrics-out", str(tmp / "fleet.json"), "--prom-out", str(tmp / "fleet.prom"),
        ),
        repro_cli("fleet", "--app", "memcached", *small, "--servers", "20", "--months", "6"),
        # Long enough that a resident fault websearch's queries read
        # outlives a wrap: the epoch after it is served live and recorded,
        # and later wraps are owed to the record.
        repro_cli(
            "serve", "--duration", "1400", "--error-rate", "1.5", "--scale", "0.3",
            "--ledger-out", ledger, "--trace-out", str(tmp / "serve_trace.jsonl"),
            "--metrics-out", str(tmp / "serve.json"), "--prom-out", str(tmp / "serve.prom"),
            "--slo-target", "0.99", "--burn-windows", "fast:2:8:6",
        ),
        repro_cli(
            "serve", "--duration", "10", "--error-rate", "2.0", "--scale", "0.3",
            "--policy", "recover-from-disk", "--json",
        ),
        repro_cli("report", trace),
        repro_cli("report", ledger),
        repro_cli("report", ledger, "--json"),
        repro_cli("top", ledger, "--once", "--no-clear"),
    ]


def live_serve_flow(recorder: Recorder, tmp: Path) -> None:
    """``serve --http-port 0``: scrape every endpoint once, run ``top``
    against it, then end the linger with ``POST /quitz``."""
    log = tmp / "live.stderr"
    with log.open("wb") as stderr:
        server = subprocess.Popen(
            repro_cli(
                "serve", "--duration", "20", "--error-rate", "1.0", "--scale", "0.3",
                "--http-port", "0", "--http-linger", "300",
            ),
            cwd=tmp, env=recorder.env, stdout=subprocess.DEVNULL, stderr=stderr,
        )
    try:
        url = None
        deadline = time.monotonic() + 300
        while url is None:
            if server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"serve --http-port never announced its URL:\n{log.read_text()}")
            for line in log.read_text().splitlines():
                if line.startswith("telemetry: "):
                    url = line.split(" ", 1)[1].rstrip("/")
            time.sleep(0.1)
        # /ledger/tail streams until the session completes, so every
        # endpoint after it is scraped with the session's final state.
        for path in ("/healthz", "/readyz", "/ledger/tail", "/metrics", "/status", "/slo"):
            try:
                urllib.request.urlopen(url + path, timeout=300).read()
            except urllib.error.HTTPError:
                pass
        recorder.run(repro_cli("top", url, "--once", "--no-clear"), cwd=tmp)
        urllib.request.urlopen(urllib.request.Request(url + "/quitz", method="POST"), timeout=30)
        if server.wait(timeout=300) != 0:
            raise RuntimeError(f"serve --http-port exited {server.returncode}:\n{log.read_text()}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def record_flows(src_root: Path, scratch: Path) -> Dict[str, Set[FunctionKey]]:
    """What each flow group reaches: pipeline, examples and cli."""
    reached: Dict[str, Set[FunctionKey]] = {}
    for group in ("pipeline", "examples", "cli"):
        work = scratch / group
        recorder = Recorder(src_root, work / "recorder")
        cwd = work / "cwd"
        cwd.mkdir()
        print(f"surface: recording {group} flows", file=sys.stderr)
        if group == "pipeline":
            recorder.run([
                sys.executable, str(REPO_ROOT / "benchmarks" / "pipeline" / "run.py"),
                "--smoke", "--out", str(work / "pipeline_out"),
            ], cwd=cwd)
        elif group == "examples":
            for example in tracked_files(REPO_ROOT, "examples"):
                if example.suffix == ".py":
                    recorder.run([sys.executable, str(example)], cwd=cwd)
        else:
            for argv in cli_flows(cwd):
                recorder.run(argv, cwd=cwd)
            live_serve_flow(recorder, cwd)
        reached[group] = recorder.reached()
    return reached


# ------------------------------------------------------------------ main


def build_surface(repo: Path, reached: Dict[str, Set[FunctionKey]]) -> dict:
    """The audit as one JSON-ready dict."""
    src_root = repo / "src"
    files = tracked_files(repo, "src")
    functions = defined_functions(src_root, files)
    surface = {
        "src": {
            "lines": count_lines(files),
            "modules": sum(1 for path in files if path.suffix == ".py"),
            "functions": len(functions),
        },
        "public_names": {},
        "settable": settable_values(src_root, files),
    }
    for name in ("repro", "repro.api"):
        surface["public_names"][name] = sorted(importlib.import_module(name).__all__)
    product = reached["pipeline"] | reached["cli"]
    everything = product | reached["examples"]
    surface["reach"] = {
        "flows": sorted(reached),
        "reached": sum(1 for key in functions if key in everything),
        "unreached": sorted(name for key, name in functions.items() if key not in everything),
        "examples_only": sorted(
            name for key, name in functions.items() if key in everything and key not in product
        ),
    }
    return surface


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "surface.json",
                        help="where to write the audit (default: surface.json at the root)")
    arguments = parser.parse_args(argv)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="surface-") as scratch:
        reached = record_flows(REPO_ROOT / "src", Path(scratch))
    surface = build_surface(REPO_ROOT, reached)
    arguments.out.write_text(json.dumps(surface, indent=1, sort_keys=True) + "\n")
    reach = surface["reach"]
    print(
        f"surface: {surface['src']['lines']} src lines, {surface['src']['modules']} modules, "
        f"{reach['reached']} of {surface['src']['functions']} functions reached, "
        f"{surface['settable']['count']} settable values -> {arguments.out}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
