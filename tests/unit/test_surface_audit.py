"""The surface audit's call recorder and counters (tools/surface.py).

Runs the recorder on a planted two-function package instead of the
pipeline: one function runs only in a multiprocessing pool worker, the
other never runs.
"""

import importlib.util
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("surface", REPO_ROOT / "tools" / "surface.py")
surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface)

PLANTED = textwrap.dedent(
    """\
    import multiprocessing


    def only_in_worker(value):
        return value + 1


    def never_called():
        return 0


    def main():
        with multiprocessing.Pool(1) as pool:
            assert pool.apply(only_in_worker, (1,)) == 2


    if __name__ == "__main__":
        main()
    """
)


def test_worker_calls_reach_and_planted_function_is_unreached(tmp_path):
    src = tmp_path / "src"
    (src / "planted").mkdir(parents=True)
    (src / "planted" / "__init__.py").write_text("")
    flow = src / "planted" / "flow.py"
    flow.write_text(PLANTED)

    recorder = surface.Recorder(src, tmp_path / "recorder")
    recorder.run([sys.executable, "-m", "planted.flow"], cwd=tmp_path)
    reached = recorder.reached()
    functions = surface.defined_functions(src, [flow])
    unreached = sorted(name for key, name in functions.items() if key not in reached)

    assert unreached == ["planted/flow.py:never_called"]
    assert ("planted/flow.py", 4, "only_in_worker") in reached


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_src_line_count_matches_wc(tmp_path):
    wc = subprocess.run(
        "git ls-files src | xargs cat | wc -l",
        shell=True, cwd=REPO_ROOT, check=True, capture_output=True, text=True,
    ).stdout
    files = surface.tracked_files(REPO_ROOT, "src")
    assert surface.count_lines(files) == int(wc)
