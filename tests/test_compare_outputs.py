"""tools/compare_outputs.py, the byte-for-byte CLI comparison of two source trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_compared_with_itself_shows_no_difference():
    # The reduced corpus: random, analyze of schema 3 and CSV with and without
    # bunching, --renormalize, an XXZ quench with --json and one exit-2 refusal.
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(TOOL), "--quick", src, src],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "6 calls, 8 files compared: 0 differences\n"


def test_differences_name_each_exit_code_stream_and_file():
    differences = load_tool().differences
    parent = [("analyze a.json", 0, b"{}", b""), ("file r.json", b"1"), ("file p.json", b"")]
    change = [("analyze a.json", 2, b"{}", b"espent: no"), ("file r.json", b"2")]
    assert differences(parent, change) == [
        "analyze a.json: exit code differs",
        "analyze a.json: stderr differs",
        "file p.json: only in the parent",
        "file r.json: content differs",
    ]
    assert differences(parent, parent) == []
