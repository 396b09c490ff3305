"""The README's library sketch runs against the package as it is."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README.md has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
