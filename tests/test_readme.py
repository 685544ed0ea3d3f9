"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_python_blocks_run():
    # one namespace, in order: a later block may use an earlier block's imports
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
