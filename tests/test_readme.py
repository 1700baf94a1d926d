"""The code examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block, "README's Library section has no python block"
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})
