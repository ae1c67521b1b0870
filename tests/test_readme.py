"""The README's Library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    text = README.read_text()
    library = text[text.index("\n## Library\n") :]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
