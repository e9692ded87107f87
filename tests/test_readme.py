import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(index):
    # each example runs on its own, in a fresh namespace
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
