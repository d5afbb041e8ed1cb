"""The README's Python example runs against the library as it is."""

import re
from pathlib import Path


def test_python_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert "[" in capsys.readouterr().out  # the per-speaker scores it prints
