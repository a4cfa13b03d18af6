"""README's Python API example runs as written, against the package's imports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    (example,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    exec(compile(example, str(README), "exec"), {})
    out = capsys.readouterr().out
    # the training summary, then the report's key-value lines
    assert out.splitlines()[1].startswith("p_at_k ") and "\nusers_skipped " in out
