"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    """The python block under "Library quickstart", run as it stands, prints the average RMSE and a trace row."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md (Library quickstart)", "exec"), {})
    line, = capsys.readouterr().out.splitlines()
    average, trace = line.split(" ", 1)
    assert float(average) > 0 and trace.startswith("{'root': ")
