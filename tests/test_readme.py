"""The README's Library example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_verbatim(capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[1].startswith("3 ")  # the study scenario picks n = 3 at 0.05
