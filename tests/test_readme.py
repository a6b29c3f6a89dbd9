"""The README's library examples run and print what their comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_examples_print_their_comments(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    want = [line.split("#", 1)[1].strip() for block in blocks for line in block.splitlines() if line.startswith("print(")]
    assert len(want) == 2
    assert capsys.readouterr().out.splitlines() == want
