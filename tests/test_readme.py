"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_prints_the_commented_estimates():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    comment = next(line for line in block.splitlines() if "print(est.k, est.est_lk)" in line)
    want = [s.strip() for s in comment.split("#", 1)[1].split(",")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    # one line for the single search, then one per k
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 + len(want)
    assert [line.split()[0] for line in lines[1:]] == [str(k) for k in range(1, len(want) + 1)]
    assert [f"{float(line.split()[1]):.4f}" for line in lines[1:]] == want
