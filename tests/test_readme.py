"""The README's library example runs as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    density = namespace["density"]
    assert density.shape == namespace["grid"].shape
    assert np.all(np.isfinite(density)) and np.all(density >= 0.0)
