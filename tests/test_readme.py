"""The README's quick start runs as printed and meets the agreement the
README states for it."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_routes_agree(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert [float(v) for v in printed] == [
        namespace[name] for name in ("lnf_quadrature", "lnf_flow", "lnf_expansion")
    ]
    assert abs(namespace["lnf_quadrature"] - namespace["lnf_flow"]) <= 1e-10
    assert math.isfinite(namespace["lnf_expansion"])
