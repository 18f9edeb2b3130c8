"""The README's Python examples run, and give the values their comments state."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:  # the second block reuses the first one's root
        exec(compile(block, str(README), "exec"), ns)
    report, code = ns["report"], ns["code"]
    assert (report.overall, report.optimal_reps) == (6, (1, 5))
    assert ns["bose_distance"](code) == 6
    assert ns["cert"] is not None
    res = ns["min_distance"](code)
    assert res.exhaustive and res.distance == 6
    rec = ns["rec"]
    assert (rec.k, rec.bch_bound) == (5, 6)
    assert rec.verify().verified
    [ext] = ns["extensions"]
    assert (ext.k, ext.bch_bound, ext.dimension) == (0, 6, 11)
    assert ext.code.defining_set <= rec.code.defining_set
    assert len(ns["records"]) == 6
