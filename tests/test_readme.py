"""README's library examples, run as written, so the documented API cannot
drift from the code."""

import re
from pathlib import Path

import numpy as np

from sgdinf import DesignSpec, ModelSpec, StepSchedule, run
from sgdinf.models import sample_dataset

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def python_blocks(section: str) -> list:
    """The ```python blocks between the heading `section` and the next
    heading of the same or a higher level."""
    level = len(section.split(" ")[0])
    start = README.index(f"\n{section}\n") + 1
    end = re.compile(rf"^#{{1,{level}}} ", re.M).search(README, start + 1)
    body = README[start:end.start() if end else len(README)]
    return re.findall(r"```python\n(.*?)```", body, re.S)


def test_quick_tour_runs_verbatim():
    scope = {}
    exec(python_blocks("## Library quick tour")[0], scope)
    report = scope["report"]
    assert report.lower.shape == report.upper.shape == (5,)
    assert np.all(report.lower < report.upper)
    assert np.all(np.isfinite(scope["bm"].matrix))


def test_sink_example_runs_through_run():
    block, = [b for b in python_blocks("### Writing a sink")
              if "class LastIterate" in b]
    scope = {}
    exec(block, scope)
    model = ModelSpec("logistic", DesignSpec("identity", 3), (0.0, 0.5, 1.0))
    state, (last,) = run(model, 5000, StepSchedule(eta=1.0, alpha=0.5),
                         sinks=[scope["LastIterate"]()],
                         data=sample_dataset(model, 5000, np.random.default_rng(0)))
    assert np.array_equal(last, state.x)
