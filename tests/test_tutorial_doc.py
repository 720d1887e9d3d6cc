"""Execute every Python block of docs/TUTORIAL.md so the walkthrough cannot rot.

Blocks run in order in one shared namespace (the tutorial builds on its own
earlier definitions), in the style of ``test_formats_doc.py``.  Assertions
inside the blocks are the tutorial's own claims; this file only adds a few
cross-checks on the final state.
"""

import pathlib
import re

import pytest

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "TUTORIAL.md"

_FENCED_PYTHON = re.compile(r"```python\n(.*?)```", re.DOTALL)


@pytest.fixture(scope="module")
def python_blocks():
    blocks = _FENCED_PYTHON.findall(DOC.read_text())
    assert len(blocks) >= 8, "docs/TUTORIAL.md lost its worked example blocks"
    return blocks


def test_tutorial_blocks_execute_in_order(python_blocks):
    namespace: dict = {}
    for position, block in enumerate(python_blocks):
        try:
            exec(compile(block, f"TUTORIAL.md:block{position}", "exec"), namespace)
        except Exception as error:  # pragma: no cover - failure reporting only
            pytest.fail(
                f"tutorial block {position} failed ({type(error).__name__}: "
                f"{error}):\n{block}"
            )
    # Cross-checks on the shared end state the tutorial built up.
    assert namespace["by_sku"][("p2",)] == 1
    assert [r.result for r in namespace["warm"]] == [
        r.result for r in namespace["cold"]
    ]
    # Adaptive stopping beats the paper-bound budget; the witness-sized
    # budget of the conflict-free p2 beats both.
    assert namespace["adaptive"].samples_used < namespace["paper"].samples_used
    assert namespace["fixed"].samples_used < namespace["adaptive"].samples_used


def test_tutorial_mentions_every_layer():
    text = DOC.read_text()
    for needle in (
        "consistent_answers",
        "operational_consistent_answers",
        "EstimationSession",
        "estimate_adaptive",
        "batch_estimate",
        "cache_dir",
        "mode=\"adaptive\"",
    ):
        assert needle in text, f"tutorial no longer covers {needle}"
