"""Run the benchmark's own tests after every other test in the session.

They spawn the CLI in a series of fresh processes for about twenty
seconds; run first, that load slows the package's time-budgeted
acceptance tests that would follow them.
"""

from pathlib import Path

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # A stable partition: both groups keep their collected order.
    ours = [item for item in items if HERE in Path(item.path).parents]
    if ours:
        others = [item for item in items if HERE not in Path(item.path).parents]
        items[:] = others + ours
