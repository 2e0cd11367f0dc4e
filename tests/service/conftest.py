"""The service suite treats a leaked socket as a test failure.

An HTTP client or server that forgets to close a socket only shows up as
a ``ResourceWarning`` when the socket is garbage-collected, which pytest
reports as an unraisable-exception warning.  Both are errors here.
"""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )
