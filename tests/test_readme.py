"""The Python example in README.md runs as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False,
                              optionflags=doctest.REPORT_NDIFF)
    assert result.attempted > 0
    assert result.failed == 0
