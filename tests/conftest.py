import warnings

import pytest


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport():
    # hypothesis writes the patch of a failing example through libcst, whose
    # first import warns that mypy_extensions.TypedDict is deprecated; under
    # -W error that warning would end the run before the example is shown
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                DeprecationWarning, "libcst")
        return (yield)
