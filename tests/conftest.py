import pytest

import _acceptance_log


def pytest_addoption(parser):
    parser.addoption(
        "--run-stretch",
        action="store_true",
        default=False,
        help="run the long stretch verifications (multi-minute budgets)",
    )


# Hypothesis's failure report imports libcst, which touches the deprecated
# mypy_extensions.TypedDict; under -W error that warning would turn the
# report into an INTERNALERROR and end the run. A mark outranks -W, a
# filterwarnings entry in the ini file does not.
_LIBCST_IMPORT = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def pytest_collection_modifyitems(config, items):
    skip = pytest.mark.skip(reason="stretch run; enable with --run-stretch")
    for item in items:
        item.add_marker(_LIBCST_IMPORT)
        if "stretch" in item.keywords and not config.getoption("--run-stretch"):
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # one PASS/FAIL line per acceptance criterion, in criterion order
    if not _acceptance_log.RECORDS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, ok, detail in sorted(_acceptance_log.RECORDS):
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
