import numpy as np


def _build() -> str:
    # Several tests require bit-equal results between a row of a batch and
    # the same row alone; they hold only on the numpy build and LAPACK they
    # ran on.
    lapack = np.show_config(mode="dicts").get("Build Dependencies", {}).get("lapack", {})
    return f"numpy {np.__version__}, LAPACK {lapack.get('name')} {lapack.get('version')}"


def pytest_report_header(config):
    return _build()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the report header, so a quiet log names the build at its end.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_build())
