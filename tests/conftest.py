import numpy as np


def _build() -> str:
    # Several tests require bit-equal results: a line's roots with and
    # without zero padding, and CLI output equal to golden files byte for
    # byte.  They hold only on the numpy build and LAPACK they ran on.
    lapack = np.show_config(mode="dicts").get("Build Dependencies", {}).get("lapack", {})
    return f"numpy {np.__version__}, LAPACK {lapack.get('name')} {lapack.get('version')}"


def pytest_report_header(config):
    return _build()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the report header, so a quiet log names the build at its end.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_build())
