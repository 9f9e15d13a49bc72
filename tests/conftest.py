import ctypes
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture(scope="session")
def blas_core() -> str:
    """The name of the kernel numpy's bundled OpenBLAS picked at load, as
    the golden tests print it on failure: their digests hold for one
    kernel.  "unknown" when no such library or symbol is found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance scorecard even when output capture is on."""
    try:
        from test_acceptance import SCORECARD
    except ImportError:
        return
    if not SCORECARD:
        return
    terminalreporter.section("acceptance scorecard")
    for num, ok, detail in sorted(SCORECARD):
        terminalreporter.write_line(
            f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}"
        )
