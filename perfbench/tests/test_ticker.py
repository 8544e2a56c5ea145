"""The reference loop measures a positive rate while this process works
beside it on the same CPU, and is gone once closed."""

import os
import time

import pytest

from ticker import Ticker


def test_rate_is_measured_and_child_is_reaped():
    with Ticker() as ticker:
        pid = ticker.pid
        mark = ticker.mark()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        assert ticker.rate_since(mark) > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
