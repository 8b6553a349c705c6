import pytest

from lozilab.bifurcation import ConditionError, choose_m, find_reversal


@pytest.fixture(scope="session")
def reversal():
    """Downward scan from b = 0.05 until the log-scale condition holds,
    then the certified reversal; shared by the acceptance and kneading tests."""
    b_bar = 0.05
    for _ in range(16):
        try:
            choose_m(b_bar)
            break
        except ConditionError:
            b_bar /= 2.0
    else:
        pytest.fail("downward scan for b_bar exhausted")
    return b_bar, find_reversal(b_bar)
