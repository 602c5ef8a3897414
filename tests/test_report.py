import pytest

from webrank.report import (
    CONFIRMATIONS_FOR_FALSE,
    FALSE,
    INCONCLUSIVE,
    TRUE,
    confirm,
)


def test_confirmations_for_false_is_four():
    assert CONFIRMATIONS_FOR_FALSE == 4


@pytest.mark.parametrize(
    "passes,verdict,failures,deciding,consumed",
    [
        ([True, True], TRUE, 0, "w0", 1),
        ([False, False, True, False, True], TRUE, 2, "w2", 3),
        ([False, False, False, True, False], TRUE, 3, "w3", 4),
        ([False] * 6, FALSE, 4, "w3", 4),
        ([], INCONCLUSIVE, 0, None, 0),
        ([False] * 3, INCONCLUSIVE, 3, None, 3),
    ],
)
def test_confirm_on_scripted_outcomes(passes, verdict, failures, deciding, consumed):
    pulled = []

    def outcomes():
        for index, passed in enumerate(passes):
            pulled.append(index)
            yield passed, f"w{index}"

    assert confirm(outcomes()) == (
        verdict,
        [f"w{i}" for i in range(failures)],
        deciding,
    )
    assert pulled == list(range(consumed))  # nothing past the deciding outcome
