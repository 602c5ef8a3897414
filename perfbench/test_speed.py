"""The speed probe scales work by the calibrations timed around it.

    python3 -m pytest perfbench/test_speed.py
"""

from __future__ import annotations

import pytest

import speed


def _probe(starts, seconds):
    probe = speed.SpeedProbe()
    probe.starts = list(starts)
    probe.seconds = list(seconds)
    return probe


def test_reference_speed_leaves_work_time_and_drops_calibrations():
    ref = speed.REFERENCE_S
    probe = _probe([0.1, 0.2, 0.3], [ref] * 3)
    assert probe.calibrated_s(0.0, 0.4) == pytest.approx(3 * ref)
    assert probe.scaled(0.0, 0.4) == pytest.approx(0.4 - 3 * ref)


def test_slower_calibrations_shrink_the_work_they_surround():
    ref = speed.REFERENCE_S
    # calibrations twice as slow from 1 s on: the work after that counts half
    starts = [i * 0.02 for i in range(100)]
    seconds = [ref if t < 1.0 else 2 * ref for t in starts]
    probe = _probe(starts, seconds)
    early = probe.scaled(0.2, 0.6)
    late = probe.scaled(1.2, 1.6)
    assert late == pytest.approx((0.4 - 20 * 2 * ref) / 2)
    assert early == pytest.approx(0.4 - 20 * ref)


def test_work_between_distant_calibrations_takes_the_nearest():
    ref = speed.REFERENCE_S
    probe = _probe([0.0, 5.0], [ref, 4 * ref])
    assert probe.scaled(1.0, 1.5) == pytest.approx(0.5)
    assert probe.scaled(4.0, 4.5) == pytest.approx(0.5 / 4)


def test_timer_calibrates_while_started():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        for _ in range(200):
            speed.calibration()
    finally:
        probe.stop()
    assert probe.seconds, "the timer never fired"
    assert probe.starts == sorted(probe.starts)
