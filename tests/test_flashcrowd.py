"""Tests for the flash-crowd spike generator."""

import pytest

from repro.traffic.flashcrowd import (
    FlashCrowdConfig,
    FlashCrowdSchedule,
    SpikeEvent,
    generate_flash_crowd,
)

CLASSES = [f"c{i}" for i in range(10)]


def test_same_seed_same_schedule():
    a = generate_flash_crowd(CLASSES, FlashCrowdConfig(), seed=7)
    b = generate_flash_crowd(CLASSES, FlashCrowdConfig(), seed=7)
    assert a == b
    assert a.signature() == b.signature()


def test_different_seed_different_schedule():
    a = generate_flash_crowd(CLASSES, FlashCrowdConfig(), seed=1)
    b = generate_flash_crowd(CLASSES, FlashCrowdConfig(), seed=2)
    assert a.signature() != b.signature()


def test_schedule_independent_of_input_order():
    a = generate_flash_crowd(CLASSES, FlashCrowdConfig(), seed=3)
    b = generate_flash_crowd(list(reversed(CLASSES)), FlashCrowdConfig(), seed=3)
    assert a == b


def test_trapezoid_shape():
    ev = SpikeEvent(
        start=10.0, ramp=2.0, hold=4.0, decay=2.0, amplitude=5.0, targets=("x",)
    )
    assert ev.multiplier("x", 9.9) == 1.0          # before
    assert ev.multiplier("x", 11.0) == pytest.approx(3.0)   # mid-ramp
    assert ev.multiplier("x", 12.0) == pytest.approx(5.0)   # plateau start
    assert ev.multiplier("x", 15.0) == pytest.approx(5.0)   # plateau
    assert ev.multiplier("x", 17.0) == pytest.approx(3.0)   # mid-decay
    assert ev.multiplier("x", 18.1) == 1.0          # after
    assert ev.multiplier("other", 12.0) == 1.0      # untargeted class
    assert ev.end == pytest.approx(18.0)


def test_overlapping_spikes_stack_multiplicatively():
    sched = FlashCrowdSchedule(
        seed=0,
        events=(
            SpikeEvent(0.0, 0.0, 10.0, 0.0, 2.0, ("x",)),
            SpikeEvent(0.0, 0.0, 10.0, 0.0, 3.0, ("x",)),
        ),
    )
    assert sched.multiplier("x", 5.0) == pytest.approx(6.0)
    assert sched.multiplier("y", 5.0) == 1.0


def test_targets_respect_fraction_and_pool():
    config = FlashCrowdConfig(spikes=3, target_fraction=0.3)
    sched = generate_flash_crowd(CLASSES, config, seed=5)
    assert len(sched.events) == 3
    for ev in sched.events:
        assert len(ev.targets) == 3  # ceil(0.3 * 10)
        assert set(ev.targets) <= set(CLASSES)
        assert ev.amplitude >= 1.0
        assert ev.targets == tuple(sorted(ev.targets))


def test_empty_schedule():
    sched = FlashCrowdSchedule(seed=9, events=())
    assert sched.multiplier("anything", 100.0) == 1.0
    assert sched.windows() == ()
    assert generate_flash_crowd([], FlashCrowdConfig(), seed=9) == sched
