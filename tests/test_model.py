import pytest

from uplinksim.engine import InvariantError, apply_grant
from uplinksim.model import (Cell, Scenario, ServiceClass,
                             SubscriberStation, canonical_scenario,
                             make_request, validate_scenario)


def test_five_service_classes_distinct():
    tags = {c.value for c in ServiceClass}
    assert tags == {"UGS", "ertPS", "rtPS", "nrtPS", "BE"}
    assert len(list(ServiceClass)) == 5


def test_deadline_offsets_positive_and_ordered():
    for c in ServiceClass:
        assert c.deadline_offset_ms > 0
    assert (ServiceClass.RTPS.deadline_offset_ms
            < ServiceClass.NRTPS.deadline_offset_ms
            < ServiceClass.BE.deadline_offset_ms)


@pytest.mark.parametrize("size,served,expected", [
    (1000, 0, 1000),
    (1000, 1000, 0),
    (800, 300, 500),
])
def test_remaining_bits(size, served, expected):
    # apply_grant accepts at most the bits still owed, and completes the
    # request with exactly that many.
    r = make_request(0, 0, ServiceClass.RTPS, 0.0, size)
    r.left_bits = expected
    assert r.served_bits == served
    with pytest.raises(InvariantError, match=f"{expected} bits remaining"):
        apply_grant(r, expected + 1)
    if expected:
        assert apply_grant(r, expected) is True
        assert r.left_bits == 0 and r.served_bits == size


def test_make_request_deadline_law():
    for cls in ServiceClass:
        r = make_request(1, 7, cls, 123.5, 800)
        assert r.deadline == 123.5 + cls.deadline_offset_ms
        assert r.served_bits == 0 < r.size_bits


def test_canonical_shape():
    sc = canonical_scenario()
    assert len(sc.cells) == 7
    assert len(sc.stations) == 14
    for cell in sc.cells:
        assert len(cell.station_ids) == 2
    assert sc.frame_duration == 5.0
    assert sc.total_frames == 12000
    assert sc.total_frames * sc.frame_duration == 60_000.0  # 60 s


def test_canonical_rtps_everywhere():
    sc = canonical_scenario()
    for st in sc.stations:
        classes = {spec.service_class for spec in sc.traffic_specs[st.id]}
        assert ServiceClass.RTPS in classes


def test_canonical_is_pure():
    a, b = canonical_scenario(), canonical_scenario()
    assert a is not b
    assert a == b


def test_canonical_validates_clean():
    assert validate_scenario(canonical_scenario()) == []


def _tiny_scenario(**overrides) -> Scenario:
    base = dict(
        name="tiny",
        cells=[Cell(0, 1000, [0])],
        stations=[SubscriberStation(id=0, cell_id=0, capacity_c=1000)],
        frame_duration=5.0,
        total_frames=10,
        traffic_specs={},
        seed=1,
    )
    base.update(overrides)
    return Scenario(**base)


def test_validate_alpha_range():
    bad = _tiny_scenario(ewma_alpha=1.5)
    msgs = validate_scenario(bad)
    assert any("ewma_alpha" in m for m in msgs)


def test_validate_duplicate_station_names_both():
    bad = _tiny_scenario(
        cells=[Cell(0, 1000, [0])],
        stations=[SubscriberStation(id=0, cell_id=0, capacity_c=1000),
                  SubscriberStation(id=0, cell_id=0, capacity_c=500)],
    )
    msgs = [m for m in validate_scenario(bad) if "duplicate station" in m]
    assert len(msgs) == 1
    assert "stations[1]" in msgs[0] and "stations[0]" in msgs[0]


def test_validate_reports_every_violation():
    bad = _tiny_scenario(ewma_alpha=0.0, total_frames=0, frame_duration=-1.0)
    msgs = validate_scenario(bad)
    assert len(msgs) >= 3


def test_validate_cross_references():
    bad = _tiny_scenario(
        cells=[Cell(0, 1000, [0, 5])],
        stations=[SubscriberStation(id=0, cell_id=3, capacity_c=1000)],
    )
    msgs = validate_scenario(bad)
    assert any("no such station 5" in m for m in msgs)
    assert any("cell_id" in m for m in msgs)


def test_unknown_policy_flagged():
    bad = _tiny_scenario(scheduler_name="fifo")
    assert any("scheduler_name" in m for m in validate_scenario(bad))
