import random

import pytest
from hypothesis import given, strategies as st

from conftest import PolicyHarness, edf_select, hedf_checks_per_frame
from uplinksim import schedulers
from uplinksim.engine import EventLog, run
from uplinksim.metrics import count_context_switches
from uplinksim.model import Scenario, ServiceClass, canonical_scenario
from uplinksim.schedulers import (POLICY_NAMES, Outcome, claim_value,
                                  hedf_decide, ssbpf_priority,
                                  update_historical_throughput)

RTPS = ServiceClass.RTPS
BE = ServiceClass.BE


# --- priority formula -------------------------------------------------------

@pytest.mark.parametrize("c,th,expected", [
    (10.0, 4.0, 2.0),
    (5.0, 0.0, 5.0),
    (0.0, 100.0, 0.0),
])
def test_ssbpf_priority_values(c, th, expected):
    assert ssbpf_priority(c, th) == expected


@given(c=st.integers(1, 10**6), th1=st.integers(0, 10**6),
       th2=st.integers(0, 10**6))
def test_ssbpf_priority_decreasing_in_throughput(c, th1, th2):
    # Integer inputs in this range keep the strict ordering visible at
    # float precision (the relative gap is far above one ulp).
    if th1 < th2:
        assert ssbpf_priority(c, th1) > ssbpf_priority(c, th2)
    elif th1 == th2:
        assert ssbpf_priority(c, th1) == ssbpf_priority(c, th2)


@given(ths=st.lists(st.integers(0, 10**6), min_size=2, max_size=8),
       cs=st.lists(st.integers(1, 10**6), min_size=2, max_size=8),
       scale_exp=st.integers(-6, 12))
def test_ssbpf_argmax_invariant_under_capacity_scaling(ths, cs, scale_exp):
    # Power-of-two scales keep the float priorities exactly proportional,
    # so the full ordering, ties included, must be preserved.
    n = min(len(ths), len(cs))
    ths, cs = ths[:n], cs[:n]
    k = 2.0 ** scale_exp
    order = sorted(range(n),
                   key=lambda i: (-ssbpf_priority(cs[i], ths[i]), i))
    scaled = sorted(range(n),
                    key=lambda i: (-ssbpf_priority(k * cs[i], ths[i]), i))
    assert order == scaled


# --- throughput smoothing ---------------------------------------------------

@pytest.mark.parametrize("th,served,alpha,expected", [
    (100.0, 100.0, 0.1, 100.0),
    (0.0, 500.0, 1.0, 500.0),
    (200.0, 0.0, 0.25, 150.0),
])
def test_ewma_values_exact(th, served, alpha, expected):
    assert update_historical_throughput(th, served, alpha) == expected


@given(v=st.floats(0.0, 1e12), alpha=st.floats(1e-9, 1.0))
def test_ewma_fixed_point_exact(v, alpha):
    assert update_historical_throughput(v, v, alpha) == v


@given(th=st.floats(0.0, 1e9), served=st.floats(0.0, 1e9),
       alpha=st.floats(0.01, 1.0))
def test_ewma_stays_between_inputs(th, served, alpha):
    out = update_historical_throughput(th, served, alpha)
    lo, hi = min(th, served), max(th, served)
    assert lo - 1e-6 * hi <= out <= hi + 1e-6 * hi


@pytest.mark.parametrize("policy", ["ssbpf_edf", "hedf"])
def test_ranking_policy_folds_every_frame(policy):
    # Station 1 gets no grant in frame 0 and decays by exactly one step;
    # frame 1 holds no requests and still folds both stations.
    h = PolicyHarness(policy, n_stations=2, capacity=1000)
    th = h.policy.throughput
    th.update({0: 0.0, 1: 800.0})

    def stepped(served):
        return {sid: update_historical_throughput(th[sid], served[sid],
                                                  Scenario.ewma_alpha)
                for sid in th}

    h.arrive(0, 600, 0.0)
    expected = stepped({0: 600, 1: 0})
    assert [bits for _, bits in h.frame(0)] == [600]
    assert th == expected and th[1] < 800.0
    expected = stepped({0: 0, 1: 0})
    assert h.frame(1) == []
    assert th == expected


# --- EDF order, through the edf policy --------------------------------------

def _edf_grant_order(items):
    """Request ids in the order the edf policy grants them with capacity to
    spare; items are (id, deadline, arrival) in arrival order."""
    h = PolicyHarness("edf", n_stations=1, capacity=10_000)
    for rid, deadline, arrival in items:
        h.arrive(0, 100, arrival, deadline=deadline, request_id=rid)
    return [r.id for r, _ in h.frame(0)]


def test_edf_select_minimum():
    assert _edf_grant_order([(0, 30.0, 0.0), (1, 20.0, 0.0),
                             (2, 25.0, 0.0)]) == [1, 2, 0]


def test_edf_select_tie_on_arrival():
    assert _edf_grant_order([(0, 20.0, 5.0), (1, 20.0, 3.0)]) == [1, 0]


def test_edf_select_tie_on_id():
    assert _edf_grant_order([(3, 20.0, 5.0), (1, 20.0, 5.0)]) == [1, 3]


def test_edf_select_matches_linear_scan_oracle():
    rng = random.Random(2024)
    for _ in range(20):
        h = PolicyHarness("edf", n_stations=1, capacity=10**6)
        ids = list(range(200))
        rng.shuffle(ids)
        reqs = [h.arrive(0, 100, float(rng.randint(0, 20)),
                         deadline=float(rng.randint(0, 50)), request_id=i)
                for i in ids]
        best = edf_select(reqs)
        granted = [r.id for r, _ in h.frame(0)]
        assert granted[0] == best.id
        expected = []
        while reqs:
            nxt = edf_select(reqs)
            expected.append(nxt.id)
            reqs.remove(nxt)
        assert granted == expected


def test_edf_select_empty_rejected():
    with pytest.raises(ValueError):
        edf_select([])
    # The edf policy skips dropped requests: with none eligible, no grant.
    h = PolicyHarness("edf", n_stations=1)
    r = h.arrive(0, 300, 0.0)
    r.dropped = True
    assert h.frame(0) == []


# --- claim value and the keep-or-preempt rule -------------------------------

def test_claim_value_direct():
    assert claim_value(5.0, 10.0, 3.0, 12.0) == 24.0


def test_claim_value_idle_server():
    assert claim_value(3.0, 0.0, 0.0, 0.0) == 3.0


def test_claim_value_contract():
    with pytest.raises(ValueError):
        claim_value(1.0, 5.0, 6.0, 0.0)


@given(total=st.integers(0, 1000), done=st.integers(0, 1000),
       burst=st.integers(0, 500), now=st.integers(0, 10**6))
def test_claim_value_equals_two_task_replay(total, done, burst, now):
    done = min(done, total)
    # Replay: finish the current task, then run the next to completion.
    t = now + (total - done)
    t = t + burst
    assert claim_value(burst, total, done, now) == t


@pytest.mark.parametrize("mu,dj,expected", [
    (24.0, 30.0, Outcome.CONTINUE),
    (24.0, 20.0, Outcome.SWITCH),
    (24.0, 24.0, Outcome.CONTINUE),  # tie keeps the current task
])
def test_hedf_decide(mu, dj, expected):
    d = hedf_decide(mu, dj)
    assert d.outcome is expected
    assert d.claim_value_mu == mu
    assert d.next_deadline_dj == dj


# --- allocate_frame, every policy -------------------------------------------

@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_empty_backlog_empty_grants(policy):
    h = PolicyHarness(policy, n_stations=2)
    assert h.frame(0) == []


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_underload_single_request(policy):
    h = PolicyHarness(policy, n_stations=1, capacity=1000)
    h.arrive(0, 300, 0.0)
    grants = h.frame(0)
    assert len(grants) == 1
    assert grants[0][1] == 300


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_work_conservation_random_frames(policy):
    # Independently recompute backlog and check sum(granted) against it.
    rng = random.Random(sum(map(ord, policy)))
    h = PolicyHarness(policy, n_stations=4, capacity=1000)
    for frame in range(200):
        now = frame * h.frame_ms
        for sid in range(4):
            if rng.random() < 0.3:
                cls = rng.choice([RTPS, BE])
                h.arrive(sid, rng.randint(50, 900), now, cls)
        backlog = h.backlog()
        granted = sum(bits for _, bits in h.frame(frame))
        assert granted == min(backlog, 1000)
    assert h.backlog() >= 0


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_policy_determinism(policy):
    def trace():
        rng = random.Random(7)
        h = PolicyHarness(policy, n_stations=3, capacity=800)
        out = []
        for frame in range(100):
            now = frame * h.frame_ms
            for sid in range(3):
                if rng.random() < 0.4:
                    h.arrive(sid, rng.randint(100, 1200), now,
                             rng.choice([RTPS, BE]))
            out.extend((frame, r.station_id, r.id, bits)
                       for r, bits in h.frame(frame))
        return out

    assert trace() == trace()


def test_edf_policy_serves_in_edf_select_order():
    h = PolicyHarness("edf", n_stations=2, capacity=10_000)
    rng = random.Random(99)
    live = []
    for i in range(30):
        live.append(h.arrive(rng.randrange(2), rng.randint(100, 300),
                             arrival=float(i % 7),
                             deadline=float(rng.randint(10, 90))))
    grants = h.frame(0)
    # Capacity is ample: every request served once, in exactly EDF order.
    expected = []
    pool = list(live)
    while pool:
        nxt = edf_select(pool)
        expected.append(nxt.id)
        pool.remove(nxt)
    assert [r.id for r, _ in grants] == expected


def test_rr_cycles_stations():
    h = PolicyHarness("rr", n_stations=3, capacity=300)
    for sid in range(3):
        for _ in range(2):
            h.arrive(sid, 100, 0.0)
    grants = h.frame(0)
    assert [r.station_id for r, _ in grants] == [0, 1, 2]
    grants = h.frame(1)  # pointer resumes after station 2
    assert [r.station_id for r, _ in grants] == [0, 1, 2]


@pytest.mark.parametrize("policy", ["rr", "wrr"])
def test_rr_discards_dropped_request_behind_partial_head(policy):
    h = PolicyHarness(policy, n_stations=1, capacity=300)
    head = h.arrive(0, 500, 0.0)
    dropped = h.arrive(0, 200, 0.0)
    behind = h.arrive(0, 100, 0.0)
    assert h.frame(0) == [(head, 300)]
    dropped.dropped = True
    assert h.frame(1) == [(head, 200), (behind, 100)]
    assert h.frame(2) == []
    assert dropped.served_bits == 0
    assert head.served_bits == head.size_bits
    assert behind.served_bits == behind.size_bits


def test_wrr_default_weights_follow_capacity():
    h = PolicyHarness("wrr", n_stations=2, capacity=600,
                      station_caps=[2000, 1000])
    for sid in range(2):
        for _ in range(4):
            h.arrive(sid, 100, 0.0)
    grants = h.frame(0)
    # Station 0 carries weight 2, station 1 weight 1.
    assert [r.station_id for r, _ in grants] == [0, 0, 1, 0, 0, 1]


def test_ssbpf_lightly_served_station_goes_first():
    h = PolicyHarness("ssbpf_edf", n_stations=2, capacity=400)
    h.policy.throughput.update({0: 350.0, 1: 10.0})
    h.arrive(0, 300, 0.0)
    h.arrive(1, 300, 0.0)
    grants = h.frame(0)
    assert [r.station_id for r, _ in grants] == [1, 0]
    assert [bits for _, bits in grants] == [300, 100]


def test_hedf_keeps_current_task_when_slack_allows():
    h = PolicyHarness("hedf", n_stations=2, capacity=1000)
    big = h.arrive(0, 1500, 0.0, BE)
    h.frame(0)  # big is now current, partially served
    urgent = h.arrive(1, 400, 5.0, RTPS)  # due at 25 ms: plenty of slack
    grants = h.frame(1)
    assert [r.id for r, _ in grants] == [big.id, urgent.id]
    assert big.served_bits == big.size_bits


def test_hedf_preempts_when_projection_misses_deadline():
    h = PolicyHarness("hedf", n_stations=2, capacity=1000)
    big = h.arrive(0, 5000, 0.0, BE)
    h.frame(0)
    urgent = h.arrive(1, 400, 5.0, RTPS, deadline=12.0)
    # Projection: 2 ms burst + 20 ms of current remainder + now 5 > 12.
    grants = h.frame(1)
    assert grants[0][0] is urgent
    assert grants[1][0] is big


def test_hedf_same_station_preemption_resumes_current_task():
    # The current task is its station's only request when an earlier-deadline
    # request arrives in the same station.
    h = PolicyHarness("hedf", n_stations=1, capacity=1000)
    big = h.arrive(0, 3000, 0.0, BE)
    assert h.frame(0) == [(big, 1000)]
    urgent = h.arrive(0, 1500, 5.0, RTPS, deadline=12.0)
    # Projection: 7.5 ms burst + 10 ms of current remainder + now 5 > 12.
    assert h.frame(1) == [(urgent, 1000)]
    # urgent is now current; big, waiting again, does not preempt it back
    # and takes the rest of the frame once urgent completes.
    assert h.frame(2) == [(urgent, 500), (big, 500)]
    assert h.frame(3) == [(big, 1000)]
    assert h.frame(4) == [(big, 500)]
    assert h.frame(5) == []
    assert big.served_bits == big.size_bits
    assert urgent.served_bits == urgent.size_bits


def test_hedf_same_station_switch_to_later_deadline():
    # The overload thrash: the candidate, next in the current task's own
    # station, cannot meet its deadline anyway, so the projection fails and
    # hedf preempts the earlier-deadline current task for it.
    h = PolicyHarness("hedf", n_stations=1, capacity=1000)
    cur = h.arrive(0, 3000, 0.0, RTPS, deadline=10.0)
    later = h.arrive(0, 500, 0.0, RTPS, deadline=11.0)
    assert h.frame(0) == [(cur, 1000)]
    # Projection: 2.5 ms burst + 10 ms of current remainder + now 5 > 11.
    assert h.frame(1) == [(later, 500), (cur, 500)]
    assert h.frame(2) == [(cur, 1000)]
    assert h.frame(3) == [(cur, 500)]
    assert h.frame(4) == []


def test_hedf_forgets_dropped_current_task():
    h = PolicyHarness("hedf", n_stations=2, capacity=1000)
    cur = h.arrive(0, 3000, 0.0, BE)
    nxt = h.arrive(1, 400, 0.0, BE, deadline=2000.0)
    assert h.frame(0) == [(cur, 1000)]
    cur.dropped = True
    assert h.frame(1) == [(nxt, 400)]
    assert h.frame(2) == []


def test_hedf_weighs_live_head_behind_dropped_top(monkeypatch):
    # The best-ranked station's heap top is a dropped request. The ranking
    # discards it, so the current task is weighed against the live request
    # behind it, which wins the frame; the dropped one is never granted.
    h = PolicyHarness("hedf", n_stations=2, capacity=1000)
    big = h.arrive(0, 5000, 0.0, BE)
    assert h.frame(0) == [(big, 1000)]  # station 1 now ranks first
    stale = h.arrive(1, 400, 5.0, RTPS, deadline=10.0)
    live = h.arrive(1, 400, 5.0, RTPS, deadline=12.0)
    stale.dropped = True
    weighed = []

    def recording_decide(mu, next_deadline):
        weighed.append(next_deadline)
        return hedf_decide(mu, next_deadline)

    monkeypatch.setattr(schedulers, "hedf_decide", recording_decide)
    # Projection: 2 ms burst + 20 ms of current remainder + now 5 > 12.
    assert h.frame(1) == [(live, 400), (big, 600)]
    assert weighed == [live.deadline]
    assert stale.served_bits == 0


def test_hedf_projection_reads_the_station_rate(monkeypatch):
    # Each claim_value input is a bit count served at its request's own
    # station rate, bits / capacity_c * frame_duration_ms, not at the cell
    # capacity.
    h = PolicyHarness("hedf", n_stations=2, capacity=1000,
                      station_caps=[400, 250])
    cur = h.arrive(0, 1500, 0.0, BE)
    assert h.frame(0) == [(cur, 1000)]
    h.arrive(1, 300, 5.0, RTPS)  # the candidate
    inputs = []

    def recording_claim_value(**kwargs):
        inputs.append(kwargs)
        return claim_value(**kwargs)

    monkeypatch.setattr(schedulers, "claim_value", recording_claim_value)
    h.frame(1)
    assert inputs[0] == {
        "burst_next": 300 / 250 * h.frame_ms,
        "total_current": 1500 / 400 * h.frame_ms,
        "elapsed_current": 1000 / 400 * h.frame_ms,
        "now": 5.0,
    }


def test_hedf_checks_at_most_once_per_frame_on_canonical():
    # The keep-or-preempt check runs only at a frame start, for the task the
    # last frame left partly served. 1461 of this run's 4200 cell-frames
    # start with such a task and a candidate to weigh it against.
    sc = canonical_scenario(seed=1, scheduler_name="hedf", total_frames=600)
    with hedf_checks_per_frame() as counts:
        run(sc)
    assert len(counts) == len(sc.cells) * sc.total_frames
    assert max(counts) == 1
    assert sum(counts) == 1461


@given(caps=st.lists(st.integers(100, 3_000), min_size=1, max_size=5),
       capacity=st.integers(1, 6_000), data=st.data())
def test_hedf_first_frame_grants_like_ssbpf_edf(caps, capacity, data):
    # With no carried task there is nothing to keep or preempt, so hedf
    # drains the frame exactly as ssbpf_edf does.
    n = len(caps)
    throughput = {sid: data.draw(st.floats(0.0, 5_000.0)) for sid in range(n)}
    arrivals = data.draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(1, 4_000),
        st.floats(0.0, 4.0), st.sampled_from(list(ServiceClass))),
        max_size=12))
    granted = []
    for policy in ("hedf", "ssbpf_edf"):
        h = PolicyHarness(policy, n_stations=n, capacity=capacity,
                          station_caps=caps)
        h.policy.throughput.update(throughput)
        for sid, size, arrival, cls in arrivals:
            h.arrive(sid, size, arrival, cls)
        granted.append([(r.id, bits) for r, bits in h.frame(0)])
    assert granted[0] == granted[1]


def test_hedf_current_persists_across_frames():
    h = PolicyHarness("hedf", n_stations=1, capacity=1000)
    r = h.arrive(0, 3000, 0.0, BE)
    for frame in range(3):
        grants = h.frame(frame)
        assert [g[0].id for g in grants] == [r.id]
    assert r.served_bits == r.size_bits


# --- context switch counting ------------------------------------------------

def _count(grants, sizes, cell_of=None):
    """count_context_switches over a log of arrival and grant rows only;
    grants are (station, request, bits), one per frame, and every request
    of ``sizes`` arrives in frame 0."""
    cell_of = cell_of or {0: 0}
    station = {rid: sid for sid, rid, _ in grants}
    log = EventLog(frame_duration_ms=5.0, total_frames=len(grants))
    log.events = [(0, 0.0, "arrival", cell_of[station[rid]], station[rid],
                   rid, size) for rid, size in sizes.items()]
    log.events += [(f, (f + 1) * 5.0, "grant", cell_of[sid], sid, rid, bits)
                   for f, (sid, rid, bits) in enumerate(grants)]
    return count_context_switches(log)


def test_context_switch_single_request():
    assert _count([(0, 1, 50), (0, 1, 50)], {1: 100}) == 0


def test_context_switch_sequential_completion():
    assert _count([(0, 1, 100), (0, 2, 100)], {1: 100, 2: 100}) == 0


def test_context_switch_preemption_counts():
    # A part-served, then B part-served, then A again: two transitions.
    assert _count([(0, 1, 50), (0, 2, 60), (0, 1, 50)],
                  {1: 100, 2: 100}) == 2


def test_context_switch_cells_independent():
    grants = [(0, 1, 50), (1, 9, 10), (0, 1, 50)]
    assert _count(grants, {1: 100, 9: 100}, cell_of={0: 0, 1: 1}) == 0
