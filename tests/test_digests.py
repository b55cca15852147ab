"""Behaviour pins: the SHA-256 of the event CSV of fixed runs.

Any change to traffic generation, a policy, the engine loop or the CSV
format moves at least one of these digests. A change may update a pin only
together with a CHANGES.md entry saying why the simulated behaviour changed.
"""

import hashlib
from dataclasses import replace

import pytest

from uplinksim.engine import run
from uplinksim.metrics import write_events_csv
from uplinksim.model import (Cell, Scenario, ServiceClass,
                             SubscriberStation, TrafficSpec,
                             canonical_scenario, starvation_scenario)

FRAMES = 600
BUILDERS = {"canonical": canonical_scenario,
            "starvation": starvation_scenario}

# Equal pins are expected: every canonical station has the same capacity,
# so each wrr weight is 1 and wrr runs as rr; starvation traffic is
# constant-rate only, so the seed does not change it.
PINS = {
    ("canonical", "rr", 1): "92c997703ff93d7c807d3fe841c1883a5f73cb72a7d02c34f369108425717d36",
    ("canonical", "rr", 2): "66117f602fe335743e184a26d1703a81062b03e93812599d125f854982e3797f",
    ("canonical", "wrr", 1): "92c997703ff93d7c807d3fe841c1883a5f73cb72a7d02c34f369108425717d36",
    ("canonical", "wrr", 2): "66117f602fe335743e184a26d1703a81062b03e93812599d125f854982e3797f",
    ("canonical", "edf", 1): "19f6f1d5c94b524ef2015e4999e54220f26562635d3c5435a79b9e1fe434b294",
    ("canonical", "edf", 2): "f4a617717d49205078d286ca49cfd69d53896c9aab385179c046061811c8c50e",
    ("canonical", "ssbpf_edf", 1): "0faae8035aebd8926847207d00bbddc2bd0009dcf6504b365862ff5c20b61f06",
    ("canonical", "ssbpf_edf", 2): "e6f7cb19730e4943d7694dc35229df917fb5f586c6ed42fbcdcb1047e07accb1",
    ("canonical", "hedf", 1): "71ed861f0ad63c981e0083404535e1957fe36aa2b7352f744dcd128d874f224d",
    ("canonical", "hedf", 2): "b44a307f6e3914d69234de0b5db6ec7c79a54e1cee8a404ca946575e2b935be9",
    ("starvation", "rr", 1): "ce7a7fee1d37460834ea55ecafea58d6088a6659a26e2f6a1717a6ee4a5a418d",
    ("starvation", "rr", 2): "ce7a7fee1d37460834ea55ecafea58d6088a6659a26e2f6a1717a6ee4a5a418d",
    ("starvation", "wrr", 1): "ce7a7fee1d37460834ea55ecafea58d6088a6659a26e2f6a1717a6ee4a5a418d",
    ("starvation", "wrr", 2): "ce7a7fee1d37460834ea55ecafea58d6088a6659a26e2f6a1717a6ee4a5a418d",
    ("starvation", "edf", 1): "ad648a4c49dc648450a59747af168b4bbc3c1572a9035effd3feb972c163f31d",
    ("starvation", "edf", 2): "ad648a4c49dc648450a59747af168b4bbc3c1572a9035effd3feb972c163f31d",
    ("starvation", "ssbpf_edf", 1): "ce7a7fee1d37460834ea55ecafea58d6088a6659a26e2f6a1717a6ee4a5a418d",
    ("starvation", "ssbpf_edf", 2): "ce7a7fee1d37460834ea55ecafea58d6088a6659a26e2f6a1717a6ee4a5a418d",
    ("starvation", "hedf", 1): "65a5ce22200c4e838544af739dc91f4fcd33e92c65ab6976748b53ea3ad06df3",
    ("starvation", "hedf", 2): "65a5ce22200c4e838544af739dc91f4fcd33e92c65ab6976748b53ea3ad06df3",
}
# starvation, seed 1, with drop_on_miss on: every policy's drop path.
DROP_ON_MISS_PINS = {
    "rr": "a579451247448110fc2b4838467ed155546ef754eb39765d83264b18a42efc8a",
    "wrr": "a579451247448110fc2b4838467ed155546ef754eb39765d83264b18a42efc8a",
    "edf": "94402acf8f878c2b8c34f10ad1ae7a851b8d794583a03f0c65ae36531421cd55",
    "ssbpf_edf": "a579451247448110fc2b4838467ed155546ef754eb39765d83264b18a42efc8a",
    "hedf": "87ea183181ea6168351af32411c82ac092c3242ba8dac46b0b0f53b86c3cdbf0",
}
# starvation, seed 1, over its full 12000 frames: unlike the 600-frame pins
# these reach the best-effort packets that arrive every 15 s.
FULL_HORIZON_STARVATION_PINS = {
    "rr": "1c4dff39e298911326c76ac4722ce7900612124051e679def7b3c8a3fe6bc62f",
    "wrr": "1c4dff39e298911326c76ac4722ce7900612124051e679def7b3c8a3fe6bc62f",
    "edf": "7b9e0e5561a36650b51ac5c69e4da2053f20c51920243b5182a0c6b82fa7235c",
    "ssbpf_edf": "8f8633ad9bc45ee56d9556c989d852fa0aa5c09442f505ddaba55efeebba4978",
    "hedf": "9cc822238cdf169eb2d2c817fe7abcddab441b194cfcfa297518ae92e05d3cf2",
}



def uneven_scenario(*, seed: int, scheduler_name: str) -> Scenario:
    """Two cells whose stations' capacities differ from their cell's and
    from each other, with UGS, ertPS, rtPS and BE sources of both patterns.

    The default wrr weights are 1, 2, 4 in cell 0 and 1, 3 in cell 1, and
    hedf projects service at station rates below the cell's. Offered load
    is about 93% of cell 0 and 85% of cell 1.
    """
    def spec(cls, pattern, rate, size, start=0.0):
        return TrafficSpec(service_class=cls, pattern=pattern,
                           rate_bits_per_s=rate, packet_size_bits=size,
                           start_time=start)

    ugs, ertps = ServiceClass.UGS, ServiceClass.ERTPS
    rtps, be = ServiceClass.RTPS, ServiceClass.BE
    traffic = {
        0: (spec(ugs, "constant_rate", 64_000.0, 480),
            spec(be, "poisson", 32_000.0, 1600)),
        1: (spec(ertps, "poisson", 96_000.0, 800),
            spec(rtps, "constant_rate", 64_000.0, 1200, 2.5)),
        2: (spec(rtps, "poisson", 128_000.0, 2000),
            spec(be, "poisson", 64_000.0, 3200)),
        3: (spec(ugs, "constant_rate", 48_000.0, 360),
            spec(rtps, "poisson", 48_000.0, 960)),
        4: (spec(ertps, "constant_rate", 72_000.0, 720, 1.0),
            spec(be, "poisson", 36_000.0, 2400)),
    }
    capacity = {0: 400, 1: 800, 2: 1600, 3: 300, 4: 900}
    cells = [Cell(0, 2400, [0, 1, 2]), Cell(1, 1200, [3, 4])]
    stations = [SubscriberStation(sid, 0 if sid < 3 else 1, c)
                for sid, c in capacity.items()]
    return Scenario(name="uneven", cells=cells, stations=stations,
                    frame_duration=5.0, total_frames=FRAMES,
                    traffic_specs=traffic, seed=seed,
                    scheduler_name=scheduler_name)


UNEVEN_PINS = {
    ("rr", 1): "7203db9c2914797cfc4fdef6de0e3146085e54791f23443465fc70dc314a6e8f",
    ("rr", 2): "280b4ebe552197e56f6c89fd844bbe4730237f6861a46a804c7d2d313bc9ba49",
    ("wrr", 1): "28b85c8fdaaf277ac1f48aee6487abf804b02f796ebb3b52892753ac51e128f0",
    ("wrr", 2): "f2b3a09067b03b6e5d1e3c9e283220bb77acfbcf12727b416780e26b7e5a952d",
    ("edf", 1): "672bdf9e6d4ce516da0f5f97af13bcca4fdb00710ce72efceadafd23a7a636c3",
    ("edf", 2): "791aa91388f2091a33c3a68beac738d67e9361ad70dc7fef06b17fd56c694f1b",
    ("ssbpf_edf", 1): "bb94989df17ab2f378dee413ba903f99c4a32e02cb67c58ab6c0edffbdffa274",
    ("ssbpf_edf", 2): "fdaa1593955d8080e804b9675b7ac5e5c3c0fcc1e22cd65aa98d32c14db0723d",
    ("hedf", 1): "38c331d94ceb6ce31f7b6bcdd2f5a89d70e8a56ee9fcfaf9592f627665a5f683",
    ("hedf", 2): "b5d159f03e24cb07bc3f0d6540747d0357148fc24124f3f87bba97706a724433",
}


def events_digest(sc, tmp_path) -> str:
    log, _ = run(sc)
    path = write_events_csv(log, str(tmp_path / "events.csv"))
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("scenario,policy,seed", sorted(PINS))
def test_event_csv_digest(tmp_path, scenario, policy, seed):
    sc = BUILDERS[scenario](seed=seed, scheduler_name=policy,
                            total_frames=FRAMES)
    assert events_digest(sc, tmp_path) == PINS[scenario, policy, seed]


@pytest.mark.parametrize("policy", sorted(DROP_ON_MISS_PINS))
def test_event_csv_digest_drop_on_miss(tmp_path, policy):
    sc = replace(starvation_scenario(seed=1, scheduler_name=policy,
                                     total_frames=FRAMES), drop_on_miss=True)
    assert events_digest(sc, tmp_path) == DROP_ON_MISS_PINS[policy]


@pytest.mark.parametrize("policy", sorted(FULL_HORIZON_STARVATION_PINS))
def test_event_csv_digest_full_horizon_starvation(tmp_path, policy):
    sc = starvation_scenario(seed=1, scheduler_name=policy)
    assert sc.total_frames == 12_000
    assert events_digest(sc, tmp_path) == FULL_HORIZON_STARVATION_PINS[policy]


@pytest.mark.parametrize("policy,seed", sorted(UNEVEN_PINS))
def test_event_csv_digest_uneven_capacities(tmp_path, policy, seed):
    sc = uneven_scenario(seed=seed, scheduler_name=policy)
    assert events_digest(sc, tmp_path) == UNEVEN_PINS[policy, seed]
