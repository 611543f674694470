"""Differential: a memoized stream replays exactly as it was stepped.

:meth:`~repro.dram.device.Device.apply_stream` steps a stream through
the per-command methods the first time it sees its shape, and replays
the recording after that in one of two ways: through the bank's one
replay kernel (:meth:`~repro.dram.bank.Bank.replay`), or, for a
self-contained stream whose restores are provably quiet, in closed form
(:class:`~repro.dram.device.QuietStream`).  Generated one-bank streams
of row writes, ACT/PRE pairs, WAITs and row reads run on three identical
devices, several times over two row bindings:

* **stepped** — every call under a shape of its own, so each one is
  recorded command by command (the oracle);
* **kernel** — one shape, replayed with a recording open, which keeps
  every replay on the kernel;
* **closed** — one shape, as production runs it.

The bindings sit at bank edges and subarray boundaries, among rows that
hold stored data and ledger entries from before the stream.  The last
calls run at a temperature that trips the retention guard, so a closed
form kept from a cooler call must fall back to the kernel, and then
cool again.  The devices cover the three families and a cross-channel
coupled profile.  Every call's reads and marks, and the full device
digest after it (accumulators exact), must match the oracle's.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dram import device as device_module
from repro.dram.device import Device
from repro.dram.ecc import encode_words
from repro.dram.geometry import Geometry
from repro.dram.profiles import get_profile

from tests.conftest import SMALL_GEOMETRY, vulnerable_profile
from tests.property.test_interpreter_equivalence import (
    PROFILES,
    device_digest,
    make_device,
)

#: The bank every stream hammers.
KEY = (0, 0, 1)
ROWS = SMALL_GEOMETRY.rows
#: Physical rows a binding centres on: both bank edges and subarray
#: boundaries (the small layout's subarrays start at 48, 112, 176, 240).
CENTRES = (0, 1, 47, 48, 112, 130, 240, ROWS - 1)
#: Idle cycles before each call: every timing horizon has passed, so
#: each call enters with the recorded signature and replays.
GAP = 20_000
#: A temperature at which a restore a few dozen cycles after the row's
#: write trips the retention guard, and most charged cells flip.
HOT_C = 400.0
#: Two channels on two dies, so an activation leaks into the other.
COUPLED_GEOMETRY = Geometry(channels=2, pseudo_channels=1, banks=2,
                            rows=ROWS, columns=SMALL_GEOMETRY.columns,
                            column_bytes=SMALL_GEOMETRY.column_bytes,
                            channels_per_die=1)


def build_device(profile_name, seed):
    if profile_name != "coupled":
        return make_device(profile_name, seed)
    family = get_profile("hbm2")
    device = Device(geometry=COUPLED_GEOMETRY, timing=family.timing,
                    profile=vulnerable_profile(cross_channel_coupling=0.3),
                    trr_config=family.trr, seed=seed)
    device.set_ecc_enabled(False)
    return device


def lowered(data):
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    parity = encode_words(bits)
    bits.setflags(write=False)
    parity.setflags(write=False)
    return bits, parity


@st.composite
def streams(draw):
    """(slot count, ops): ``wr``/``rd`` of a slot, a ``hammer`` of a
    slot (ACT, WAIT, PRE) or a ``wait``.  A self-contained stream reads
    nothing and hammers only rows it wrote earlier."""
    slots = draw(st.integers(1, 6))
    contained = draw(st.booleans())
    written = set()
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kinds = ["wr", "wait"]
        if written or not contained:
            kinds.append("hammer")
        if not contained:
            kinds.append("rd")
        kind = draw(st.sampled_from(kinds))
        if kind == "wait":
            ops.append(("wait", draw(st.sampled_from([1, 7, 40, 400]))))
            continue
        pool = sorted(written) if kind == "hammer" and contained \
            else range(slots)
        slot = draw(st.sampled_from(pool))
        if kind == "wr":
            written.add(slot)
        ops.append((kind, slot, draw(st.sampled_from([0, 0, 5, 60]))))
    return slots, tuple(ops)


def steps_of(ops):
    steps = []
    for op in ops:
        if op[0] == "wait":
            steps.append(op)
        elif op[0] == "hammer":
            steps.append(("act",) + KEY + (op[1],))
            if op[2]:
                steps.append(("wait", op[2]))
            steps.append(("pre",) + KEY)
        else:
            steps.append((op[0],) + KEY + (op[1],))
    return tuple(steps)


@st.composite
def bindings(draw, slots):
    """Physical rows of ``slots`` distinct slots near a centre."""
    centre = draw(st.sampled_from(CENTRES))
    near = [row for row in range(centre - 6, centre + 7) if 0 <= row < ROWS]
    return draw(st.lists(st.sampled_from(near), min_size=slots,
                         max_size=slots, unique=True))


@st.composite
def cases(draw):
    slots, ops = draw(streams())
    payloads = [draw(st.binary(min_size=SMALL_GEOMETRY.row_bytes,
                               max_size=SMALL_GEOMETRY.row_bytes))
                for _ in range(slots)]
    first, second = draw(bindings(slots)), draw(bindings(slots))
    # Rows touched before the stream: stored data, and ledger entries
    # from hammering at doses up to the bulk path's.
    prior = draw(st.lists(st.tuples(
        st.sampled_from(first + second),
        st.sampled_from(("write", "hammer", "bulk"))), max_size=6))
    return (draw(st.sampled_from(PROFILES + ("coupled",))),
            draw(st.integers(0, 3)), steps_of(ops), payloads, first,
            second, prior)


def prepare(device, prior, payload):
    mapper = device.mapper
    for physical, kind in prior:
        row = mapper.physical_to_logical(physical)
        if kind == "write":
            device.activate(*KEY, row)
            device.write_open_row(*KEY, np.unpackbits(
                np.frombuffer(payload, dtype=np.uint8)))
            device.precharge(*KEY)
        elif kind == "hammer":
            for _ in range(3):
                device.activate(*KEY, row)
                device.precharge(*KEY)
        else:
            device.bulk_activations([KEY + (row,)], 4_000, 4_000 * 40)


#: (binding, temperature) of each call in turn: record, build the
#: closed form, reuse it, another binding, trip the guard, cool again.
CALLS = (("first", 85.0), ("first", 85.0), ("first", 85.0),
         ("second", 85.0), ("first", HOT_C), ("first", 85.0))


def run(arm, case):
    """Each call's reads, marks and device digest on one arm."""
    profile_name, seed, steps, payloads, first, second, prior = case
    device = build_device(profile_name, seed)
    prepare(device, prior, payloads[0])
    lowered_payloads = [lowered(data) for data in payloads]
    outcomes = []
    for index, (which, temperature) in enumerate(CALLS):
        rows = [device.mapper.physical_to_logical(row) for row in
                (first if which == "first" else second)]
        device.set_temperature(temperature)
        device.wait(GAP)
        shape = ("stepped", index) if arm == "stepped" else "stream"
        if arm == "kernel":
            device._trace = []
        reads, marks = device.apply_stream(shape, steps, rows,
                                           lowered_payloads)
        device._trace = None
        outcomes.append(([bits.tolist() for bits in reads], marks,
                         device_digest(device)))
    return outcomes


def check(case):
    oracle = run("stepped", case)
    for arm in ("kernel", "closed"):
        for call, (outcome, expected) in enumerate(zip(run(arm, case),
                                                       oracle)):
            reads, marks, (exact, accumulators) = outcome
            assert (reads, marks) == expected[:2], (arm, call)
            for name, value in expected[2][0].items():
                assert exact[name] == value, (arm, call, name)
            assert accumulators == expected[2][1], (arm, call)


@settings(max_examples=70, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_replays_match_the_stepped_recording(case):
    check(case)


def test_generated_streams_reach_every_path(monkeypatch):
    """Not vacuous: the generated calls apply closed forms, fall back to
    the kernel on a tripped guard, and replay other streams on the
    kernel."""
    seen = {"closed": 0, "fallback": 0, "replays": 0}
    quiet, replay = device_module.QuietStream.quiet, Device._replay

    def counted_quiet(form, advance):
        result = quiet(form, advance)
        seen["closed" if result else "fallback"] += 1
        return result

    def counted_replay(device, *args):
        seen["replays"] += 1
        return replay(device, *args)

    monkeypatch.setattr(device_module.QuietStream, "quiet", counted_quiet)
    monkeypatch.setattr(Device, "_replay", counted_replay)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(cases())
    def sweep(case):
        run("closed", case)

    sweep()
    assert seen["closed"] > 0 and seen["fallback"] > 0, seen
    assert seen["replays"] > seen["closed"], seen
