"""Property suite: the calendar queue against the heapq reference order.

The bucket calendar replaced the single-heap event calendar; its contract
is that the pop order is **exactly** the ``(when, sequence)`` total order
the heap produced — same-time FIFO included — under every workload: random
delay streams, zero delays, duplicate timestamps, and streams dense or
sparse enough to trigger the adaptive bucket-width resize in either
direction.  Each property replays the schedule through an inline heapq
model and compares the full firing order.
"""

import heapq

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

# Delay streams: mixes of zero, tiny, unit-scale and bucket-spanning delays,
# with duplicates made likely by drawing from a coarse lattice.
_delay = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)

#: Upper bound on the events of one drawn follow-on tree.  Level ``d`` of the
#: tree holds ``len(waves[0]) * ... * len(waves[d])`` events, so unshaped
#: waves (12 deep, 12 wide) could reach 12**12 events and exhaust memory in
#: the heap reference and the calendar alike.
_MAX_TREE_EVENTS = 2000


@st.composite
def _follow_on_waves(draw, max_depth=12, max_width=12):
    """Follow-on waves whose whole event tree stays within the bound.

    Each wave is drawn no wider than the room the bound leaves at its
    level, so deep trees come out narrow and wide trees shallow: a tree of
    uniform width fits 6 events per wave at depth 4 and the full 12 at
    depth 3, and trees still grow large enough to cross a calendar resize
    (see :data:`_RESIZING_TREE`).
    """
    waves = []
    level = 1  # events at the deepest level drawn so far
    total = 0
    for _ in range(draw(st.integers(min_value=0, max_value=max_depth))):
        width = min(max_width, (_MAX_TREE_EVENTS - total) // level)
        if width < 1:
            break
        wave = draw(st.lists(_delay, max_size=width))
        waves.append(wave)
        level *= len(wave)
        total += level
        if level == 0:
            break
    return waves


def _tree_events(waves) -> int:
    """Events in the follow-on tree of *waves*."""
    total, level = 0, 1
    for wave in waves:
        level *= len(wave)
        total += level
    return total


#: A four-deep tree of 1885 events, with zero delays and duplicate stamps,
#: whose last level (scheduled while the first bucket drains) overfills
#: bucket [1, 2) with spread stamps and so narrows the calendar mid-run.
_RESIZING_TREE = [
    [0.0],
    [0.0, 0.0, 0.03125, 0.0625, 0.0625, 0.09375, 0.125, 0.15625, 0.1875, 0.1875, 0.21875,
     0.25],
    [0.25, 0.28125, 0.3125, 0.3125, 0.34375, 0.375, 0.40625, 0.4375, 0.4375, 0.46875, 0.5,
     0.5],
    [1.0 + i / 13 for i in range(12)],
]


def _check_follow_on_tree(sim: Simulator, waves) -> None:
    """Run the follow-on tree of *waves* on *sim* against a heap model.

    Each fired event at depth ``d`` schedules ``waves[d + 1]`` relative to
    its own timestamp.
    """
    order = []
    labels = []

    def schedule(delays, base_label):
        for j, delay in enumerate(delays):
            label = (*base_label, j)
            labels.append(label)
            follow_on = waves[len(label)] if len(label) < len(waves) else []
            sim.timeout(delay).add_callback(
                lambda e, label=label, fo=follow_on: (
                    order.append(label),
                    schedule(fo, label),
                )
            )

    if waves:
        schedule(waves[0], ())
    sim.run()
    assert sorted(order) == sorted(labels)
    # The reference: replay the same recursive schedule on a heap model.
    ref_order = []
    heap = []
    seq = 0

    def ref_schedule(now, delays, base_label):
        nonlocal seq
        for j, delay in enumerate(delays):
            heapq.heappush(heap, (now + delay, seq, (*base_label, j)))
            seq += 1

    if waves:
        ref_schedule(0.0, waves[0], ())
    while heap:
        when, _, label = heapq.heappop(heap)
        ref_order.append(label)
        follow_on = waves[len(label)] if len(label) < len(waves) else []
        ref_schedule(when, follow_on, label)
    assert order == ref_order


def _fire_order(sim: Simulator, delays):
    """Schedule all *delays* up front; return indices in firing order."""
    order = []
    for i, delay in enumerate(delays):
        sim.timeout(delay).add_callback(lambda e, i=i: order.append(i))
    sim.run()
    return order


def _heapq_order(delays):
    """The reference order: a plain (when, sequence) heap."""
    heap = [(delay, seq) for seq, delay in enumerate(delays)]
    heapq.heapify(heap)
    return [seq for _, seq in [heapq.heappop(heap) for _ in range(len(heap))]]


class TestPopOrderMatchesHeapq:
    @given(st.lists(_delay, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_static_schedule(self, delays):
        assert _fire_order(Simulator(), delays) == _heapq_order(delays)

    @given(st.lists(_delay, max_size=200), st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_any_initial_bucket_width(self, delays, width):
        assert _fire_order(Simulator(bucket_width=width), delays) == _heapq_order(delays)

    @given(_follow_on_waves())
    @example(_RESIZING_TREE)
    @settings(max_examples=100, deadline=None)
    def test_dynamic_schedule(self, waves):
        """Events scheduled *during* the run (follow-on waves) stay ordered.

        Each fired event schedules its wave of follow-ons relative to its
        own timestamp — the enqueue-while-draining path where the drained
        front must hand ordering back to the bucket heap correctly.
        """
        _check_follow_on_tree(Simulator(), waves)


class TestResizeWorkloads:
    def test_bounded_follow_on_tree_crosses_resize(self):
        """The dynamic-schedule bound still admits a tree that resizes."""
        assert _tree_events(_RESIZING_TREE) <= _MAX_TREE_EVENTS
        assert len(_RESIZING_TREE) >= 4
        sim = Simulator()
        _check_follow_on_tree(sim, _RESIZING_TREE)
        assert sim.calendar_resizes >= 1

    def test_shrink_resize_preserves_order(self):
        """An overfull, spread-out bucket narrows the width mid-run."""
        sim = Simulator()  # width 1.0: all of [1, 2) lands in one bucket
        delays = [0.5] + [1.0 + (i % 600) / 601.0 for i in range(700)]
        assert _fire_order(sim, delays) == _heapq_order(delays)
        assert sim.calendar_resizes >= 1
        assert sim.bucket_width < 1.0

    def test_grow_resize_preserves_order(self):
        """A long run of near-empty buckets widens the width mid-run."""
        sim = Simulator()
        delays = [i + 0.5 for i in range(400)]
        assert _fire_order(sim, delays) == _heapq_order(delays)
        assert sim.calendar_resizes >= 1
        assert sim.bucket_width > 1.0

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_random_stream_after_forced_resize(self, data):
        sim = Simulator()
        head = [0.25] + [1.0 + (i % 600) / 601.0 for i in range(700)]
        tail = data.draw(st.lists(_delay, max_size=100))
        delays = head + tail
        assert _fire_order(sim, delays) == _heapq_order(delays)


class TestQueueDepthAccounting:
    def test_depth_counts_all_buckets(self):
        """Satellite regression: depth = total buffered events across the
        calendar (front + every pending bucket), not one heap's length."""
        sim = Simulator()
        # 3 in the front bucket (width 1.0 -> bucket 0), 5 + 2 in future ones.
        for _ in range(3):
            sim.timeout(0.25)
        for _ in range(5):
            sim.timeout(3.5)
        for _ in range(2):
            sim.timeout(7.25)
        stats = sim.stats()
        assert stats.queue_depth == 10
        assert stats.max_queue_depth == 10
        sim.run()
        assert sim.stats().queue_depth == 0
        assert sim.stats().max_queue_depth == 10
        assert sim.events_processed == 10

    def test_max_depth_tracks_peak_not_final(self):
        sim = Simulator()
        for _ in range(4):
            sim.timeout(1.0)
        sim.run()
        for _ in range(2):
            sim.timeout(1.0)
        sim.run()
        assert sim.stats().max_queue_depth == 4
