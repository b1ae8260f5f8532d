"""Unit tests for rpid encoding, the reachability index, and the controller."""

import pytest

from repro.rpq import (
    IndexOutcome,
    MAX_SEQ,
    ReachabilityIndex,
    RpidAllocator,
    RpqController,
    make_source_path_id,
    unpack_source_path_id,
)
from repro.rpq.control import ACTION_EXIT, ACTION_PATH
from repro.plan.stages import RpqSpec
from repro.runtime.stats import MachineStats
from repro.runtime.termination import TerminationTracker


class TestRpid:
    def test_round_trip(self):
        spid = make_source_path_id(3, 7, 123456)
        assert unpack_source_path_id(spid) == (3, 7, 123456)

    def test_max_values_round_trip(self):
        spid = make_source_path_id(255, 255, MAX_SEQ - 1)
        assert unpack_source_path_id(spid) == (255, 255, MAX_SEQ - 1)

    def test_uniqueness_across_workers(self):
        a = RpidAllocator(0, 0)
        b = RpidAllocator(0, 1)
        c = RpidAllocator(1, 0)
        ids = {a.allocate(), a.allocate(), b.allocate(), c.allocate()}
        assert len(ids) == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_source_path_id(256, 0, 0)
        with pytest.raises(ValueError):
            make_source_path_id(0, 256, 0)
        with pytest.raises(ValueError):
            make_source_path_id(0, 0, MAX_SEQ)


class TestReachabilityIndex:
    def test_first_visit_inserts(self):
        idx = ReachabilityIndex(0, 0)
        assert idx.check_and_update(11, 5, 2) is IndexOutcome.INSERTED
        assert idx.entries == 1
        assert idx.depth_of(11, 5) == 2

    def test_deeper_revisit_eliminated(self):
        idx = ReachabilityIndex(0, 0)
        idx.check_and_update(11, 5, 2)
        assert idx.check_and_update(11, 5, 3) is IndexOutcome.ELIMINATED
        assert idx.check_and_update(11, 5, 2) is IndexOutcome.ELIMINATED
        assert idx.depth_of(11, 5) == 2

    def test_shallower_revisit_duplicated_updates_depth(self):
        idx = ReachabilityIndex(0, 0)
        idx.check_and_update(11, 5, 3)
        assert idx.check_and_update(11, 5, 1) is IndexOutcome.DUPLICATED
        assert idx.depth_of(11, 5) == 1
        assert idx.updates == 1

    def test_sources_are_independent(self):
        idx = ReachabilityIndex(0, 0)
        idx.check_and_update(11, 5, 2)
        assert idx.check_and_update(22, 5, 9) is IndexOutcome.INSERTED
        assert idx.entries == 2

    def test_modelled_bytes(self):
        idx = ReachabilityIndex(0, 0)
        for i in range(10):
            idx.check_and_update(1, i, 0)
        assert idx.modelled_bytes == 120  # 12 bytes/entry, paper Section 4.4


def make_controller(min_hops, max_hops, use_index=True):
    spec = RpqSpec(
        rpq_id=0,
        min_hops=min_hops,
        max_hops=max_hops,
        path_entry=2,
        exit_stage=4,
        path_stages=(2, 3),
        depth_slot=0,
        rpid_slot=1,
        accumulator_inits=((2, "max"),),
    )
    stats = MachineStats()
    tracker = TerminationTracker(0)
    index = ReachabilityIndex(0, 0)
    controller = RpqController(spec, index if use_index else None, stats, tracker)
    return controller, stats, tracker, index


class TestController:
    def test_init_entry_sets_depth_rpid_and_resets_accumulators(self):
        controller, stats, tracker, _ = make_controller(1, None)
        ctx = [99, None, 42]
        actions, _cost, undo = controller.on_entry(7, ctx, True, RpidAllocator(0, 0))
        assert ctx[0] == 0  # depth
        assert ctx[1] is not None  # rpid allocated
        assert ctx[2] is None  # accumulator reset
        assert actions == (ACTION_PATH,)  # depth 0 < min 1: path only
        # Entries are counted per depth and handed over when the slice ends.
        assert stats.control_matches == {} and tracker.max_depths == {}
        controller.flush()
        assert stats.control_matches[0][0] == 1
        assert tracker.max_depths[0] == 0
        # Undo restores the pre-entry view.
        for slot, old in reversed(undo):
            ctx[slot] = old
        assert ctx == [99, None, 42]

    def test_advance_increments_depth(self):
        controller, stats, _, _ = make_controller(1, None)
        ctx = [0, 1234, None]
        actions, _cost, _undo = controller.on_entry(5, ctx, False, RpidAllocator(0, 0))
        assert ctx[0] == 1
        assert actions == (ACTION_EXIT, ACTION_PATH)

    def test_max_hop_stops_deepening(self):
        controller, _, _, _ = make_controller(1, 2)
        ctx = [1, 77, None]
        actions, _cost, _undo = controller.on_entry(5, ctx, False, RpidAllocator(0, 0))
        assert ctx[0] == 2
        assert actions == (ACTION_EXIT,)  # at max: no path continuation

    def test_eliminated_backtracks(self):
        controller, stats, _, index = make_controller(1, None)
        index.check_and_update(77, 5, 1)
        ctx = [0, 77, None]
        actions, _cost, _undo = controller.on_entry(5, ctx, False, RpidAllocator(0, 0))
        assert actions == ()
        assert stats.eliminated[0][1] == 1

    def test_duplicated_continues_without_emitting(self):
        controller, stats, _, index = make_controller(1, 5)
        index.check_and_update(77, 5, 4)
        ctx = [0, 77, None]
        actions, _cost, _undo = controller.on_entry(5, ctx, False, RpidAllocator(0, 0))
        assert actions == (ACTION_PATH,)
        assert stats.duplicated[0][1] == 1

    def test_zero_hop_inserts_self_entry(self):
        # Paper Figure 3: {0,0} inserts a {v, v} entry per source vertex.
        controller, _, _, index = make_controller(0, 0)
        ctx = [None, None, None]
        actions, _cost, _undo = controller.on_entry(9, ctx, True, RpidAllocator(0, 0))
        assert actions == (ACTION_EXIT,)
        assert index.entries == 1

    def test_no_index_mode_always_exits(self):
        controller, stats, _, index = make_controller(1, None, use_index=False)
        ctx = [0, 77, None]
        actions, _cost, _undo = controller.on_entry(5, ctx, False, RpidAllocator(0, 0))
        assert actions == (ACTION_EXIT, ACTION_PATH)
        assert index.entries == 0

    def test_below_min_never_touches_index(self):
        controller, _, _, index = make_controller(3, None)
        ctx = [0, 77, None]
        controller.on_entry(5, ctx, False, RpidAllocator(0, 0))
        assert index.entries == 0
