"""Content-based page sharing: the shared-frame store and its ledger.

Covers the mechanism at three levels:

* unit tests on :class:`~repro.vmm.memory.SharedFrameStore` refcounting
  (intern / release / exchange, frame recycling, OOM ordering safety,
  exclusive-frame maintenance, unique fresh-content frames, the
  disjoint fresh/pinned tag ranges);
* a hypothesis property: random interleavings of clone / write (fresh,
  unique pinned and repeated pinned tags) / fresh page runs (first-touch
  and rewrite) / destroy / image release conserve the frame ledger
  ``allocated == image frames + distinct private frames`` in both
  sharing modes, with identical guest-visible reads, and a run leaves
  exactly what the page-by-page loop leaves;
* guest-level parity: the base working set and the cyclic connection
  region, written in runs that hit OOM part-way (and, for connections,
  wrap the region and stop at a pinned page), end in the same state as
  the page-by-page loops, with and without a pressure handler;
* farm-level ablation: the same fixed-seed worm storm with sharing on
  must behave identically at the guest level while hitting memory
  pressure strictly later (fewer pressure events, lower peak residency).
"""

import dataclasses
import itertools
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import udp_packet
from repro.services.guest import GuestHost
from repro.services.personality import default_registry
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStream
from repro.vmm import memory as memory_module
from repro.vmm.memory import (
    PAGE_SIZE,
    PINNED_TAG_BASE,
    GuestAddressSpace,
    MachineMemory,
    OutOfMemoryError,
    ReferenceImage,
)
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine

ATTACKER = IPAddress.parse("203.0.113.44")

# Pinned content tags: at or above PINNED_TAG_BASE, so never fresh.
TAG_A = 10**15 + 1
TAG_B = 10**15 + 2
TAG_C = 10**15 + 3


@contextmanager
def fresh_tags_from(start):
    """Draw fresh content tags from ``start`` inside the block, so two
    worlds replaying the same writes see the same tags."""
    saved = memory_module._content_versions
    memory_module._content_versions = itertools.count(start)
    try:
        yield
    finally:
        memory_module._content_versions = saved


@pytest.fixture
def memory():
    return MachineMemory(64 * (1 << 20))  # 16384 frames, sharing on


@pytest.fixture
def image(memory):
    return ReferenceImage(memory, page_count=64)


class TestSharedFrameStore:
    def test_first_writer_pays_second_shares(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        base = memory.allocated_frames
        a.write(0, content=TAG_A)
        assert memory.allocated_frames == base + 1
        b.write(5, content=TAG_A)  # same content, different page and VM
        assert memory.allocated_frames == base + 1
        assert memory.sharing.attach_hits == 1
        assert memory.shared_frames == 1
        assert memory.sharing_savings_frames == 1
        assert a.read(0) == b.read(5) == TAG_A

    def test_intra_vm_duplicates_share_too(self, memory, image):
        a = GuestAddressSpace(image)
        base = memory.allocated_frames
        a.write(0, content=TAG_A)
        a.write(1, content=TAG_A)
        assert memory.allocated_frames == base + 1
        assert a.private_pages == 2
        assert memory.sharing_savings_frames == 1
        # Both references are the same space's: still fully reclaimable.
        assert a.reclaimable_frames == 1

    def test_frame_freed_only_when_last_sharer_leaves(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        base = memory.allocated_frames
        a.write(0, content=TAG_A)
        b.write(0, content=TAG_A)
        b.write(0, content=TAG_B)  # b dirties away: a still holds TAG_A
        assert memory.allocated_frames == base + 2
        assert a.read(0) == TAG_A
        assert memory.shared_frames == 0
        a.write(0, content=TAG_C)  # last TAG_A reference rewritten
        assert memory.sharing.refs_of(TAG_A) == 0
        assert memory.allocated_frames == base + 2

    def test_sole_owner_rewrite_recycles_frame(self, memory, image):
        a = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        peak = memory.peak_allocated_frames
        allocated = memory.allocated_frames
        a.write(0, content=TAG_B)
        assert memory.allocated_frames == allocated
        assert memory.peak_allocated_frames == peak  # no transient +1
        assert memory.sharing.frames_recycled == 1
        assert a.read(0) == TAG_B

    def test_rewrite_same_tag_is_noop(self, memory, image):
        a = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        refs = memory.sharing.refs_of(TAG_A)
        a.write(0, content=TAG_A)
        assert memory.sharing.refs_of(TAG_A) == refs
        memory.sharing.audit()

    def test_exclusive_frames_track_sharer_comings_and_goings(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        assert a.reclaimable_frames == 1
        b.write(0, content=TAG_A)  # a loses exclusivity
        assert a.reclaimable_frames == 0
        assert b.reclaimable_frames == 0
        b.write(0, content=TAG_B)  # a regains it
        assert a.reclaimable_frames == 1
        assert b.reclaimable_frames == 1
        memory.sharing.audit()

    def test_destroy_returns_only_physical_frames(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        a.write(1, content=TAG_B)
        b.write(0, content=TAG_A)
        base = memory.allocated_frames
        freed = b.destroy()
        # b's only page was shared with a: nothing physical came back.
        assert freed == 0
        assert memory.allocated_frames == base
        assert a.read(0) == TAG_A
        freed = a.destroy()
        assert freed == 2
        memory.check_frame_invariant()

    def test_oom_on_rewrite_leaves_old_mapping_intact(self, image):
        # A tiny pool: image (64) + 2 private frames.
        memory = image.memory
        tight = MachineMemory((64 + 2) * PAGE_SIZE)
        img = ReferenceImage(tight, page_count=64)
        a = GuestAddressSpace(img)
        b = GuestAddressSpace(img)
        a.write(0, content=TAG_A)
        b.write(0, content=TAG_A)  # shared: rewrite cannot recycle
        b.write(1, content=TAG_B)  # pool now full
        with pytest.raises(OutOfMemoryError):
            b.write(0, content=TAG_C)  # needs a frame; must not lose TAG_A
        assert b.read(0) == TAG_A
        assert tight.sharing.refs_of(TAG_A) == 2
        tight.check_frame_invariant()
        tight.sharing.audit()
        assert memory.allocated_frames == 64  # fixture pool untouched

    def test_oom_on_fresh_write_changes_nothing(self):
        tight = MachineMemory((8 + 1) * PAGE_SIZE)
        img = ReferenceImage(tight, page_count=8)
        a = GuestAddressSpace(img)
        a.write(0, content=TAG_A)
        with pytest.raises(OutOfMemoryError):
            a.write(1, content=TAG_B)
        assert not a.is_private(1)
        assert a.cow_faults == 1
        assert tight.allocation_failures == 1
        tight.check_frame_invariant()

    def test_eager_copy_rolls_back_cleanly_on_oom(self):
        tight = MachineMemory((8 + 4) * PAGE_SIZE)
        img = ReferenceImage(tight, page_count=8)
        with pytest.raises(OutOfMemoryError):
            GuestAddressSpace(img, eager_copy=True)
        assert img.sharers == 0
        assert tight.allocated_frames == 8
        tight.check_frame_invariant()
        tight.sharing.audit()

    def test_sharing_off_keeps_original_accounting(self):
        memory = MachineMemory(64 * (1 << 20), content_sharing=False)
        image = ReferenceImage(memory, page_count=64)
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        base = memory.allocated_frames
        a.write(0, content=TAG_A)
        b.write(0, content=TAG_A)
        assert memory.allocated_frames == base + 2  # no dedup
        assert memory.shared_frames == 0
        assert memory.sharing_savings_frames == 0
        assert a.reclaimable_frames == 1
        memory.check_frame_invariant()

    def test_fresh_writes_take_unique_frames_not_entries(self, memory, image):
        a = GuestAddressSpace(image)
        base = memory.allocated_frames
        a.write(0)
        assert a.write_run(1, 5) == 5
        store = memory.sharing
        assert store.unique_frames == 6
        assert store._entries == {}
        assert store.distinct_frames == 6
        assert store.total_refs == 6
        assert memory.allocated_frames == base + 6
        assert a.reclaimable_frames == 6
        assert a.cow_faults == 6
        store.audit()
        assert a.destroy() == 6
        assert store.unique_frames == 0
        memory.check_frame_invariant()

    def test_rewrites_move_frames_between_unique_and_pinned(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        store = memory.sharing
        a.write(0)
        a.write(0)  # fresh -> fresh: recycled in place
        a.write(0, content=TAG_A)  # fresh -> unseen pinned: recycled, now an entry
        assert store.frames_recycled == 2
        assert (store.unique_frames, len(store._entries)) == (0, 1)
        a.write(0)  # sole-owner pinned -> fresh: back to a unique frame
        assert (store.unique_frames, len(store._entries)) == (1, 0)
        b.write(0, content=TAG_B)
        a.write(0, content=TAG_B)  # fresh -> shared pinned: frees a's frame
        assert (store.unique_frames, len(store._entries)) == (0, 1)
        assert memory.shared_frames == 1
        a.write(0)  # shared pinned -> fresh: needs a new frame
        assert (store.unique_frames, store.refs_of(TAG_B)) == (1, 1)
        assert a.reclaimable_frames == b.reclaimable_frames == 1
        store.audit()
        memory.check_frame_invariant()

    def test_eager_copy_takes_one_run_of_unique_frames(self, memory, image):
        base_failures = memory.allocation_failures
        a = GuestAddressSpace(image, eager_copy=True)
        assert memory.sharing.unique_frames == image.page_count
        assert memory.sharing._entries == {}
        assert a.cow_faults == 0
        assert len({a.read(page) for page in range(image.page_count)}) == image.page_count
        assert memory.allocation_failures == base_failures
        memory.sharing.audit()

    def test_invariant_catches_ledger_drift(self, memory, image):
        a = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        memory.check_frame_invariant()
        memory.private_frames += 1  # simulate drift
        with pytest.raises(AssertionError):
            memory.check_frame_invariant()


class TestRewriteRuns:
    """``write_run`` from a fresh-content first page: a rewrite run."""

    def spaces(self, content_sharing):
        """Two address spaces in twin pools, dirtied the same way: pages
        0-5 fresh, page 3 pinned, pages 6-7 clean."""
        twins = []
        for __ in range(2):
            memory = MachineMemory(64 * (1 << 20), content_sharing=content_sharing)
            space = GuestAddressSpace(ReferenceImage(memory, page_count=16))
            with fresh_tags_from(1):
                space.write_run(0, 6)
            space.write(3, content=TAG_A)
            twins.append(space)
        return twins

    def page_by_page(self, space, first, count):
        for page in range(first, first + count):
            space.write(page)

    def state(self, space):
        store = space.memory.sharing
        return (
            dict(space.private_page_contents()),
            space.cow_faults,
            space.memory.allocated_frames,
            space.memory.allocation_failures,
            None if store is None else (store.unique_frames, store.frames_recycled),
        )

    @pytest.mark.parametrize("content_sharing", [True, False], ids=["sharing", "no-sharing"])
    @pytest.mark.parametrize(
        "first, count, written",
        [(0, 3, 3), (0, 6, 3), (4, 4, 2), (5, 1, 1), (3, 2, 0)],
        ids=["within", "stops-at-pinned", "stops-at-clean", "single", "pinned-first"],
    )
    def test_run_matches_page_by_page(self, content_sharing, first, count, written):
        run_space, reference = self.spaces(content_sharing)
        with fresh_tags_from(100):
            assert run_space.write_run(first, count) == written
        with fresh_tags_from(100):
            self.page_by_page(reference, first, written)
        assert self.state(run_space) == self.state(reference)
        for space in (run_space, reference):
            space.memory.check_frame_invariant()
            if space.memory.sharing is not None:
                space.memory.sharing.audit()

    def test_rewrite_recycles_frames_without_allocating(self, memory, image):
        a = GuestAddressSpace(image)
        a.write_run(0, 4)
        allocated, faults = memory.allocated_frames, a.cow_faults
        before = [a.read(page) for page in range(4)]
        assert a.write_run(0, 4) == 4
        after = [a.read(page) for page in range(4)]
        assert all(new > old for old, new in zip(before, after))
        assert (memory.allocated_frames, a.cow_faults) == (allocated, faults)
        assert memory.sharing.frames_recycled == 4
        assert memory.sharing.unique_frames == 4
        memory.sharing.audit()

    def test_rewrite_needs_no_free_frame(self):
        memory = MachineMemory(10 * PAGE_SIZE)
        space = GuestAddressSpace(ReferenceImage(memory, page_count=6))
        assert space.write_run(0, 4) == 4  # the pool is now full
        assert memory.free_frames == 0
        assert space.write_run(0, 4) == 4
        assert space.write_run(4, 2) == 0  # a first-touch run cannot start
        assert memory.allocation_failures == 0


class TestTagNamespaces:
    """Fresh and pinned tags are disjoint ranges: a pinned write can
    never alias a fresh page's frame."""

    @pytest.mark.parametrize("sharing", [True, False])
    def test_pinned_write_of_a_fresh_range_tag_is_rejected(self, sharing):
        memory = MachineMemory(64 * (1 << 20), content_sharing=sharing)
        image = ReferenceImage(memory, page_count=64)
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        fresh = a.write(0)
        assert 0 < fresh < PINNED_TAG_BASE
        allocated = memory.allocated_frames
        # Before the ranges were disjoint, this write silently shared
        # a's frame although the two pages never held the same bytes.
        for tag in (fresh, 0, PINNED_TAG_BASE - 1, -1):
            with pytest.raises(ValueError):
                b.write(1, content=tag)
            with pytest.raises(ValueError):
                a.write(0, content=tag)
        assert not b.is_private(1)
        assert a.read(0) == fresh
        assert memory.allocated_frames == allocated
        assert b.cow_faults == 0
        memory.check_frame_invariant()
        b.write(1, content=PINNED_TAG_BASE)  # the lowest pinned tag is fine
        assert b.read(1) == PINNED_TAG_BASE

    def test_worm_body_tags_are_pinned(self):
        from repro.services.guest import _worm_page_content

        assert _worm_page_content("slammer", 0) >= PINNED_TAG_BASE
        assert _worm_page_content("codered", 7) >= PINNED_TAG_BASE


# ---------------------------------------------------------------------- #
# Hypothesis: the frame ledger under random interleavings
# ---------------------------------------------------------------------- #

PAGES = 16
MAX_SPACES = 6

# A small pool of repeatable pinned tags (collisions likely), per-op
# unique pinned tags, and fresh content (``None``). Fresh tags come from
# the same start in both worlds (``fresh_tags_from``), so sharing on/off
# see identical writes.
repeat_tags = st.integers(min_value=0, max_value=4).map(lambda k: 10**12 + k)


@st.composite
def op_sequences(draw):
    ops = []
    n = draw(st.integers(min_value=1, max_value=40))
    for index in range(n):
        kind = draw(st.sampled_from(["clone", "write", "write", "write", "run", "destroy"]))
        idx = draw(st.integers(min_value=0, max_value=MAX_SPACES - 1))
        if kind == "clone":
            ops.append(("clone",))
        elif kind == "destroy":
            ops.append(("destroy", idx))
        elif kind == "run":
            first = draw(st.integers(min_value=0, max_value=PAGES - 1))
            count = draw(st.integers(min_value=1, max_value=PAGES - first))
            ops.append(("run", idx, first, count))
        else:
            tag = draw(st.one_of(
                st.none(), st.just(10**13 + index), repeat_tags,
            ))
            ops.append((
                "write",
                idx,
                draw(st.integers(min_value=0, max_value=PAGES - 1)),
                tag,
            ))
    return ops


class _World:
    """One (memory, image, spaces) universe to replay an op sequence in.

    With ``page_by_page`` a fresh run is replayed as single writes, which
    is what ``write_run`` promises to be equivalent to: from a clean
    first page up to the first private page, from a fresh-content first
    page up to the first clean or pinned page (a rewrite run).
    ``last_run`` records how many pages it wrote.
    """

    def __init__(self, content_sharing: bool, page_by_page: bool = False) -> None:
        self.memory = MachineMemory(4 * (1 << 20), content_sharing=content_sharing)
        self.image = ReferenceImage(self.memory, page_count=PAGES)
        self.spaces = {}
        self.page_by_page = page_by_page
        self.last_run = None

    def apply(self, op) -> None:
        if op[0] == "clone":
            if len(self.spaces) < MAX_SPACES:
                key = len(self.spaces)
                while key in self.spaces:
                    key += 1
                self.spaces[key] = GuestAddressSpace(self.image)
        elif op[0] == "destroy":
            space = self.spaces.pop(op[1], None)
            if space is not None:
                space.destroy()
        elif op[0] == "run":
            _, idx, first, count = op
            space = self.spaces.get(idx)
            self.last_run = None
            if space is None:
                return
            if not self.page_by_page:
                self.last_run = space.write_run(first, count)
                return
            rewrite = space.is_private(first)
            written = 0
            for page in range(first, first + count):
                if space.is_private(page) != rewrite:
                    break
                if rewrite and space.read(page) >= PINNED_TAG_BASE:
                    break
                space.write(page)
                written += 1
            self.last_run = written
        else:
            _, idx, page, tag = op
            space = self.spaces.get(idx)
            if space is not None:
                space.write(page, content=tag)

    def check_ledger(self) -> None:
        self.memory.check_frame_invariant()
        overlay_refs = sum(s.private_pages for s in self.spaces.values())
        if self.memory.sharing is not None:
            self.memory.sharing.audit()
            assert self.memory.sharing.total_refs == overlay_refs
            distinct = len({
                tag
                for s in self.spaces.values()
                for _, tag in s.private_page_contents()
            })
            assert self.memory.private_frames == distinct
            assert self.memory.sharing_savings_frames == overlay_refs - distinct
        else:
            assert self.memory.private_frames == overlay_refs
        assert self.memory.allocated_frames == (
            self.memory.image_frames + self.memory.private_frames
        )

    def state(self):
        """Everything a run must leave exactly as the page-by-page loop."""
        memory, store = self.memory, self.memory.sharing
        return {
            "overlays": {
                key: dict(space.private_page_contents())
                for key, space in self.spaces.items()
            },
            "cow_faults": {key: space.cow_faults for key, space in self.spaces.items()},
            "reclaimable": {
                key: space.reclaimable_frames for key, space in self.spaces.items()
            },
            "frames": (memory.allocated_frames, memory.peak_allocated_frames),
            "store": None if store is None else (
                store.unique_frames, store.total_refs, store.shared_frames,
                store.attach_hits, store.frames_recycled,
            ),
        }

    def teardown(self) -> None:
        for space in self.spaces.values():
            space.destroy()
        self.spaces.clear()
        self.image.release()


@pytest.mark.slow
class TestFrameLedgerProperty:
    @given(op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_ledger_conserved_and_reads_identical(self, ops):
        shared_world = _World(content_sharing=True)
        private_world = _World(content_sharing=False, page_by_page=True)
        # Page-by-page twins of each: a run must leave every counter,
        # tag and frame exactly as its single writes would.
        shared_pages = _World(content_sharing=True, page_by_page=True)
        private_runs = _World(content_sharing=False)
        worlds = (shared_world, private_world, shared_pages, private_runs)
        for index, op in enumerate(ops):
            for world in worlds:
                # Each op draws its fresh tags from its own block, the
                # same block in every world.
                with fresh_tags_from(1 + index * (PAGES + 1)):
                    world.apply(op)
                world.check_ledger()
            assert len({world.last_run for world in worlds}) == 1
            assert shared_world.state() == shared_pages.state()
            assert private_runs.state() == private_world.state()
            # Sharing never changes what guests observe. (The two worlds'
            # *images* carry different base version tags — they were
            # snapshotted separately — so compare dirtied state: the same
            # pages must be private with the same contents, and clean
            # pages must read through to the image in both.)
            assert set(shared_world.spaces) == set(private_world.spaces)
            for key, space in shared_world.spaces.items():
                other = private_world.spaces[key]
                assert space.cow_faults == other.cow_faults
                for page in range(PAGES):
                    assert space.is_private(page) == other.is_private(page)
                    if space.is_private(page):
                        assert space.read(page) == other.read(page)
                    else:
                        assert space.read(page) == shared_world.image.content_of(page)
                        assert other.read(page) == private_world.image.content_of(page)
            # ... and never costs frames relative to the ablation.
            assert (
                shared_world.memory.allocated_frames
                <= private_world.memory.allocated_frames
            )
        for world in worlds:
            world.teardown()
        assert shared_world.memory.allocated_frames == 0
        assert private_world.memory.allocated_frames == 0
        shared_world.memory.check_frame_invariant()


# ---------------------------------------------------------------------- #
# Farm-level ablation: same behaviour, later pressure
# ---------------------------------------------------------------------- #

def _worm_storm(content_sharing: bool, host_memory_bytes: int) -> Honeyfarm:
    """A fixed-seed slammer storm over a /26 on one host."""
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/26",), num_hosts=1,
        host_memory_bytes=host_memory_bytes,
        vm_image_bytes=16 * (1 << 20),
        containment="drop-all", clone_jitter=0.0, seed=9,
        memory_pressure_threshold=0.9,
        idle_timeout_seconds=600.0,
        sweep_interval_seconds=1.0,
        content_sharing=content_sharing,
    ))
    for i in range(40):
        farm.inject(udp_packet(
            ATTACKER, IPAddress.parse(f"10.16.0.{i + 1}"), 1, 1434,
            payload="exploit:slammer",
        ))
    farm.run(until=10.0)
    return farm


def _pressure_events(farm: Honeyfarm) -> int:
    return sum(
        getattr(policy, "pressure_events", 0)
        for policy in farm.reclamation.policies
    )


@pytest.mark.slow
class TestSharingAblation:
    # Roomy: 256 MiB for a 16 MiB image and ~40 small victims.
    ROOMY = 256 * (1 << 20)
    # Tight: sized between the two modes' measured demand — the storm
    # peaks at ~12,080 frames with sharing on and ~14,576 with it off
    # (image included), so a 13,696-frame host with a 0.9 threshold
    # pressures only the sharing-off run.
    TIGHT = 13696 * PAGE_SIZE

    def test_identical_guest_visible_behaviour_when_unconstrained(self):
        on = _worm_storm(True, self.ROOMY)
        off = _worm_storm(False, self.ROOMY)
        assert [
            (r.worm_name, str(r.victim), r.time, r.generation)
            for r in on.infections
        ] == [
            (r.worm_name, str(r.victim), r.time, r.generation)
            for r in off.infections
        ]
        assert on.metrics.counters() == off.metrics.counters()
        # Same logical footprints, fewer physical frames.
        assert (
            on.hosts[0].total_private_pages()
            == off.hosts[0].total_private_pages()
        )
        savings = on.hosts[0].memory.sharing_savings_frames
        assert savings > 0
        assert (
            on.hosts[0].memory.allocated_frames
            == off.hosts[0].memory.allocated_frames - savings
        )
        assert (
            on.hosts[0].memory.peak_allocated_frames
            < off.hosts[0].memory.peak_allocated_frames
        )

    def test_both_modes_are_deterministic(self):
        for sharing in (True, False):
            first = _worm_storm(sharing, self.TIGHT)
            second = _worm_storm(sharing, self.TIGHT)
            assert first.metrics.counters() == second.metrics.counters()
            assert [str(r.victim) for r in first.infections] == [
                str(r.victim) for r in second.infections
            ]
            assert (
                first.hosts[0].memory.peak_allocated_frames
                == second.hosts[0].memory.peak_allocated_frames
            )

    def test_sharing_defers_memory_pressure(self):
        on = _worm_storm(True, self.TIGHT)
        off = _worm_storm(False, self.TIGHT)
        assert _pressure_events(off) > 0  # the scenario does exert pressure
        assert _pressure_events(on) < _pressure_events(off)
        assert (
            on.hosts[0].memory.peak_allocated_frames
            < off.hosts[0].memory.peak_allocated_frames
        )
        on_evictions = on.metrics.counters().get("farm.pressure_evictions", 0) + \
            on.metrics.counters().get("farm.sweep_reclaims", 0)
        off_evictions = off.metrics.counters().get("farm.pressure_evictions", 0) + \
            off.metrics.counters().get("farm.sweep_reclaims", 0)
        assert on_evictions <= off_evictions
        on.hosts[0].memory.check_frame_invariant()


# ---------------------------------------------------------------------- #
# Guest-level parity: a page run that hits OOM part-way
# ---------------------------------------------------------------------- #

IMAGE_PAGES = 64
FILLER_PAGES = 8
FREE_AT_START = 5


def _dirty_page_by_page(guest, count):
    """The reference: the guest's page-by-page dirtying loop."""
    total = guest.vm.address_space.page_count
    for __ in range(count):
        page = guest._page_cursor % total
        guest._page_cursor += 1
        if not guest._write_page(page):
            return


def _dirty_connection_page_by_page(guest, count):
    """The reference: the guest's page-by-page connection-region loop."""
    cap = guest.personality.connection_working_set_cap_pages
    total = guest.vm.address_space.page_count
    if guest._conn_region_start is None:
        guest._conn_region_start = guest._page_cursor % total
        guest._page_cursor += cap
    for __ in range(count):
        page = (guest._conn_region_start + guest._conn_cursor % cap) % total
        guest._conn_cursor += 1
        if not guest._write_page(page):
            return


def _oom_world(content_sharing, handler, pre_private, pinned=(), personality=None):
    """A guest whose pool has FREE_AT_START frames left; another space
    holds FILLER_PAGES frames that a pressure handler can reclaim."""
    memory = MachineMemory(
        (IMAGE_PAGES + FILLER_PAGES + FREE_AT_START + len(pre_private) + len(pinned))
        * PAGE_SIZE,
        content_sharing=content_sharing,
    )
    snapshot = ReferenceSnapshot(memory, image_bytes=IMAGE_PAGES * PAGE_SIZE, disk_blocks=64)
    filler = GuestAddressSpace(snapshot.image)
    filler.write_run(0, FILLER_PAGES)
    vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), ATTACKER, 0.0)
    vm.start(now=0.0)
    for page in pre_private:
        vm.address_space.write(page)
    for page in pinned:
        vm.address_space.write(page, content=TAG_A)
    handler_calls = []

    def on_oom():
        handler_calls.append(memory.allocated_frames)
        if handler == "reclaim" and not filler.destroyed:
            filler.destroy()
            return True
        return False

    registry = default_registry()
    guest = GuestHost(
        vm=vm,
        personality=personality or registry.get("windows-default"),
        catalog=registry.catalog,
        sim=Simulator(),
        rng=RandomStream(1),
        on_oom=None if handler == "none" else on_oom,
    )
    return guest, memory, handler_calls


def _guest_state(guest, memory, handler_calls):
    space = guest.vm.address_space
    return {
        "overlay": dict(space.private_page_contents()),
        "cursor": guest._page_cursor,
        "conn_cursor": guest._conn_cursor,
        "recycled": None if memory.sharing is None else memory.sharing.frames_recycled,
        "dropped": guest.dropped_page_writes,
        "allocation_failures": memory.allocation_failures,
        "cow_faults": space.cow_faults,
        "peak": memory.peak_allocated_frames,
        "allocated": memory.allocated_frames,
        "handler_calls": handler_calls,
    }


class TestRunOomParity:
    @pytest.mark.parametrize("content_sharing", [True, False])
    @pytest.mark.parametrize("handler", ["reclaim", "refuse", "none"])
    @pytest.mark.parametrize("pre_private", [(), (2, 9)], ids=["clean", "pre-private"])
    @pytest.mark.parametrize("count", [20, IMAGE_PAGES + 6], ids=["short", "wraps"])
    def test_run_matches_page_by_page(self, content_sharing, handler, pre_private, count):
        states = []
        for dirty in (GuestHost._dirty_pages, _dirty_page_by_page):
            with fresh_tags_from(1):
                guest, memory, calls = _oom_world(content_sharing, handler, pre_private)
                dirty(guest, count)
            states.append(_guest_state(guest, memory, calls))
            memory.check_frame_invariant()
            if memory.sharing is not None:
                memory.sharing.audit()
        run_state, reference = states
        assert run_state == reference
        # The scenario does hit OOM part-way (at page FREE_AT_START).
        assert reference["allocation_failures"] >= 1
        assert reference["handler_calls"] or handler == "none"
        # Exactly one write is dropped: with "reclaim" the second OOM
        # finds nothing left to reclaim.
        assert reference["dropped"] == 1
        reclaimed = FILLER_PAGES if handler == "reclaim" else 0
        assert len(reference["overlay"]) == FREE_AT_START + reclaimed + len(pre_private)

    CAP = 12

    @pytest.mark.parametrize("content_sharing", [True, False])
    @pytest.mark.parametrize("handler", ["reclaim", "refuse", "none"])
    @pytest.mark.parametrize(
        "pre_private, pinned",
        # Offset CAP is the first page past the region: private, so a
        # run that failed to stop at the region's end would rewrite it.
        [((), ()), ((2, 9, CAP), (5,))],
        ids=["clean", "pre-private-and-pinned"],
    )
    @pytest.mark.parametrize(
        "region_start", [0, IMAGE_PAGES - 5], ids=["inside", "wraps-space"]
    )
    def test_connection_run_matches_page_by_page(
        self, content_sharing, handler, pre_private, pinned, region_start
    ):
        """Connection pages cycle within their region: first-touch runs,
        then rewrite runs, each split where the region or the address
        space wraps and at the pinned page."""
        personality = dataclasses.replace(
            default_registry().get("windows-default"),
            connection_working_set_cap_pages=self.CAP,
        )
        region = [(region_start + offset) % IMAGE_PAGES for offset in range(self.CAP + 1)]
        states = []
        for dirty in (GuestHost._dirty_connection_pages, _dirty_connection_page_by_page):
            with fresh_tags_from(1):
                guest, memory, calls = _oom_world(
                    content_sharing, handler,
                    [region[i] for i in pre_private], [region[i] for i in pinned],
                    personality,
                )
                guest._page_cursor = region_start
                # Connections of six pages (a refused write ends one, so
                # it takes several to pass the pages OOM dropped), then
                # enough to wrap the region twice.
                for count in (6,) * 8 + (2 * self.CAP + 3,):
                    dirty(guest, count)
            states.append(_guest_state(guest, memory, calls))
            memory.check_frame_invariant()
            if memory.sharing is not None:
                memory.sharing.audit()
        run_state, reference = states
        assert run_state == reference
        assert reference["allocation_failures"] >= 1  # OOM part-way
        assert reference["conn_cursor"] > self.CAP  # the region wrapped
