"""Page-granular memory with copy-on-write and content-based sharing.

This module is the mechanism behind the paper's key memory result: a
flash-cloned VM initially shares *every* page with its reference image and
pays physical memory only for pages it subsequently dirties, so hundreds
of honeypot VMs fit in the RAM that would conventionally hold a handful.

Representation
--------------
A clone's address space is a **base + overlay**:

* the *base* is an immutable :class:`ReferenceImage` whose frames were
  allocated once, when the reference snapshot was taken;
* the *overlay* is a per-VM dict mapping page number → content tag,
  populated on first write to each page (the CoW fault).

This makes clone creation O(1) in pages — exactly the property that makes
flash cloning fast in the real system, where only page tables are touched.
Frame *contents* are modelled as integer version tags: the experiments
depend on which pages are private, not on their bytes, but tags let tests
verify CoW isolation (writer sees its own value, sharers still see the
original).

Content-based sharing
---------------------
Delta virtualization collapses pages that were *never modified*. The
paper names the next multiplier — collapsing pages whose contents happen
to be identical even though they were written independently (ESX-style
transparent page sharing; Waldspurger, OSDI 2002). In a honeyfarm that
redundancy is enormous: every victim of the same worm carries the same
worm body.

When sharing is enabled (the default; ``content_sharing=False`` is the
ablation), each :class:`MachineMemory` owns a :class:`SharedFrameStore`
— a content tag → refcounted frame table. A dirty write of *pinned*
content interns its tag: the first writer of a tag pays one physical
frame, every later writer of the same tag (any VM on the host) shares it
at zero frame cost, and the frame returns to the pool only when its last
reference is rewritten or destroyed. Every operation is O(1), so the
host's physical usage

    resident = image frames + distinct private contents

stays an exact, cheaply-queryable quantity rather than a scanner result.

Fresh and pinned content
------------------------
Tags live in two disjoint ranges. *Fresh* tags (``write(page)``) come
from a global counter that starts at 1 and stays below
:data:`PINNED_TAG_BASE`; a fresh tag is globally unique, so its frame can
never be shared. *Pinned* tags (``write(page, content=tag)``) must be at
least :data:`PINNED_TAG_BASE`; equal pinned tags mean equal bytes. The
store therefore keeps table entries only for pinned content and counts
fresh-content frames in a plain ``unique_frames`` tally, and a run of
fresh first-touch pages (:meth:`GuestAddressSpace.write_run`) costs one
allocation and one overlay update however long it is; a run rewriting
fresh pages recycles their frames and allocates nothing.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Set, Tuple

__all__ = [
    "PAGE_SIZE",
    "PINNED_TAG_BASE",
    "OutOfMemoryError",
    "MachineMemory",
    "SharedFrameStore",
    "ReferenceImage",
    "GuestAddressSpace",
]

PAGE_SIZE = 4096
"""Bytes per page; delta virtualization operates at this granularity."""

PINNED_TAG_BASE = 1 << 39
"""Smallest pinned content tag. Fresh tags count up from 1 and stay below
it (5.5e11 fresh pages is beyond any simulation), so a pinned tag can
never name a fresh page's bytes."""

_content_versions = itertools.count(1)


class OutOfMemoryError(Exception):
    """Raised when a host's physical frame pool is exhausted.

    The reclamation layer treats this as the signal to evict idle VMs
    (memory pressure is one of the paper's reclamation triggers).
    """


class _SharedEntry:
    """One physical frame of pinned content in the shared store: its
    reference count and, per holding address space, how many of that
    space's pages map it."""

    __slots__ = ("refs", "holders")

    def __init__(self) -> None:
        self.refs = 0
        self.holders: Dict["GuestAddressSpace", int] = {}


class SharedFrameStore:
    """Content tag → refcounted physical frame (transparent page sharing).

    One store per :class:`MachineMemory`; every private frame on the host
    is accounted here. Pinned content (tags at or above
    :data:`PINNED_TAG_BASE`) lives in the entry table: interning a tag
    either allocates a frame (first sight of that content) or bumps the
    refcount of the existing frame (a *hit* — the sharing win), and
    releasing drops the refcount and frees the frame when it reaches
    zero. Fresh content can never be shared, so its frames get no entry:
    they are counted in ``unique_frames``, each one reference held by
    exactly one page.

    Invariants (checked by :meth:`audit` and the hypothesis ledger test):

    * ``total_refs`` == Σ over live address spaces of their overlay size
      == Σ entry refs + ``unique_frames``;
    * ``distinct_frames`` == entries + ``unique_frames`` == physical
      frames the store holds == the owning memory's ``private_frames``;
    * ``shared_frames`` == entries with ``refs >= 2``;
    * ``savings_frames`` == ``total_refs - distinct_frames`` — frames a
      sharing-off host would additionally need for the same contents.

    Every mutation also maintains each holder's ``_exclusive_frames``
    (frames only that space references, unique frames included), which
    is what makes reclamation projection O(1): destroying a VM returns
    exactly its exclusive frames, because shared frames outlive it.
    """

    def __init__(self, memory: "MachineMemory") -> None:
        self.memory = memory
        self._entries: Dict[int, _SharedEntry] = {}
        self._spaces: Set["GuestAddressSpace"] = set()  # live spaces, for audit
        self.unique_frames = 0     # fresh-content frames: one page each, no entry
        self.total_refs = 0
        self.shared_frames = 0     # entries currently referenced >= 2 times
        self.attach_hits = 0       # interns that matched an existing frame
        self.frames_recycled = 0   # sole-owner rewrites that reused the frame

    # ------------------------------------------------------------------ #
    # Accounting views
    # ------------------------------------------------------------------ #

    @property
    def distinct_frames(self) -> int:
        """Physical frames currently backing the store."""
        return len(self._entries) + self.unique_frames

    @property
    def savings_frames(self) -> int:
        """Frames avoided versus a no-sharing host with the same contents."""
        return self.total_refs - self.distinct_frames

    def refs_of(self, tag: int) -> int:
        """Current reference count of pinned ``tag`` (0 if not resident)."""
        entry = self._entries.get(tag)
        return entry.refs if entry is not None else 0

    # ------------------------------------------------------------------ #
    # Mutation — O(1) per page; a run of fresh pages is one allocation
    # ------------------------------------------------------------------ #

    def add_unique(self, space: "GuestAddressSpace", frames: int) -> None:
        """Back ``frames`` fresh-content pages of ``space`` with frames of
        their own, in one allocation.

        Raises :class:`OutOfMemoryError` (with no state change) when the
        pool cannot hold them all.
        """
        self.memory._allocate_private(frames)  # may raise; nothing mutated yet
        self.unique_frames += frames
        self.total_refs += frames
        space._exclusive_frames += frames

    def drop_unique(self, space: "GuestAddressSpace", frames: int) -> None:
        """Free ``frames`` of ``space``'s fresh-content frames."""
        self.memory._free_private(frames)
        self.unique_frames -= frames
        self.total_refs -= frames
        space._exclusive_frames -= frames

    def intern(self, space: "GuestAddressSpace", tag: int) -> None:
        """Map one page of ``space`` to the frame holding pinned ``tag``,
        allocating the frame if this content is new to the host.

        Raises :class:`OutOfMemoryError` (with no state change) when a
        fresh frame is needed and the pool is exhausted.
        """
        entry = self._entries.get(tag)
        if entry is None:
            self.memory._allocate_private(1)  # may raise; nothing mutated yet
            entry = _SharedEntry()
            self._entries[tag] = entry
            space._exclusive_frames += 1
        else:
            self.attach_hits += 1
            holders = entry.holders
            if len(holders) == 1 and space not in holders:
                # The sole current holder is gaining a co-sharer.
                next(iter(holders))._exclusive_frames -= 1
            if entry.refs == 1:
                self.shared_frames += 1
        entry.refs += 1
        entry.holders[space] = entry.holders.get(space, 0) + 1
        self.total_refs += 1

    def release(self, space: "GuestAddressSpace", tag: int) -> None:
        """Drop one of ``space``'s references to pinned ``tag``, freeing
        the frame when the last reference anywhere goes."""
        entry = self._entries[tag]
        holders = entry.holders
        count = holders[space]
        entry.refs -= 1
        self.total_refs -= 1
        if entry.refs == 1:
            self.shared_frames -= 1
        if count == 1:
            del holders[space]
            if not holders:
                del self._entries[tag]
                self.memory._free_private(1)
                space._exclusive_frames -= 1
            elif len(holders) == 1:
                # Down to one surviving holder: it owns the frame now.
                next(iter(holders))._exclusive_frames += 1
        else:
            holders[space] = count - 1

    def exchange(self, space: "GuestAddressSpace", old_tag: int, new_tag: int) -> None:
        """Rewrite one of ``space``'s pages from ``old_tag`` to
        ``new_tag`` without ever dropping the old mapping on failure.

        The common case — a sole owner dirtying to content nobody else
        holds — reuses the existing frame in place: no allocator
        round-trip and no transient over-allocation. A fresh-content
        frame always has a sole owner. Otherwise the new content is
        mapped *first* (so an OOM leaves the page intact) and the old
        reference released after.
        """
        if old_tag == new_tag:
            return
        entries = self._entries
        old_unique = old_tag < PINNED_TAG_BASE
        new_unique = new_tag < PINNED_TAG_BASE
        sole_owner = old_unique or entries[old_tag].refs == 1
        if sole_owner and (new_unique or new_tag not in entries):
            # Recycle the frame in place; only pinned content has an
            # entry to carry over.
            entry = None if old_unique else entries.pop(old_tag)
            if not new_unique:
                if entry is None:
                    entry = _SharedEntry()
                    entry.refs = 1
                    entry.holders[space] = 1
                entries[new_tag] = entry
            self.unique_frames += new_unique - old_unique
            self.frames_recycled += 1
            return
        # Map the new content first: may raise, old mapping still intact.
        if new_unique:
            self.add_unique(space, 1)
        else:
            self.intern(space, new_tag)
        if old_unique:
            self.drop_unique(space, 1)
        else:
            self.release(space, old_tag)

    # ------------------------------------------------------------------ #
    # Verification (tests and the sweep's ledger check)
    # ------------------------------------------------------------------ #

    def audit(self) -> None:
        """Recount every counter from the raw entries and the live
        spaces' overlays; raise :class:`AssertionError` on any drift.
        O(entries + pages) — for tests and debugging, not the hot path."""
        exclusive: Dict["GuestAddressSpace", int] = {
            space: sum(1 for tag in space._overlay.values() if tag < PINNED_TAG_BASE)
            for space in self._spaces
        }
        unique = sum(exclusive.values())
        if unique != self.unique_frames:
            raise AssertionError(
                f"shared store drift: unique_frames={self.unique_frames}, recount {unique}"
            )
        refs = sum(e.refs for e in self._entries.values())
        if refs + unique != self.total_refs:
            raise AssertionError(
                f"shared store drift: total_refs={self.total_refs} but entries"
                f" sum to {refs} plus {unique} unique frames"
            )
        shared = sum(1 for e in self._entries.values() if e.refs >= 2)
        if shared != self.shared_frames:
            raise AssertionError(
                f"shared store drift: shared_frames={self.shared_frames}, recount {shared}"
            )
        for tag, entry in self._entries.items():
            if tag < PINNED_TAG_BASE:
                raise AssertionError(f"entry {tag}: fresh-range tag in the entry table")
            if entry.refs != sum(entry.holders.values()):
                raise AssertionError(f"entry {tag}: refs disagree with holder multiset")
            if entry.refs <= 0:
                raise AssertionError(f"entry {tag}: resident with refs={entry.refs}")
            if len(entry.holders) == 1:
                holder = next(iter(entry.holders))
                exclusive[holder] = exclusive.get(holder, 0) + 1
        for space, expect in exclusive.items():
            if space._exclusive_frames != expect:
                raise AssertionError(
                    f"space {space!r}: _exclusive_frames={space._exclusive_frames},"
                    f" recount {expect}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SharedFrameStore frames={self.distinct_frames}"
            f" unique={self.unique_frames} refs={self.total_refs}"
            f" shared={self.shared_frames} saved={self.savings_frames}>"
        )


class MachineMemory:
    """A host's pool of physical page frames.

    Tracks allocation against a hard capacity; the honeyfarm's
    VMs-per-host results come directly from this accounting. The pool is
    split into invariant-checked sub-ledgers — ``image_frames`` (frozen
    reference images) and ``private_frames`` (VM overlays, deduplicated
    by the :class:`SharedFrameStore` when ``content_sharing`` is on).
    """

    def __init__(self, capacity_bytes: int, content_sharing: bool = True) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes!r}")
        self.capacity_frames = capacity_bytes // PAGE_SIZE
        self.allocated_frames = 0
        self.peak_allocated_frames = 0
        self.allocation_failures = 0
        self.image_frames = 0
        self.private_frames = 0
        self.content_sharing = bool(content_sharing)
        self.sharing: Optional[SharedFrameStore] = (
            SharedFrameStore(self) if content_sharing else None
        )

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_frames * PAGE_SIZE

    @property
    def allocated_bytes(self) -> int:
        return self.allocated_frames * PAGE_SIZE

    @property
    def free_frames(self) -> int:
        return self.capacity_frames - self.allocated_frames

    @property
    def shared_frames(self) -> int:
        """Frames currently mapped by two or more page references."""
        return self.sharing.shared_frames if self.sharing is not None else 0

    @property
    def sharing_savings_frames(self) -> int:
        """Frames content sharing is saving right now (0 when disabled)."""
        return self.sharing.savings_frames if self.sharing is not None else 0

    def allocate(self, frames: int) -> None:
        """Claim ``frames`` physical frames or raise :class:`OutOfMemoryError`."""
        if frames < 0:
            raise ValueError(f"cannot allocate a negative frame count: {frames!r}")
        if self.allocated_frames + frames > self.capacity_frames:
            self.allocation_failures += 1
            raise OutOfMemoryError(
                f"requested {frames} frames, only {self.free_frames} free"
                f" of {self.capacity_frames}"
            )
        self.allocated_frames += frames
        if self.allocated_frames > self.peak_allocated_frames:
            self.peak_allocated_frames = self.allocated_frames

    def free(self, frames: int) -> None:
        """Return ``frames`` physical frames to the pool."""
        if frames < 0:
            raise ValueError(f"cannot free a negative frame count: {frames!r}")
        if frames > self.allocated_frames:
            raise ValueError(
                f"freeing {frames} frames but only {self.allocated_frames} allocated"
            )
        self.allocated_frames -= frames

    def can_fit(self, frames: int) -> bool:
        return self.allocated_frames + frames <= self.capacity_frames

    # ------------------------------------------------------------------ #
    # Sub-ledgers (image vs private); all frames flow through these so
    # the frame invariant below stays exact.
    # ------------------------------------------------------------------ #

    def _allocate_image(self, frames: int) -> None:
        self.allocate(frames)
        self.image_frames += frames

    def _free_image(self, frames: int) -> None:
        self.free(frames)
        self.image_frames -= frames

    def _allocate_private(self, frames: int) -> None:
        self.allocate(frames)
        self.private_frames += frames

    def _free_private(self, frames: int) -> None:
        self.free(frames)
        self.private_frames -= frames

    def check_frame_invariant(self) -> None:
        """Assert the frame ledger balances; O(1).

        ``allocated == image + private`` always, and with sharing on the
        private ledger must equal the store's distinct frame count (every
        private frame is owned by exactly one store entry).
        """
        if self.image_frames + self.private_frames != self.allocated_frames:
            raise AssertionError(
                f"frame ledger drift: image={self.image_frames}"
                f" + private={self.private_frames}"
                f" != allocated={self.allocated_frames}"
            )
        if self.sharing is not None and self.sharing.distinct_frames != self.private_frames:
            raise AssertionError(
                f"frame ledger drift: store holds {self.sharing.distinct_frames}"
                f" frames but private ledger says {self.private_frames}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MachineMemory {self.allocated_frames}/{self.capacity_frames} frames"
            f" ({self.allocated_bytes // (1 << 20)} MiB used)"
            f" sharing={'on' if self.sharing is not None else 'off'}>"
        )


class ReferenceImage:
    """The frozen memory image of a booted reference VM.

    Allocated once on a host; every clone's base layer. ``sharers`` counts
    attached address spaces so the image cannot be released while clones
    still depend on it.
    """

    def __init__(self, memory: MachineMemory, page_count: int, name: str = "reference") -> None:
        if page_count <= 0:
            raise ValueError(f"page_count must be positive: {page_count!r}")
        memory._allocate_image(page_count)
        self.memory = memory
        self.page_count = page_count
        self.name = name
        self.sharers = 0
        self.released = False
        # Base contents: version tag per page, fixed at snapshot time.
        base_version = next(_content_versions)
        self._contents: Dict[int, int] = {}
        self._default_version = base_version

    def content_of(self, page: int) -> int:
        """Version tag of ``page`` in the frozen image."""
        self._check_page(page)
        return self._contents.get(page, self._default_version)

    def stamp_page(self, page: int) -> None:
        """Give ``page`` a distinct content tag (used when building a
        snapshot whose pages must be distinguishable in tests)."""
        self._check_page(page)
        if self.released:
            raise ValueError("cannot modify a released reference image")
        self._contents[page] = next(_content_versions)

    def _check_page(self, page: int) -> None:
        if not (0 <= page < self.page_count):
            raise IndexError(f"page {page} outside image of {self.page_count} pages")

    def attach(self) -> None:
        if self.released:
            raise ValueError("cannot attach to a released reference image")
        self.sharers += 1

    def detach(self) -> None:
        if self.sharers <= 0:
            raise ValueError("detach without matching attach")
        self.sharers -= 1

    def release(self) -> None:
        """Free the image's frames; only legal once no clones remain."""
        if self.released:
            return
        if self.sharers > 0:
            raise ValueError(f"cannot release image with {self.sharers} sharers")
        self.memory._free_image(self.page_count)
        self.released = True

    @property
    def bytes(self) -> int:
        return self.page_count * PAGE_SIZE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReferenceImage {self.name!r} pages={self.page_count}"
            f" sharers={self.sharers}>"
        )


class GuestAddressSpace:
    """A VM's memory: a reference image plus a private CoW overlay.

    Two construction modes mirror the system under test and its ablation:

    * ``GuestAddressSpace(image)`` — **delta virtualization**: O(1)
      creation, zero initial private frames.
    * ``GuestAddressSpace(image, eager_copy=True)`` — the **full-copy
      baseline**: every page is copied (and charged) up front, as a
      conventional clone would.

    When the host memory has content sharing enabled, the frames behind
    the overlay are accounted in its :class:`SharedFrameStore`, so
    identical pinned contents across (or within) VMs cost one frame.
    """

    def __init__(self, image: ReferenceImage, eager_copy: bool = False) -> None:
        image.attach()
        self.image = image
        self.memory = image.memory
        self._store = self.memory.sharing
        self.eager_copy = eager_copy
        self._overlay: Dict[int, int] = {}
        self.cow_faults = 0
        # Frames only this space references; maintained by the store
        # (unused when sharing is off: every overlay page is then exclusive).
        self._exclusive_frames = 0
        self.destroyed = False
        if eager_copy:
            # The whole image as one fresh run: charged in a single
            # allocation, so an OOM leaves nothing to roll back.
            pages = image.page_count
            try:
                self._add_unshared_frames(pages)
            except OutOfMemoryError:
                image.detach()
                raise
            self._overlay.update(zip(range(pages), itertools.islice(_content_versions, pages)))
        if self._store is not None:
            self._store._spaces.add(self)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    @property
    def page_count(self) -> int:
        return self.image.page_count

    def read(self, page: int) -> int:
        """Content tag visible at ``page`` (overlay wins over base)."""
        self._check_alive()
        self.image._check_page(page)
        if page in self._overlay:
            return self._overlay[page]
        return self.image.content_of(page)

    def write(self, page: int, content: Optional[int] = None) -> int:
        """Dirty ``page``, taking a CoW fault on the first write; returns
        the new content tag.

        ``content`` pins the page's content tag: two pages (in any VMs)
        written with the same tag hold identical bytes. Malware bodies
        use this — the same worm writes the same code everywhere — which
        is exactly what the shared-frame store collapses: with sharing
        on, only the first write of a tag on the host pays a frame.
        Pinned tags must be at least :data:`PINNED_TAG_BASE`
        (:class:`ValueError` otherwise). ``None`` means freshly
        generated, globally unique content.
        """
        self._check_alive()
        self.image._check_page(page)
        if content is None:
            tag = next(_content_versions)
        elif content >= PINNED_TAG_BASE:
            tag = content
        else:
            raise ValueError(
                f"pinned content tag {content!r} is below PINNED_TAG_BASE"
                f" ({PINNED_TAG_BASE}), the range of fresh tags"
            )
        store = self._store
        old = self._overlay.get(page)
        if old is not None:
            if store is not None:
                store.exchange(self, old, tag)
        else:
            if content is None or store is None:
                self._add_unshared_frames(1)
            else:
                store.intern(self, tag)
            self.cow_faults += 1
        self._overlay[page] = tag
        return tag

    def write_run(self, first: int, count: int) -> int:
        """Dirty pages ``first .. first+count-1`` with fresh content, in
        order, and return how many leading pages were written.

        The written pages end up exactly as ``write(page)`` one by one
        would leave them (same tags, faults, frames and recycling
        counts). The first page fixes what kind of run this is:

        * a **first-touch** run (``first`` is clean) takes one allocation
          for all its pages and stops at the first page that is already
          private or that the pool has no frame for;
        * a **rewrite** run (``first`` holds fresh content) keeps every
          page's frame, as a sole-owner rewrite does, and stops at the
          first page that is clean or holds pinned content.

        A run stops short without raising and, when it writes nothing,
        without touching the allocator: the caller writes the page it
        stopped at with :meth:`write`, which rewrites it or raises
        :class:`OutOfMemoryError` just as the page-by-page loop would.
        """
        self._check_alive()
        if count <= 0:
            return 0
        self.image._check_page(first)
        self.image._check_page(first + count - 1)
        overlay = self._overlay
        pages = range(first, first + count)
        if first not in overlay:
            if not overlay.keys().isdisjoint(pages):
                count = next(i for i, page in enumerate(pages) if page in overlay)
            count = min(count, self.memory.free_frames)
            if count > 0:
                self._add_unshared_frames(count)
                self.cow_faults += count
        else:
            tags = list(map(overlay.get, pages))
            if None in tags or max(tags) >= PINNED_TAG_BASE:
                count = next(
                    i for i, tag in enumerate(tags) if tag is None or tag >= PINNED_TAG_BASE
                )
            if self._store is not None:
                # Fresh over fresh: each page recycles its own frame.
                self._store.frames_recycled += count
        overlay.update(zip(pages, itertools.islice(_content_versions, count)))
        return count

    def _add_unshared_frames(self, frames: int) -> None:
        """Charge ``frames`` first-touch pages that share no frame (fresh
        content, or any content with sharing off) in one allocation;
        raises :class:`OutOfMemoryError` with nothing changed."""
        if self._store is not None:
            self._store.add_unique(self, frames)
        else:
            self.memory._allocate_private(frames)

    def private_page_contents(self) -> Iterator[Tuple[int, int]]:
        """Iterate (page number, content tag) over the private overlay."""
        return iter(self._overlay.items())

    def is_private(self, page: int) -> bool:
        """Whether ``page`` has been dirtied away from the image."""
        self.image._check_page(page)
        return page in self._overlay

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    @property
    def private_pages(self) -> int:
        """Pages dirtied away from the image (logical overlay size)."""
        return len(self._overlay)

    @property
    def shared_pages(self) -> int:
        return self.image.page_count - len(self._overlay)

    @property
    def private_bytes(self) -> int:
        return self.private_pages * PAGE_SIZE

    @property
    def reclaimable_frames(self) -> int:
        """Physical frames destroying this space returns to the pool.

        Under content sharing only *exclusively held* frames come back —
        frames shared with other spaces survive the teardown — so this,
        not :attr:`private_pages`, is what reclamation must project.
        """
        if self._store is not None:
            return self._exclusive_frames
        return len(self._overlay)

    def sharing_ratio(self) -> float:
        """Fraction of this VM's pages still shared with the image."""
        return self.shared_pages / self.image.page_count

    def private_page_numbers(self) -> Iterator[int]:
        return iter(self._overlay.keys())

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #

    def destroy(self) -> int:
        """Release all private references and detach from the image.

        Returns the number of physical frames freed (under sharing this
        can be less than the overlay size). Idempotent.
        """
        if self.destroyed:
            return 0
        store = self._store
        if store is not None:
            before = self.memory.allocated_frames
            pinned = [tag for tag in self._overlay.values() if tag >= PINNED_TAG_BASE]
            for tag in pinned:
                store.release(self, tag)
            store.drop_unique(self, len(self._overlay) - len(pinned))
            store._spaces.discard(self)
            freed = before - self.memory.allocated_frames
        else:
            freed = len(self._overlay)
            self.memory._free_private(freed)
        self._overlay.clear()
        self.image.detach()
        self.destroyed = True
        return freed

    def _check_alive(self) -> None:
        if self.destroyed:
            raise ValueError("address space has been destroyed")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<GuestAddressSpace private={self.private_pages}"
            f"/{self.image.page_count} pages>"
        )
