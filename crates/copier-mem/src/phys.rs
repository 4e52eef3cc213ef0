//! Simulated physical memory: a pool of 4 KiB frames with real backing data.
//!
//! Frames are identified by [`FrameId`]; two frames are *physically
//! contiguous* iff their ids are consecutive — the property the DMA engine
//! requires of its transfers (§4.3 of the paper). The allocator can hand out
//! deliberately scattered frames so that the dispatcher's subtask splitting
//! is exercised on realistic fragmented layouts.
//!
//! All frame data is real memory: copies through this module genuinely move
//! bytes, so correctness (not just timing) is testable end to end.
//!
//! ## Arena backing
//!
//! The pool's bytes live in one flat *arena* (`frames × 4 KiB`, allocated
//! zeroed once — the host OS commits its pages lazily on first touch), with
//! per-frame bookkeeping in a flat metadata table. Frame `f` occupies arena
//! bytes `[f·4096, (f+1)·4096)`, so a run of physically contiguous frames is
//! a single contiguous arena slice and the batched primitives
//! ([`PhysMem::copy_run`], [`PhysMem::read_run`], [`PhysMem::write_run`])
//! move a whole multi-page run with one borrow and one `memcpy`/`memmove`
//! instead of a cell borrow plus bounds dance per 4 KiB page. The per-page
//! path is kept as [`PhysMem::copy_run_paged`] — the baseline the
//! `fig_hostperf` bench compares against.
//!
//! Only host wall-clock changes: virtual-time costs are charged by callers
//! from byte counts, which the arena leaves untouched.

use std::cell::{Cell, RefCell};

/// Size of one page/frame in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Index of a physical frame. Consecutive ids are physically contiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

/// How the allocator picks frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Pop the lowest free frame — long allocations come out contiguous.
    Sequential,
    /// Hand out frames in a pre-shuffled order — allocations are fragmented,
    /// matching a long-running system (Fig. 7-b "all pages non-contiguous").
    Scattered,
}

/// Flat per-frame metadata; the data itself lives in the shared arena.
struct FrameMeta {
    /// CoW sharing count. 0 = free.
    refcnt: Cell<u16>,
    /// Pin count — a pinned frame's mapping must not be torn down (§4.5.4).
    pins: Cell<u16>,
    /// Whether the frame was ever allocated: its arena bytes may be dirty
    /// and must be re-zeroed on the next allocation (fresh frames read 0).
    touched: Cell<bool>,
}

/// Errors from the physical allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysError {
    /// The pool has too few free frames for the request.
    OutOfMemory,
    /// Enough frames are free, but no run of them is contiguous — a
    /// distinct cause (compaction would help, more memory would not).
    Fragmented,
}

/// A fixed-capacity pool of frames.
pub struct PhysMem {
    /// One allocation backing every frame's bytes.
    arena: RefCell<Box<[u8]>>,
    meta: Vec<FrameMeta>,
    free: RefCell<Vec<FrameId>>,
    policy: Cell<AllocPolicy>,
    allocated: Cell<usize>,
    /// Allocated-frame high watermark: at or above, the pool reports
    /// memory pressure (graceful-degradation signal).
    wmark_high: Cell<usize>,
    /// Low watermark: pressure clears only once allocation falls back to
    /// or below this (hysteresis, so the signal does not flap).
    wmark_low: Cell<usize>,
    /// Latched pressure state.
    pressured: Cell<bool>,
    /// Transitions into the pressured state.
    pressure_events: Cell<u64>,
}

impl PhysMem {
    /// Creates a pool of `frames` frames under the given policy.
    ///
    /// `Scattered` pre-shuffles the free list with a fixed multiplicative
    /// permutation so runs are reproducible.
    pub fn new(frames: usize, policy: AllocPolicy) -> Self {
        assert!(frames > 0 && frames < u32::MAX as usize);
        let meta = (0..frames)
            .map(|_| FrameMeta {
                refcnt: Cell::new(0),
                pins: Cell::new(0),
                touched: Cell::new(false),
            })
            .collect();
        let mut free: Vec<FrameId> = (0..frames as u32).map(FrameId).collect();
        if policy == AllocPolicy::Scattered {
            // Deterministic pseudo-shuffle: iterate with a stride coprime to
            // the frame count, which breaks up almost all contiguity.
            let n = frames as u64;
            let mut stride = (n / 2 + 1) | 1;
            while gcd(stride, n) != 1 {
                stride += 2;
            }
            free = (0..n).map(|i| FrameId(((i * stride) % n) as u32)).collect();
        }
        // Pop from the back; reverse so low ids come out first under Sequential.
        free.reverse();
        PhysMem {
            arena: RefCell::new(vec![0u8; frames * PAGE_SIZE].into_boxed_slice()),
            meta,
            free: RefCell::new(free),
            policy: Cell::new(policy),
            allocated: Cell::new(0),
            // Default watermarks: pressure at 7/8 of the pool, recovery at
            // 3/4 — headroom for pinned in-flight copies without flapping.
            wmark_high: Cell::new(frames - frames / 8),
            wmark_low: Cell::new((frames - frames / 4).min(frames.saturating_sub(1))),
            pressured: Cell::new(false),
            pressure_events: Cell::new(0),
        }
    }

    /// Total frames in the pool.
    pub fn capacity(&self) -> usize {
        self.meta.len()
    }

    /// Frames currently allocated.
    pub fn allocated(&self) -> usize {
        self.allocated.get()
    }

    /// Current allocation policy.
    pub fn policy(&self) -> AllocPolicy {
        self.policy.get()
    }

    /// Allocates one frame with refcount 1. Its contents are zeroed.
    pub fn alloc(&self) -> Result<FrameId, PhysError> {
        let f = self.free.borrow_mut().pop().ok_or(PhysError::OutOfMemory)?;
        let slot = &self.meta[f.0 as usize];
        debug_assert_eq!(slot.refcnt.get(), 0);
        slot.refcnt.set(1);
        // Fresh frames must read as zero; the arena starts zeroed, so only
        // previously used frames pay for re-zeroing.
        if slot.touched.replace(true) {
            let base = f.0 as usize * PAGE_SIZE;
            self.arena.borrow_mut()[base..base + PAGE_SIZE].fill(0);
        }
        self.allocated.set(self.allocated.get() + 1);
        Ok(f)
    }

    /// Allocates `n` physically contiguous frames (refcount 1 each).
    ///
    /// Used for kernel buffers (sk_buffs) and huge-page-like regions. This
    /// scans for a run of free ids, so it succeeds even under `Scattered`.
    pub fn alloc_contiguous(&self, n: usize) -> Result<FrameId, PhysError> {
        assert!(n > 0);
        if n == 1 {
            return self.alloc();
        }
        // Find the lowest run of n free frames.
        let mut run = 0usize;
        let mut start = 0usize;
        let mut found = None;
        for (i, s) in self.meta.iter().enumerate() {
            if s.refcnt.get() == 0 {
                if run == 0 {
                    start = i;
                }
                run += 1;
                if run == n {
                    found = Some(start);
                    break;
                }
            } else {
                run = 0;
            }
        }
        let start = found.ok_or_else(|| {
            if self.free.borrow().len() >= n {
                PhysError::Fragmented
            } else {
                PhysError::OutOfMemory
            }
        })?;
        // Remove the run's ids from the free list.
        self.free
            .borrow_mut()
            .retain(|f| (f.0 as usize) < start || (f.0 as usize) >= start + n);
        let mut arena = self.arena.borrow_mut();
        for i in start..start + n {
            let slot = &self.meta[i];
            slot.refcnt.set(1);
            if slot.touched.replace(true) {
                arena[i * PAGE_SIZE..(i + 1) * PAGE_SIZE].fill(0);
            }
        }
        self.allocated.set(self.allocated.get() + n);
        Ok(FrameId(start as u32))
    }

    /// Increments a frame's share count (CoW fork).
    pub fn incref(&self, f: FrameId) {
        let slot = &self.meta[f.0 as usize];
        assert!(slot.refcnt.get() > 0, "incref of free frame");
        slot.refcnt.set(slot.refcnt.get() + 1);
    }

    /// Decrements the share count, freeing the frame at zero.
    pub fn decref(&self, f: FrameId) {
        let slot = &self.meta[f.0 as usize];
        let rc = slot.refcnt.get();
        assert!(rc > 0, "decref of free frame {f:?}");
        slot.refcnt.set(rc - 1);
        if rc == 1 {
            assert_eq!(slot.pins.get(), 0, "freeing a pinned frame {f:?}");
            self.free.borrow_mut().push(f);
            self.allocated.set(self.allocated.get() - 1);
        }
    }

    /// Current share count of a frame.
    pub fn refcount(&self, f: FrameId) -> u16 {
        self.meta[f.0 as usize].refcnt.get()
    }

    /// Pins a frame (its mapping is locked for an in-flight copy).
    pub fn pin(&self, f: FrameId) {
        let slot = &self.meta[f.0 as usize];
        assert!(slot.refcnt.get() > 0, "pin of free frame");
        slot.pins.set(slot.pins.get() + 1);
    }

    /// Releases one pin.
    pub fn unpin(&self, f: FrameId) {
        let slot = &self.meta[f.0 as usize];
        let p = slot.pins.get();
        assert!(p > 0, "unpin without pin");
        slot.pins.set(p - 1);
    }

    /// Whether the frame is currently pinned.
    pub fn is_pinned(&self, f: FrameId) -> bool {
        self.meta[f.0 as usize].pins.get() > 0
    }

    /// Number of frames with a nonzero pin count (leak detection: after
    /// every in-flight copy settles this must return to zero).
    pub fn pinned_frames(&self) -> usize {
        self.meta.iter().filter(|s| s.pins.get() > 0).count()
    }

    /// Sets the pressure watermarks (allocated-frame counts). Pressure is
    /// raised at `high` and clears only at or below `low` (`low < high`).
    pub fn set_watermarks(&self, low: usize, high: usize) {
        assert!(low < high, "low watermark must sit below high");
        self.wmark_low.set(low);
        self.wmark_high.set(high.min(self.meta.len()));
        // Re-evaluate immediately so a tightened watermark takes effect
        // without waiting for the next allocation.
        self.pressure();
    }

    /// Current watermarks as `(low, high)` allocated-frame counts.
    pub fn watermarks(&self) -> (usize, usize) {
        (self.wmark_low.get(), self.wmark_high.get())
    }

    /// Whether the pool is under memory pressure, with hysteresis: raised
    /// when allocation reaches the high watermark, cleared only once it
    /// falls back to the low watermark. Consumers (the Copier service)
    /// poll this to switch into graceful degradation (§4.6 fallback).
    pub fn pressure(&self) -> bool {
        let a = self.allocated.get();
        if self.pressured.get() {
            if a <= self.wmark_low.get() {
                self.pressured.set(false);
            }
        } else if a >= self.wmark_high.get() {
            self.pressured.set(true);
            self.pressure_events.set(self.pressure_events.get() + 1);
        }
        self.pressured.get()
    }

    /// Times the pool transitioned into the pressured state.
    pub fn pressure_events(&self) -> u64 {
        self.pressure_events.get()
    }

    /// Asserts every frame spanned by `[f·4096 + off, … + len)` is
    /// allocated and the run stays inside the pool.
    fn check_run(&self, f: FrameId, off: usize, len: usize) {
        let first = f.0 as usize + off / PAGE_SIZE;
        let last = f.0 as usize + (off + len - 1) / PAGE_SIZE;
        assert!(last < self.meta.len(), "run past end of pool");
        for i in first..=last {
            assert!(self.meta[i].refcnt.get() > 0, "access to free frame {i}");
        }
    }

    /// Reads from a frame into `buf`.
    ///
    /// # Panics
    /// If the range exceeds the page or the frame is free.
    pub fn read(&self, f: FrameId, off: usize, buf: &mut [u8]) {
        assert!(off + buf.len() <= PAGE_SIZE);
        self.read_run(f, off, buf);
    }

    /// Writes `buf` into a frame.
    pub fn write(&self, f: FrameId, off: usize, buf: &[u8]) {
        assert!(off + buf.len() <= PAGE_SIZE);
        self.write_run(f, off, buf);
    }

    /// Reads a physically contiguous run (may span many frames) into
    /// `buf` with a single arena borrow and one `memcpy`.
    pub fn read_run(&self, f: FrameId, off: usize, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        self.check_run(f, off, buf.len());
        let base = f.0 as usize * PAGE_SIZE + off;
        buf.copy_from_slice(&self.arena.borrow()[base..base + buf.len()]);
    }

    /// Writes `buf` over a physically contiguous run (may span many
    /// frames) with a single arena borrow and one `memcpy`.
    pub fn write_run(&self, f: FrameId, off: usize, buf: &[u8]) {
        if buf.is_empty() {
            return;
        }
        self.check_run(f, off, buf.len());
        let base = f.0 as usize * PAGE_SIZE + off;
        self.arena.borrow_mut()[base..base + buf.len()].copy_from_slice(buf);
    }

    /// Copies bytes between frames — the real data movement behind every
    /// simulated copy.
    ///
    /// Handles the same-frame case (used by intra-page `memmove`) with
    /// `memmove` semantics.
    pub fn copy(&self, dst: FrameId, dst_off: usize, src: FrameId, src_off: usize, len: usize) {
        assert!(dst_off + len <= PAGE_SIZE && src_off + len <= PAGE_SIZE);
        self.copy_run(dst, dst_off, src, src_off, len);
    }

    /// Copies a physically contiguous run of bytes — possibly spanning
    /// many frames — with a single arena borrow and one
    /// `memcpy`/`memmove`. Overlapping source and destination runs get
    /// `memmove` semantics (the destination reads as the source did
    /// before the call), so `amemmove`-style tasks are safe.
    ///
    /// This is the fast-path engine primitive: the caller hands it a
    /// whole contiguous extent pair and the arena moves it in one shot
    /// instead of nibbling per 4 KiB page.
    pub fn copy_run(&self, dst: FrameId, dst_off: usize, src: FrameId, src_off: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.check_run(src, src_off, len);
        self.check_run(dst, dst_off, len);
        let s0 = src.0 as usize * PAGE_SIZE + src_off;
        let d0 = dst.0 as usize * PAGE_SIZE + dst_off;
        if s0 == d0 {
            return;
        }
        let mut arena = self.arena.borrow_mut();
        if s0 + len <= d0 {
            // Disjoint, source below destination: one memcpy.
            let (head, tail) = arena.split_at_mut(d0);
            tail[..len].copy_from_slice(&head[s0..s0 + len]);
        } else if d0 + len <= s0 {
            // Disjoint, destination below source: one memcpy.
            let (head, tail) = arena.split_at_mut(s0);
            head[d0..d0 + len].copy_from_slice(&tail[..len]);
        } else {
            // Overlapping runs: memmove.
            arena.copy_within(s0..s0 + len, d0);
        }
    }

    /// Per-page baseline of [`Self::copy_run`]: identical semantics, but
    /// borrows and copies one page-bounded chunk at a time like the
    /// pre-arena cell-per-frame backing did. Kept callable so
    /// `fig_hostperf` can measure the fast path against it; production
    /// paths never use it.
    pub fn copy_run_paged(
        &self,
        dst: FrameId,
        dst_off: usize,
        src: FrameId,
        src_off: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        let s0 = src.0 as usize * PAGE_SIZE + src_off;
        let d0 = dst.0 as usize * PAGE_SIZE + dst_off;
        // Chunk at every source or destination page boundary; walk the
        // chunks backwards when the regions overlap with dst above src so
        // not-yet-copied source bytes are never clobbered (memmove tiling).
        let chunk = |d_abs: usize, s_abs: usize, take: usize| {
            self.copy_run(
                FrameId(dst.0 + (d_abs / PAGE_SIZE) as u32),
                d_abs % PAGE_SIZE,
                FrameId(src.0 + (s_abs / PAGE_SIZE) as u32),
                s_abs % PAGE_SIZE,
                take,
            );
        };
        if d0 <= s0 {
            let mut done = 0usize;
            while done < len {
                let (s_abs, d_abs) = (src_off + done, dst_off + done);
                let take = (len - done)
                    .min(PAGE_SIZE - s_abs % PAGE_SIZE)
                    .min(PAGE_SIZE - d_abs % PAGE_SIZE);
                chunk(d_abs, s_abs, take);
                done += take;
            }
        } else {
            // The last forward chunk ends at `rem` and starts at the
            // nearest source or destination page boundary below it, so its
            // length is computable directly — no chunk list needed.
            let mut rem = len;
            while rem > 0 {
                let take = rem
                    .min((src_off + rem - 1) % PAGE_SIZE + 1)
                    .min((dst_off + rem - 1) % PAGE_SIZE + 1);
                rem -= take;
                chunk(dst_off + rem, src_off + rem, take);
            }
        }
    }

    /// Copies a whole frame (CoW break helper). Returns bytes copied.
    pub fn copy_frame(&self, dst: FrameId, src: FrameId) -> usize {
        self.copy(dst, 0, src, 0, PAGE_SIZE);
        PAGE_SIZE
    }

    /// FNV-1a digest over the contents of every *allocated* frame
    /// (frame id folded in first, so identical bytes in different frames
    /// still produce distinct digests). Free frames are excluded: their
    /// arena bytes are reinitialization detail, not system state. Used
    /// by the record/replay layer's memory checkpoints (DESIGN.md §14).
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let arena = self.arena.borrow();
        for (i, m) in self.meta.iter().enumerate() {
            if m.refcnt.get() == 0 {
                continue;
            }
            h = (h ^ i as u64).wrapping_mul(PRIME);
            // Word-at-a-time FNV in four interleaved lanes: one multiply
            // per 8 bytes, and four independent multiply chains instead of
            // one serial chain — the digest runs at trace checkpoints over
            // every allocated frame, so its cost bounds the record
            // overhead (DESIGN.md §14). PAGE_SIZE is a multiple of 32, so
            // nothing is dropped.
            let mut lanes = [h, h ^ 1, h ^ 2, h ^ 3];
            for w in arena[i * PAGE_SIZE..(i + 1) * PAGE_SIZE].chunks_exact(32) {
                for (l, x) in lanes.iter_mut().zip(w.chunks_exact(8)) {
                    *l = (*l ^ u64::from_le_bytes(x.try_into().unwrap())).wrapping_mul(PRIME);
                }
            }
            for l in lanes {
                h = (h ^ l).wrapping_mul(PRIME);
            }
        }
        h
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_alloc_is_contiguous() {
        let pm = PhysMem::new(16, AllocPolicy::Sequential);
        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        let c = pm.alloc().unwrap();
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
    }

    #[test]
    fn scattered_alloc_is_fragmented() {
        let pm = PhysMem::new(64, AllocPolicy::Scattered);
        let ids: Vec<u32> = (0..8).map(|_| pm.alloc().unwrap().0).collect();
        let contiguous_pairs = ids.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(contiguous_pairs <= 1, "ids = {ids:?}");
    }

    #[test]
    fn alloc_contiguous_finds_runs() {
        let pm = PhysMem::new(32, AllocPolicy::Scattered);
        let start = pm.alloc_contiguous(8).unwrap();
        // Frames start..start+8 all allocated.
        for i in 0..8 {
            assert_eq!(pm.refcount(FrameId(start.0 + i)), 1);
        }
        assert_eq!(pm.allocated(), 8);
    }

    #[test]
    fn oom_reported() {
        let pm = PhysMem::new(2, AllocPolicy::Sequential);
        pm.alloc().unwrap();
        pm.alloc().unwrap();
        assert_eq!(pm.alloc(), Err(PhysError::OutOfMemory));
        assert_eq!(pm.alloc_contiguous(2), Err(PhysError::OutOfMemory));
    }

    #[test]
    fn fragmentation_distinguished_from_oom() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let frames: Vec<FrameId> = (0..4).map(|_| pm.alloc().unwrap()).collect();
        // Free alternating frames: 2 free frames, but no contiguous pair.
        pm.decref(frames[0]);
        pm.decref(frames[2]);
        assert_eq!(pm.alloc_contiguous(2), Err(PhysError::Fragmented));
        // Free a neighbor: now a run exists.
        pm.decref(frames[1]);
        assert!(pm.alloc_contiguous(2).is_ok());
    }

    #[test]
    fn fresh_frames_are_zero_even_after_reuse() {
        let pm = PhysMem::new(1, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.write(f, 10, b"dirty");
        pm.decref(f);
        let g = pm.alloc().unwrap();
        assert_eq!(g, f);
        let mut buf = [1u8; 16];
        pm.read(g, 8, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn contiguous_realloc_rezeroes() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let f = pm.alloc_contiguous(4).unwrap();
        pm.write_run(f, 0, &[0xAB; 4 * PAGE_SIZE]);
        for i in 0..4 {
            pm.decref(FrameId(f.0 + i));
        }
        let g = pm.alloc_contiguous(4).unwrap();
        let mut buf = vec![1u8; 4 * PAGE_SIZE];
        pm.read_run(g, 0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "reused run must read zero");
    }

    #[test]
    fn refcount_lifecycle() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.incref(f);
        assert_eq!(pm.refcount(f), 2);
        pm.decref(f);
        assert_eq!(pm.allocated(), 1);
        pm.decref(f);
        assert_eq!(pm.allocated(), 0);
        assert_eq!(pm.refcount(f), 0);
    }

    #[test]
    fn copy_moves_real_bytes() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        pm.write(a, 100, b"hello copier");
        pm.copy(b, 200, a, 100, 12);
        let mut buf = [0u8; 12];
        pm.read(b, 200, &mut buf);
        assert_eq!(&buf, b"hello copier");
    }

    #[test]
    fn same_frame_overlapping_copy() {
        let pm = PhysMem::new(1, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.write(f, 0, b"abcdef");
        pm.copy(f, 2, f, 0, 4); // memmove semantics
        let mut buf = [0u8; 6];
        pm.read(f, 0, &mut buf);
        assert_eq!(&buf, b"ababcd");
    }

    #[test]
    fn copy_run_spans_frames_one_shot() {
        let pm = PhysMem::new(8, AllocPolicy::Sequential);
        let src = pm.alloc_contiguous(3).unwrap();
        let dst = pm.alloc_contiguous(3).unwrap();
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 500).map(|i| (i % 253) as u8).collect();
        pm.write_run(src, 77, &data);
        pm.copy_run(dst, 33, src, 77, data.len());
        let mut got = vec![0u8; data.len()];
        pm.read_run(dst, 33, &mut got);
        assert_eq!(got, data);
    }

    #[test]
    fn copy_run_overlapping_is_memmove_both_directions() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let f = pm.alloc_contiguous(4).unwrap();
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();

        // Forward overlap (dst above src) across frame boundaries.
        pm.write_run(f, 0, &data);
        pm.copy_run(FrameId(f.0), 1000, f, 0, data.len());
        let mut got = vec![0u8; data.len()];
        pm.read_run(f, 1000, &mut got);
        assert_eq!(got, data);

        // Backward overlap (dst below src).
        pm.write_run(f, 1000, &data);
        pm.copy_run(f, 200, f, 1000, data.len());
        pm.read_run(f, 200, &mut got);
        assert_eq!(got, data);
    }

    #[test]
    fn copy_run_paged_matches_copy_run() {
        let pm = PhysMem::new(12, AllocPolicy::Sequential);
        let a = pm.alloc_contiguous(6).unwrap();
        let b = pm.alloc_contiguous(6).unwrap();
        let data: Vec<u8> = (0..5 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
        pm.write_run(a, 123, &data);
        pm.copy_run(b, 456, a, 123, data.len());
        pm.copy_run_paged(a, 123, b, 456, data.len()); // round-trip via baseline
        let mut got = vec![0u8; data.len()];
        pm.read_run(a, 123, &mut got);
        assert_eq!(got, data);

        // Overlapping baseline copy also keeps memmove semantics.
        pm.write_run(a, 0, &data);
        pm.copy_run_paged(FrameId(a.0), 512, a, 0, data.len());
        pm.read_run(a, 512, &mut got);
        assert_eq!(got, data);
    }

    #[test]
    #[should_panic(expected = "access to free frame")]
    fn copy_run_rejects_free_frames_mid_run() {
        let pm = PhysMem::new(8, AllocPolicy::Sequential);
        let a = pm.alloc_contiguous(2).unwrap();
        let b = pm.alloc_contiguous(3).unwrap();
        pm.decref(FrameId(b.0 + 1)); // hole in the middle of the dst run
        pm.copy_run(b, 0, a, 0, 2 * PAGE_SIZE);
    }

    #[test]
    fn digest_tracks_allocated_content_only() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let empty = pm.digest();
        let a = pm.alloc().unwrap();
        let after_alloc = pm.digest();
        assert_ne!(empty, after_alloc, "allocation changes the digest");
        pm.write(a, 7, b"payload");
        let after_write = pm.digest();
        assert_ne!(after_alloc, after_write, "content changes the digest");
        // Same bytes in a different frame → different digest.
        pm.decref(a);
        let b = pm.alloc().unwrap();
        assert_eq!(b, a);
        let c = pm.alloc().unwrap();
        pm.write(c, 7, b"payload");
        pm.decref(b);
        assert_ne!(pm.digest(), after_write, "frame identity is folded in");
    }

    #[test]
    fn pin_tracking() {
        let pm = PhysMem::new(2, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.pin(f);
        assert!(pm.is_pinned(f));
        pm.unpin(f);
        assert!(!pm.is_pinned(f));
    }

    #[test]
    fn pressure_hysteresis() {
        let pm = PhysMem::new(8, AllocPolicy::Sequential);
        pm.set_watermarks(2, 6);
        let frames: Vec<FrameId> = (0..6).map(|_| pm.alloc().unwrap()).collect();
        assert!(pm.pressure(), "high watermark must raise pressure");
        assert_eq!(pm.pressure_events(), 1);
        // Dropping below high but above low keeps pressure latched.
        pm.decref(frames[5]);
        pm.decref(frames[4]);
        pm.decref(frames[3]);
        assert!(pm.pressure(), "pressure must hold until the low watermark");
        pm.decref(frames[2]);
        assert!(!pm.pressure(), "low watermark must clear pressure");
        // Re-raising counts a fresh event.
        let _f = pm.alloc().unwrap();
        let _g = (0..3).map(|_| pm.alloc().unwrap()).collect::<Vec<_>>();
        assert!(pm.pressure());
        assert_eq!(pm.pressure_events(), 2);
    }

    #[test]
    fn default_watermarks_never_trip_light_pools() {
        let pm = PhysMem::new(64, AllocPolicy::Sequential);
        for _ in 0..32 {
            pm.alloc().unwrap();
        }
        assert!(!pm.pressure(), "half-full pool must not report pressure");
        assert_eq!(pm.pressure_events(), 0);
    }

    #[test]
    #[should_panic(expected = "freeing a pinned frame")]
    fn freeing_pinned_frame_panics() {
        let pm = PhysMem::new(2, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.pin(f);
        pm.decref(f);
    }
}
