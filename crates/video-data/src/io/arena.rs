//! Arena-owned clip buffers: a free-list of fixed-shape `Vec<f32>`
//! buffers so steady-state ingestion performs zero heap allocations.
//!
//! The ingestion twin of the inference-side `EvalArena`: decode
//! workers [`acquire`](ClipArena::acquire) a buffer, fill it, and hand
//! it downstream as an [`ArenaClip`]; when the clip (or the [`Tensor`]
//! built from its buffer) is done, the buffer returns to the free
//! list. Return happens in [`ArenaClip`]'s `Drop`, so a worker that
//! panics mid-decode still gives its buffer back — unwinding cannot
//! leak arena capacity (pinned by the reuse-under-panic test, the
//! ingest mirror of the EvalArena reuse-after-crash proof).
//!
//! `Tensor::from_vec` / `Tensor::into_vec` move the backing `Vec`
//! without copying, so the arena round-trip through a `Tensor` is
//! allocation-free too: acquire → fill → [`ArenaClip::into_tensor`] →
//! infer → [`ClipArena::release_tensor`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use p3d_tensor::Tensor;

/// Snapshot of arena occupancy, for telemetry and the zero-alloc gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClipArenaStats {
    /// Total buffers the arena has ever created.
    pub buffers: usize,
    /// Buffers currently sitting in the free list.
    pub free: usize,
    /// Times `acquire` found the free list empty and had to allocate —
    /// zero in steady state once the working set is warm.
    pub grow_events: usize,
}

struct ArenaShared {
    shape: [usize; 4],
    clip_len: usize,
    free: Mutex<Vec<Vec<f32>>>,
    buffers: AtomicUsize,
    grow_events: AtomicUsize,
}

/// A shareable free-list of clip buffers of one fixed shape
/// `[C, D, H, W]`. Cloning shares the underlying pool.
#[derive(Clone)]
pub struct ClipArena {
    shared: Arc<ArenaShared>,
}

impl ClipArena {
    /// An arena for clips of `shape`, with `prealloc` buffers created
    /// up front (so a correctly sized arena never grows afterwards).
    pub fn new(shape: [usize; 4], prealloc: usize) -> ClipArena {
        let clip_len: usize = shape.iter().product();
        assert!(clip_len > 0, "clip shape must be non-degenerate");
        let mut free = Vec::new();
        // Keep free-list capacity >= total buffers so a release never
        // reallocates the list itself.
        free.reserve_exact(prealloc.max(1));
        for _ in 0..prealloc {
            free.push(vec![0.0f32; clip_len]);
        }
        ClipArena {
            shared: Arc::new(ArenaShared {
                shape,
                clip_len,
                free: Mutex::new(free),
                buffers: AtomicUsize::new(prealloc),
                grow_events: AtomicUsize::new(0),
            }),
        }
    }

    /// The clip shape `[C, D, H, W]` this arena serves.
    pub fn shape(&self) -> [usize; 4] {
        self.shared.shape
    }

    /// Elements per clip buffer.
    pub fn clip_len(&self) -> usize {
        self.shared.clip_len
    }

    /// Pops a free buffer, or grows the pool by one (counted in
    /// [`ClipArenaStats::grow_events`]) if none is available.
    pub fn acquire(&self) -> ArenaClip {
        let popped = {
            let mut free = lock_free(&self.shared.free);
            free.pop()
        };
        let buf = match popped {
            Some(buf) => buf,
            None => {
                self.shared.grow_events.fetch_add(1, Ordering::Relaxed);
                let buffers = self.shared.buffers.fetch_add(1, Ordering::Relaxed) + 1;
                // Room for every buffer, so their releases never
                // reallocate the list.
                let mut free = lock_free(&self.shared.free);
                let len = free.len();
                free.reserve_exact(buffers.saturating_sub(len));
                drop(free);
                vec![0.0f32; self.shared.clip_len]
            }
        };
        debug_assert_eq!(buf.len(), self.shared.clip_len);
        ArenaClip {
            buf: Some(buf),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Returns the buffer behind `t` to the free list. The tensor must
    /// hold exactly one arena clip's worth of elements (shape may have
    /// been reinterpreted along the way, e.g. `[1,C,D,H,W]`).
    pub fn release_tensor(&self, t: Tensor) {
        let buf = t.into_vec();
        assert_eq!(
            buf.len(),
            self.shared.clip_len,
            "released tensor does not match arena clip length"
        );
        lock_free(&self.shared.free).push(buf);
    }

    /// Current occupancy counters.
    pub fn stats(&self) -> ClipArenaStats {
        let free = lock_free(&self.shared.free).len();
        ClipArenaStats {
            buffers: self.shared.buffers.load(Ordering::Relaxed),
            free,
            grow_events: self.shared.grow_events.load(Ordering::Relaxed),
        }
    }
}

/// Poison-tolerant lock on the free list: a panicking holder leaves a
/// consistent Vec (push/pop are atomic wrt panics), so the list stays
/// usable.
fn lock_free(m: &Mutex<Vec<Vec<f32>>>) -> std::sync::MutexGuard<'_, Vec<Vec<f32>>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One checked-out clip buffer. Dropping it — normally or during a
/// panic unwind — returns the buffer to its arena.
pub struct ArenaClip {
    buf: Option<Vec<f32>>,
    shared: Arc<ArenaShared>,
}

impl ArenaClip {
    /// Mutable view of the full clip buffer (`clip_len` floats).
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.buf.as_mut().expect("arena clip already consumed")
    }

    /// Read-only view of the clip buffer.
    pub fn data(&self) -> &[f32] {
        self.buf.as_ref().expect("arena clip already consumed")
    }

    /// Converts the buffer into a `Tensor` of the arena's clip shape
    /// without copying. The caller owns the buffer from here; hand it
    /// back with [`ClipArena::release_tensor`] to keep reuse alloc-free.
    pub fn into_tensor(mut self) -> Tensor {
        let buf = self.buf.take().expect("arena clip already consumed");
        let [c, d, h, w] = self.shared.shape;
        Tensor::from_vec([c, d, h, w], buf)
    }
}

impl Drop for ArenaClip {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            lock_free(&self.shared.free).push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycles_do_not_grow_a_warm_arena() {
        let arena = ClipArena::new([1, 2, 3, 4], 2);
        assert_eq!(
            arena.stats(),
            ClipArenaStats {
                buffers: 2,
                free: 2,
                grow_events: 0
            }
        );
        for i in 0..10 {
            let mut a = arena.acquire();
            let mut b = arena.acquire();
            a.data_mut()[0] = i as f32;
            b.data_mut()[0] = -(i as f32);
            drop(a);
            drop(b);
        }
        assert_eq!(
            arena.stats(),
            ClipArenaStats {
                buffers: 2,
                free: 2,
                grow_events: 0
            }
        );
    }

    #[test]
    fn empty_arena_grows_and_counts_it() {
        let arena = ClipArena::new([1, 1, 2, 2], 0);
        let clip = arena.acquire();
        assert_eq!(clip.data().len(), 4);
        let s = arena.stats();
        assert_eq!((s.buffers, s.grow_events, s.free), (1, 1, 0));
        drop(clip);
        assert_eq!(arena.stats().free, 1);
    }

    #[test]
    fn tensor_round_trip_preserves_data_and_capacity() {
        let arena = ClipArena::new([1, 2, 2, 2], 1);
        let mut clip = arena.acquire();
        for (i, v) in clip.data_mut().iter_mut().enumerate() {
            *v = i as f32 * 0.5;
        }
        let t = clip.into_tensor();
        assert_eq!(t.shape().dims(), &[1, 2, 2, 2]);
        assert_eq!(t.data()[3], 1.5);
        assert_eq!(arena.stats().free, 0);
        // Reshape (as the engines do) and hand it back.
        let t = t.reshape([1, 1, 2, 2, 2]);
        arena.release_tensor(t);
        let s = arena.stats();
        assert_eq!((s.buffers, s.free, s.grow_events), (1, 1, 0));
    }

    #[test]
    fn panic_while_holding_a_clip_returns_the_buffer() {
        let arena = ClipArena::new([1, 1, 1, 2], 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut clip = arena.acquire();
            clip.data_mut()[0] = 42.0;
            panic!("injected");
        }));
        assert!(result.is_err());
        let s = arena.stats();
        assert_eq!((s.buffers, s.free, s.grow_events), (1, 1, 0));
        // The recycled buffer is still fully usable.
        let mut clip = arena.acquire();
        clip.data_mut().fill(7.0);
        assert_eq!(clip.data(), &[7.0, 7.0]);
    }
}
