//! `eta-par` — a minimal, dependency-light data-parallel substrate.
//!
//! The EtaGraph reproduction needs a small slice of what `rayon` offers:
//! chunked parallel-for over slices, a parallel sort and a two-stage
//! pipeline. Rather than pull in a work-stealing scheduler, we build that
//! slice on `crossbeam::scope`, which is plenty for the regular, statically
//! partitionable loops that dominate graph generation and construction.
//!
//! Design points:
//!
//! * **Static chunking.** Work is split into `num_threads` contiguous chunks.
//!   All our loops are dense index ranges with near-uniform per-element cost
//!   (edge generation, label init, histogram builds), so static partitioning
//!   is within a few percent of a work-stealing schedule and keeps the
//!   implementation obviously correct.
//! * **Deterministic results.** Each element's value depends only on its
//!   index, never on which worker ran it, so [`build_vec`] returns the same
//!   vector at every thread count.
//! * **Small-input fast path.** Inputs below [`PAR_THRESHOLD`] run inline on
//!   the calling thread; spawning threads for tiny loops costs more than it
//!   saves.

pub mod sort;

pub use sort::par_sort_by_key;

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, PoisonError};

/// Inputs smaller than this run sequentially on the calling thread.
pub const PAR_THRESHOLD: usize = 4096;

thread_local! {
    /// Per-thread override of the worker count; `0` means "use the
    /// machine's available parallelism". Thread-local on purpose: the
    /// spawn decision is made on the calling thread, and a process-global
    /// override would leak between concurrently-running tests in the same
    /// binary (cargo's default test harness runs them on a thread pool).
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Scoped override of the number of worker threads used by this module on
/// the *calling thread*. The previous override is restored on drop, so
/// overrides nest and cannot leak across tests — the replacement for the
/// old process-global `set_threads`, which raced every concurrently
/// running test in the same binary.
///
/// ```
/// let _guard = eta_par::ThreadGuard::set(1);
/// // every eta-par call on this thread is now single-threaded
/// ```
#[derive(Debug)]
pub struct ThreadGuard {
    prev: usize,
}

impl ThreadGuard {
    /// Overrides the worker count until the guard drops. `0` restores the
    /// default (the machine's available parallelism).
    #[must_use = "the override ends when the guard drops"]
    pub fn set(n: usize) -> ThreadGuard {
        let prev = THREAD_OVERRIDE.with(|o| o.replace(n));
        ThreadGuard { prev }
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.prev));
    }
}

/// Number of worker threads a parallel call will use.
pub fn current_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o != 0 {
        return o;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `len` items into at most `parts` contiguous `(start, end)` chunks.
///
/// Every chunk is non-empty and the chunks exactly cover `0..len` in order.
pub fn chunks(len: usize, parts: usize) -> Vec<(usize, usize)> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let rem = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let sz = base + usize::from(i < rem);
        out.push((start, start + sz));
        start += sz;
    }
    debug_assert_eq!(start, len);
    out
}

/// Parallel in-place transform of a mutable slice, chunk by chunk.
fn for_each_mut<T, F>(data: &mut [T], body: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = current_threads();
    if data.len() < PAR_THRESHOLD || threads <= 1 {
        for (i, item) in data.iter_mut().enumerate() {
            body(i, item);
        }
        return;
    }
    spawn_over_chunks(threads, data, &body);
}

/// Parallel in-place transform with an **explicit** worker count and no
/// small-input fast path: every element runs under the chunked schedule
/// even for a handful of items. This is the primitive for few-but-heavy
/// work units, whose count (e.g. ~tens of SMs) never clears
/// [`PAR_THRESHOLD`]. `threads <= 1` runs inline on the caller.
pub fn for_each_mut_threads<T, F>(threads: usize, data: &mut [T], body: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if threads <= 1 || data.len() <= 1 {
        for (i, item) in data.iter_mut().enumerate() {
            body(i, item);
        }
        return;
    }
    spawn_over_chunks(threads, data, &body);
}

/// Shared worker spawn: splits `data` at exact chunk boundaries so each
/// worker owns a disjoint `&mut` region, then runs `body` under a scope.
fn spawn_over_chunks<T, F>(threads: usize, data: &mut [T], body: &F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let parts = chunks(data.len(), threads);
    let mut rest = data;
    let mut slices = Vec::with_capacity(parts.len());
    let mut consumed = 0;
    for &(a, b) in &parts {
        let (head, tail) = rest.split_at_mut(b - a);
        slices.push((consumed, head));
        rest = tail;
        consumed = b;
    }
    crossbeam::scope(|s| {
        for (offset, chunk) in slices {
            s.spawn(move |_| {
                for (i, item) in chunk.iter_mut().enumerate() {
                    body(offset + i, item);
                }
            });
        }
    })
    .expect("eta-par worker panicked");
}

/// A two-stage pipeline over `items` items and a ring of reusable buffers.
/// `front(i, buf)` fills item `i` into `bufs[i % bufs.len()]` on the
/// calling thread; `back(i, buf)` then drains it. `back` sees every item
/// exactly once, in index order, in the buffer `front` filled.
///
/// With `threads >= 2` and at least two items, `back` runs on one scoped
/// worker, so `front` fills later items while `back` drains earlier ones:
/// `front` may run up to one ring ahead, and refills a buffer only once
/// `back` has drained the item before in it. The worker is spawned once
/// per call, and the handoff allocates only its two queues, once per
/// call. With fewer threads or items both halves run inline:
/// `front(0), back(0), front(1), back(1), ...`. Each half runs the same
/// calls in the same order either way, so a result that depends only on
/// each half's own call sequence is identical at every thread count;
/// thread counts above 2 behave as 2.
///
/// A panic in either half re-raises from `pipeline2` with its payload, once
/// the worker has exited: a half that returns or unwinds closes its side
/// of the handoff, and a half waiting on a closed side stops, so a panic
/// never becomes a hang.
pub fn pipeline2<T, F, B>(threads: usize, items: usize, bufs: &mut [T], mut front: F, mut back: B)
where
    T: Send,
    F: FnMut(usize, &mut T),
    B: FnMut(usize, &mut T) + Send,
{
    assert!(items == 0 || !bufs.is_empty(), "pipeline2 needs a buffer");
    if threads <= 1 || items <= 1 {
        let ring = bufs.len();
        for i in 0..items {
            front(i, &mut bufs[i % ring]);
            back(i, &mut bufs[i % ring]);
        }
        return;
    }
    let handoff = Handoff::new(bufs);
    let outcome = crossbeam::scope(|s| {
        let worker = s.spawn(|_| {
            let _closed = Closer(&handoff, |s| s.back_done = true);
            while let Some((i, buf)) = handoff.next_filled() {
                back(i, &mut *buf);
                handoff.give_back(buf);
            }
        });
        {
            let _closed = Closer(&handoff, |s| s.front_done = true);
            for i in 0..items {
                // Buffers come back in the order `back` drains them, which
                // is item order: item `i` gets `bufs[i % bufs.len()]`.
                let Some(buf) = handoff.take_free() else {
                    break;
                };
                front(i, &mut *buf);
                if !handoff.hand_over(i, buf) {
                    break;
                }
            }
        }
        worker.join()
    });
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(payload)) | Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// [`pipeline2`]'s handoff: the free buffers on their way to the front
/// half, the filled ones on their way to the back half, and whether each
/// half has finished. Both queues hold at most the ring, so neither grows
/// after [`Handoff::new`].
struct Handoff<'b, T> {
    slots: Mutex<Slots<'b, T>>,
    moved: Condvar,
}

struct Slots<'b, T> {
    free: VecDeque<&'b mut T>,
    filled: VecDeque<(usize, &'b mut T)>,
    /// The front half has handed over its last item, or unwound.
    front_done: bool,
    /// The back half has returned, or unwound.
    back_done: bool,
}

impl<'b, T> Handoff<'b, T> {
    fn new(bufs: &'b mut [T]) -> Self {
        let ring = bufs.len();
        let mut free = VecDeque::with_capacity(ring);
        free.extend(bufs.iter_mut());
        Handoff {
            slots: Mutex::new(Slots {
                free,
                filled: VecDeque::with_capacity(ring),
                front_done: false,
                back_done: false,
            }),
            moved: Condvar::new(),
        }
    }

    /// Waits until `ready` holds, applies `act` and wakes the other half.
    /// Neither half runs its own code under the lock, so a poisoned lock
    /// still guards consistent slots.
    fn when<R>(
        &self,
        ready: fn(&Slots<'b, T>) -> bool,
        act: impl FnOnce(&mut Slots<'b, T>) -> R,
    ) -> R {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let mut slots = (self.moved)
            .wait_while(slots, |s| !ready(s))
            .unwrap_or_else(PoisonError::into_inner);
        let out = act(&mut slots);
        drop(slots);
        self.moved.notify_all();
        out
    }

    /// Front: the next free buffer; `None` once the back half is gone.
    fn take_free(&self) -> Option<&'b mut T> {
        self.when(
            |s| !s.free.is_empty() || s.back_done,
            |s| s.free.pop_front().filter(|_| !s.back_done),
        )
    }

    /// Front: passes item `i` on; `false` once the back half is gone.
    fn hand_over(&self, i: usize, buf: &'b mut T) -> bool {
        self.when(
            |_| true,
            |s| {
                if !s.back_done {
                    s.filled.push_back((i, buf));
                }
                !s.back_done
            },
        )
    }

    /// Back: the next filled item; `None` once the front half is done and
    /// every item it handed over has been taken.
    fn next_filled(&self) -> Option<(usize, &'b mut T)> {
        self.when(
            |s| !s.filled.is_empty() || s.front_done,
            |s| s.filled.pop_front(),
        )
    }

    /// Back: returns a drained buffer, unless the front half needs no more.
    fn give_back(&self, buf: &'b mut T) {
        self.when(
            |_| true,
            |s| {
                if !s.front_done {
                    s.free.push_back(buf);
                }
            },
        );
    }
}

/// Marks its half finished when it drops — on return and on unwind.
struct Closer<'h, 'b, T>(&'h Handoff<'b, T>, fn(&mut Slots<'b, T>));

impl<T> Drop for Closer<'_, '_, T> {
    fn drop(&mut self) {
        self.0.when(|_| true, self.1);
    }
}

/// Convenience: parallel generation of a `Vec<T>` where element `i` is
/// `gen(i)`.
pub fn build_vec<T, G>(len: usize, generate: G) -> Vec<T>
where
    T: Send + Default + Clone,
    G: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); len];
    for_each_mut(&mut out, |i, slot| *slot = generate(i));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunks_cover_range_exactly() {
        for len in [0usize, 1, 7, 100, 4097] {
            for parts in [1usize, 2, 3, 8, 200] {
                let cs = chunks(len, parts);
                if len == 0 {
                    assert!(cs.is_empty());
                    continue;
                }
                assert_eq!(cs[0].0, 0);
                assert_eq!(cs.last().unwrap().1, len);
                for w in cs.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                    assert!(w[0].0 < w[0].1);
                }
                assert!(cs.len() <= parts.min(len));
            }
        }
    }

    #[test]
    fn for_each_mut_visits_everything_once() {
        let n = 10_000;
        let _threads = ThreadGuard::set(4);
        let calls = AtomicU64::new(0);
        let mut hits = vec![0u32; n];
        for_each_mut(&mut hits, |_, h| {
            *h += 1;
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|&h| h == 1));
        assert_eq!(calls.load(Ordering::Relaxed), n as u64);
    }

    #[test]
    fn for_each_mut_matches_sequential() {
        let n = 9001;
        let mut par = vec![0u64; n];
        for_each_mut(&mut par, |i, v| *v = (i as u64) * 3 + 1);
        let seq: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn small_inputs_run_inline() {
        // Must not deadlock or spawn for trivial sizes.
        let mut v = vec![0u8; 16];
        for_each_mut(&mut v, |i, x| *x = i as u8);
        assert_eq!(v[15], 15);
    }

    #[test]
    fn thread_override_roundtrip() {
        {
            let _g = ThreadGuard::set(3);
            assert_eq!(current_threads(), 3);
        }
        assert!(current_threads() >= 1);
    }

    #[test]
    fn thread_guards_nest_and_restore() {
        let _outer = ThreadGuard::set(2);
        assert_eq!(current_threads(), 2);
        {
            let _inner = ThreadGuard::set(7);
            assert_eq!(current_threads(), 7);
        }
        assert_eq!(current_threads(), 2, "inner guard restored the outer");
    }

    /// Regression (PR 9): the override used to be a process-global
    /// `AtomicUsize`, so two tests pinning thread counts concurrently
    /// clobbered each other. With the scoped, thread-local guard, two
    /// strictly interleaved guards on different threads must never observe
    /// each other's override.
    #[test]
    fn interleaved_guards_do_not_observe_each_other() {
        use std::sync::mpsc;
        let (to_b, from_a) = mpsc::channel::<()>();
        let (to_a, from_b) = mpsc::channel::<()>();
        let a = std::thread::spawn(move || {
            let _g = ThreadGuard::set(2);
            to_b.send(()).unwrap(); // B now sets its own override...
            from_b.recv().unwrap(); // ...and has done so before we re-read.
            let seen = current_threads();
            to_b.send(()).unwrap();
            seen
        });
        let b = std::thread::spawn(move || {
            from_a.recv().unwrap();
            let _g = ThreadGuard::set(5);
            to_a.send(()).unwrap();
            from_a.recv().unwrap(); // A has re-read while our guard is live.
            current_threads()
        });
        assert_eq!(a.join().unwrap(), 2, "thread A sees only its own guard");
        assert_eq!(b.join().unwrap(), 5, "thread B sees only its own guard");
    }

    #[test]
    fn for_each_mut_threads_ignores_the_small_input_fast_path() {
        // 8 items is far below PAR_THRESHOLD; the explicit-thread primitive
        // must still visit every element exactly once with correct indices.
        for threads in [0usize, 1, 2, 8, 64] {
            let mut v = vec![0usize; 8];
            for_each_mut_threads(threads, &mut v, |i, x| *x = i * 10);
            let want: Vec<usize> = (0..8).map(|i| i * 10).collect();
            assert_eq!(v, want, "threads = {threads}");
        }
        let mut empty: Vec<u8> = Vec::new();
        for_each_mut_threads(4, &mut empty, |_, _| unreachable!());
    }

    /// Each half's call sequence at `threads` over a ring of three
    /// buffers: `front` stamps item `i` into its buffer, `back` logs which
    /// buffer it got and what it held.
    fn pipeline_log(threads: usize, items: usize) -> Vec<(usize, usize, usize)> {
        let mut bufs = [(0usize, 0usize), (1, 0), (2, 0)];
        let mut log = Vec::new();
        pipeline2(
            threads,
            items,
            &mut bufs,
            |i, buf| {
                assert_eq!(buf.0, i % 3, "item {i} fills buffer i % 3");
                buf.1 = 10 * i + 1;
            },
            |i, buf| log.push((i, buf.0, buf.1)),
        );
        log
    }

    #[test]
    fn pipeline2_drains_every_item_in_order_in_its_buffer() {
        for items in [0usize, 1, 2, 3, 4, 8, 100] {
            let want: Vec<_> = (0..items).map(|i| (i, i % 3, 10 * i + 1)).collect();
            for threads in [1usize, 2, 4] {
                assert_eq!(pipeline_log(threads, items), want, "{threads}, {items}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "back died at 3")]
    fn pipeline2_reraises_a_worker_panic() {
        let mut bufs = [0u8, 0];
        pipeline2(
            2,
            8,
            &mut bufs,
            |_, _| {},
            |i, _| assert!(i != 3, "back died at {i}"),
        );
    }

    #[test]
    #[should_panic(expected = "front died at 5")]
    fn pipeline2_reraises_a_front_panic_without_hanging() {
        let mut bufs = [0u8, 0];
        pipeline2(
            2,
            8,
            &mut bufs,
            |i, _| assert!(i != 5, "front died at {i}"),
            |_, _| {},
        );
    }

    #[test]
    fn build_vec_matches_generator() {
        let v = build_vec(8192, |i| i as u32 ^ 0xdead);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 ^ 0xdead));
    }
}
