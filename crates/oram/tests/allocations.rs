//! Allocation budget of the ORAM's access path. Blocks move through a
//! tree as fixed-size records and their payloads sit in one arena per
//! tree, so once the arena, the record slab and the scratch buffers have
//! grown to a run's working size an access allocates nothing per block
//! or per bucket: what allocations remain are the amortized doublings of
//! storage that grows with the number of blocks ever written.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's other threads cannot disturb a count.

use otc_crypto::SplitMix64;
use otc_oram::{OramConfig, RecursivePathOram};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each upholds exactly the contract `System` does; the
// count is a thread-local `Cell` with a const initializer, which
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `n` accesses, a third each writes, reads that discard the payload,
/// and dummies, at addresses drawn from the ORAM's whole capacity. A
/// deferring ORAM drains its oldest eviction whenever four are pending.
fn mixed(oram: &mut RecursivePathOram, rng: &mut SplitMix64, n: usize) {
    let capacity = oram.config().data_block_capacity();
    let mut line = vec![0u8; oram.config().data.block_bytes()];
    for _ in 0..n {
        match rng.next_below(3) {
            0 => {
                line[0] = line[0].wrapping_add(1);
                oram.write(rng.next_below(capacity), &line);
            }
            1 => oram.read_discard(rng.next_below(capacity)),
            _ => oram.dummy_access(),
        }
        while oram.pending_evictions() > 4 {
            oram.drain_eviction();
        }
    }
}

#[test]
fn paper_geometry_accesses_allocate_nothing_per_block() {
    // Nearly every real access writes a block never seen before, so the
    // arenas, slabs and maps keep growing; their doublings are all that
    // may allocate.
    let mut oram = RecursivePathOram::new(OramConfig::paper()).expect("valid");
    let mut rng = SplitMix64::new(0xA110C);
    mixed(&mut oram, &mut rng, 5_000);
    let n = allocations(|| mixed(&mut oram, &mut rng, 10_000));
    assert!(
        n <= 100,
        "10,000 paper-geometry accesses allocated {n} times"
    );
}

#[test]
fn small_geometry_accesses_allocate_nothing() {
    // 256 blocks: the warm-up writes nearly all of them, so the storage
    // stops growing. Inline and deferred evictions alike.
    for deferred in [false, true] {
        let config = OramConfig::small();
        let mut oram = if deferred {
            RecursivePathOram::with_deferred_evictions(config)
        } else {
            RecursivePathOram::new(config)
        }
        .expect("valid");
        let mut rng = SplitMix64::new(0xA110C);
        mixed(&mut oram, &mut rng, 5_000);
        let n = allocations(|| mixed(&mut oram, &mut rng, 10_000));
        assert!(
            n <= 10,
            "10,000 small-geometry accesses (deferred: {deferred}) allocated {n} times"
        );
    }
}
