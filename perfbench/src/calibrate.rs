//! Host-speed calibration.
//!
//! A shared host runs at a speed that drifts in phases of seconds to
//! minutes (on a 2-vCPU VM, `kv`'s host time varied 1.7× between
//! phases), which repetitions inside one run cannot average away. So
//! every host time is reported at a reference host speed: the wall time
//! times `REFERENCE_S` over the time a fixed kernel takes right after the
//! same repetition, in the same process. The kernel does what the
//! simulator's host work does most — ordered-map churn and memory copies
//! — and touches none of the program's code, so a change to the program
//! moves the reported times exactly as it moves the wall times.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one kernel pass takes at the reference speed (a 2-vCPU
/// VM in its fast phase).
pub const REFERENCE_S: f64 = 0.08;

/// Bytes each kernel copy moves.
const COPY_BYTES: usize = 4 << 20;

/// Host seconds of one kernel pass. Its buffers are allocated and
/// faulted in before the clock starts.
pub fn measure() -> f64 {
    let src = vec![0x5a_u8; COPY_BYTES];
    let mut dst = vec![1_u8; COPY_BYTES];
    let t = Instant::now();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, i);
        if let Some(v) = map.get(&(x.rotate_left(7) % 100_000)) {
            x = x.wrapping_add(*v);
        }
        if i % 3 == 0 {
            map.remove(&(x % 100_000));
        }
    }
    for _ in 0..8 {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    }
    black_box(&map);
    t.elapsed().as_secs_f64()
}
