//! Host-speed calibration.
//!
//! A shared host runs at different speeds from one run to the next.
//! Times are therefore reported scaled to a fixed CPU-bound kernel's
//! reference duration: `scaled = wall * REFERENCE_NS / kernel`. The
//! untraced pass runs the kernel before every task and scales every
//! time, set-up's included, by the run's median kernel time; the traced
//! pass does the same with the kernels it runs.
//! The kernel shares no code with heapmd, so no change to heapmd can
//! move it; a change that makes heapmd faster or slower moves the scaled
//! figure exactly as it moves the wall time on a quiet host.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's duration on a quiet host (the 2-vCPU machine the ledger
/// was first measured on, where it takes 1.98-2.03 ms). Only ratios
/// between commits matter, so the value just sets the scale: scaled
/// times read as wall times on that host at its quiet speed.
pub const REFERENCE_NS: f64 = 2_000_000.0;

/// One run of the calibration kernel: integer hashing with
/// data-dependent branches over an L2-resident table. Returns its wall
/// time in nanoseconds.
pub fn kernel_ns() -> u64 {
    let t = Instant::now();
    let mut table = vec![0u64; 32 * 1024];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..170_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (table.len() - 1);
        table[j] = table[j].wrapping_add(x ^ i);
        if table[j] & 1 == 0 {
            x = x.rotate_left(5);
        }
    }
    black_box(&table);
    t.elapsed().as_nanos() as u64
}
