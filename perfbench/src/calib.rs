//! Host-speed calibration for the end-to-end host-time metrics.
//!
//! On a shared host the same op's time swings by up to half between repeats
//! and the host's speed drifts over minutes, so two runs of the same code
//! minutes apart disagree by more than any optimisation worth gating. A fixed
//! reference kernel, which no program change can touch, is timed right
//! before every op, and the op's host seconds are rescaled by the kernel's
//! nominal time over that pass's time: they read as seconds on a reference
//! host, a slow spell slows the kernel and the program alike and cancels,
//! and a faster program still reads faster. Set-up time is not rescaled: it
//! is mostly allocation, which the kernel does not track.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events one kernel pass pushes through its queue (about 4 ms).
const EVENTS: u64 = 20_000;
/// Slots of the kernel's table (8 B each, 2 MiB): past the first-level
/// caches, like the simulator's per-replica state.
const TABLE: usize = 1 << 18;
/// Events the kernel's queue holds.
const QUEUE: usize = 512;

/// Seconds one kernel pass takes on the reference host, a 2-vCPU KVM guest
/// at its usual speed. Rescaled host times read as seconds on that host.
pub const NOMINAL_SECS: f64 = 4.0e-3;

/// The reference kernel, with its buffers allocated once so a pass does no
/// allocation and never depends on the state the program leaves the
/// allocator in.
#[derive(Debug)]
pub struct Calibrator {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
}

impl Calibrator {
    /// A calibrator with its buffers allocated.
    pub fn new() -> Self {
        Calibrator {
            heap: BinaryHeap::with_capacity(QUEUE + 1),
            table: vec![0; TABLE],
        }
    }

    /// One kernel pass: a discrete-event loop over a binary heap with a
    /// table updated at pseudo-random slots, the kinds of work the
    /// simulator does per event.
    fn pass(&mut self) -> u64 {
        self.heap.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..EVENTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.heap.push(Reverse((x >> 24, i)));
            if self.heap.len() > QUEUE {
                if let Some(Reverse((t, j))) = self.heap.pop() {
                    acc = acc.wrapping_add(t ^ j);
                }
            }
            let k = (x as usize) & (TABLE - 1);
            self.table[k] = self.table[k].wrapping_add(acc | 1);
            acc = acc.rotate_left(5) ^ self.table[(acc as usize) & (TABLE - 1)];
        }
        acc
    }

    /// Host seconds of one kernel pass, run now.
    pub fn pass_secs(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.pass());
        t0.elapsed().as_secs_f64()
    }
}

/// Rescales host seconds measured next to a kernel pass of `kernel_secs` to
/// seconds on the reference host.
pub fn to_reference(secs: f64, kernel_secs: f64) -> f64 {
    if kernel_secs > 0.0 {
        secs * NOMINAL_SECS / kernel_secs
    } else {
        secs
    }
}
