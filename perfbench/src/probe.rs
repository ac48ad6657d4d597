//! The host-speed probe: a fixed CPU kernel of the benchmark's own, timed
//! between the timed passes so that the sweeps' timings can be rescaled to
//! a nominal host speed.
//!
//! The benchmark's host shares its cores with other machines, and its
//! speed moves with their load: one seed's traced-sweep pass took 4.6 s
//! for a minute, then 2.7 s for the next, and a kernel that never touches
//! the simulator slowed and sped up with it (correlation 0.93 over 29
//! passes). Raw host seconds of the same code therefore differ by a third
//! between two sets of runs. A run's timing samples are multiplied by
//! `NOMINAL_S ÷ p`, where `p` is the median of the probe's times during the
//! run: the seconds the samples would take on a host that runs the probe
//! in [`NOMINAL_S`]. The probe does not call into the simulator, so a
//! change to the simulator moves rescaled times exactly as much as raw
//! ones.
//!
//! The probe runs on one thread even when the passes use two workers: the
//! slower of two probe threads sometimes took 1.7 times the usual time,
//! while one thread's time stayed within 5% over the same two minutes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Probe seconds on the nominal host, about what the probe takes on a
/// 2-vCPU Xeon VM at its faster speed.
pub const NOMINAL_S: f64 = 0.25;

/// Node-state slots the kernel touches (32 KiB: the kernel measures core
/// speed, not the shared cache).
const SLOTS: usize = 1 << 12;
/// Pending events in the kernel's queue.
const QUEUE: u64 = 8192;
/// Events the kernel dispatches.
const STEPS: u64 = 1_500_000;

/// A discrete-event loop in the simulator's image: pop the earliest event
/// from a binary heap, update a few node states, schedule a follow-up.
fn kernel() -> u64 {
    let mut state = vec![0u64; SLOTS];
    let mut x = 1u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = (0..QUEUE)
        .map(|i| Reverse((next() % 1_000_000, i)))
        .collect();
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let Some(Reverse((t, id))) = queue.pop() else {
            break;
        };
        let mut j = id as usize % SLOTS;
        for _ in 0..4 {
            let v = state[j].wrapping_add(t ^ acc);
            state[j] = v;
            acc = acc.rotate_left(5) ^ v;
            j = ((v >> 7) as usize ^ j.wrapping_mul(31)) % SLOTS;
        }
        let r = next();
        queue.push(Reverse((t + 1 + r % 5000, r % SLOTS as u64)));
    }
    acc
}

/// Host seconds the kernel takes once.
pub fn seconds() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_secs_f64()
}
