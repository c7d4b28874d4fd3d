//! Pins the measurements to one CPU.
//!
//! On the two-vCPU virtual machine this benchmark was built on, runs free
//! to use both CPUs swung by up to 2x in daemon throughput from one run to
//! the next (cross-CPU wake-ups and migrations under host contention),
//! while runs pinned to either CPU alone repeated within a few percent.
//! So every timed phase runs on one CPU, and the untimed verdict checks
//! use every CPU the process was started with.

use std::sync::OnceLock;

/// Room for 1024 CPUs.
const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

/// The affinity mask the process was started with.
static ORIGINAL: OnceLock<Mask> = OnceLock::new();

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set(_mask: &Mask) -> bool {
    false
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on.  Returns that CPU, or `None` where
/// affinity is unavailable (the run then uses every CPU).
pub fn pin() -> Option<usize> {
    let mut mask: Mask = [0; MASK_WORDS];
    #[cfg(target_os = "linux")]
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let original = *ORIGINAL.get_or_init(|| mask);
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: Mask = [0; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    set(&one).then_some(cpu)
}

/// Lets the calling thread run on every CPU the process started with.
pub fn release() {
    if let Some(original) = ORIGINAL.get() {
        set(original);
    }
}

/// How many CPUs the process started with.
pub fn cpus() -> usize {
    ORIGINAL
        .get()
        .map(|mask| mask.iter().map(|word| word.count_ones() as usize).sum())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}
