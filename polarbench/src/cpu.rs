//! Spread the measuring thread evenly over the CPUs it may run on.
//!
//! On a shared virtual machine one CPU can run a third slower than
//! another for minutes at a time, and the scheduler leaves a busy single
//! thread where it started. A run that stayed on one CPU would then
//! measure the CPU it happened to land on. [`Rotor`] hands the units of
//! work to the allowed CPUs in turn, so each run averages over all of
//! them.

/// `cpu_set_t`: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    // glibc; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get_mask() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_mask(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Moves the calling thread round the CPUs it was allowed at creation;
/// restores the original set when dropped.
pub struct Rotor {
    allowed: [u64; MASK_WORDS],
    cpus: Vec<usize>,
    at: usize,
}

impl Rotor {
    /// Pin the calling thread to the first allowed CPU.
    pub fn new() -> Rotor {
        let allowed = get_mask().unwrap_or([0; MASK_WORDS]);
        let cpus = (0..MASK_WORDS * 64).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
        let mut rotor = Rotor { allowed, cpus, at: 0 };
        rotor.pin();
        rotor
    }

    /// CPUs the rotor cycles over (1 when it cannot pin).
    pub fn len(&self) -> usize {
        self.cpus.len().max(1)
    }

    /// Index of the CPU the thread is pinned to, in `0..len()`.
    pub fn slot(&self) -> usize {
        self.at
    }

    /// Pin the thread to the CPU of the `unit`-th unit of work: units
    /// take the CPUs in turn. Call it only between units.
    pub fn pin_for(&mut self, unit: usize) {
        let at = unit % self.len();
        if at != self.at {
            self.at = at;
            self.pin();
        }
    }

    fn pin(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.at];
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        if !set_mask(&mask) {
            // Affinity is not ours to set here: stay wherever we are.
            self.cpus.clear();
            self.at = 0;
        }
    }
}

impl Drop for Rotor {
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            set_mask(&self.allowed);
        }
    }
}
