//! Moving the client's threads over the CPUs the process may use.
//!
//! On a shared machine each vCPU has slow phases of its own, seconds to
//! minutes long, in which the same pass takes up to 1.5 times as long.
//! A thread the scheduler leaves on one vCPU measures that vCPU's phases;
//! moved on to the next allowed CPU every quarter second, it samples all
//! of them alike, and runs differ far less (see `README.md`).

/// A CPU set as the kernel's affinity calls take it: 1024 bits.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(tid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(tid: i32, size: usize, mask: *const u64) -> i32;
        pub fn gettid() -> i32;
    }
}

/// Elsewhere nothing rotates: every call fails.
#[cfg(not(target_os = "linux"))]
mod sys {
    pub unsafe fn sched_getaffinity(_: i32, _: usize, _: *mut u64) -> i32 {
        -1
    }
    pub unsafe fn sched_setaffinity(_: i32, _: usize, _: *const u64) -> i32 {
        -1
    }
    pub unsafe fn gettid() -> i32 {
        0
    }
}

/// The calling thread's id, for [`Rotation::follow`].
pub fn thread_id() -> i32 {
    // SAFETY: `gettid` takes no arguments and cannot fail.
    unsafe { sys::gettid() }
}

/// Pins `tid` (0: the calling thread) to `mask`. A failure, such as a
/// CPU gone offline, leaves the thread where it was.
fn pin(tid: i32, mask: &Mask) -> bool {
    // SAFETY: `mask` is readable for the size passed.
    unsafe { sys::sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// The calling thread and its followers, moved together from one
/// allowed CPU to the next. Dropping it gives the calling thread back
/// every CPU it could use before.
pub struct Rotation {
    allowed: Mask,
    cpus: Vec<usize>,
    next: usize,
    followers: Vec<i32>,
}

impl Rotation {
    /// A rotation over the CPUs the calling thread may use now; none
    /// when it may use only one, or the kernel does not say.
    pub fn new() -> Rotation {
        let mut allowed: Mask = [0; 16];
        // SAFETY: `allowed` is writable for the size passed.
        let known = unsafe {
            sys::sched_getaffinity(0, std::mem::size_of::<Mask>(), allowed.as_mut_ptr()) == 0
        };
        let cpus = (0..allowed.len() * 64)
            .filter(|&c| known && allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Rotation {
            allowed,
            cpus,
            next: 0,
            followers: Vec::new(),
        }
    }

    /// Moves thread `tid` along with the calling thread from the next
    /// step on.
    pub fn follow(&mut self, tid: i32) {
        self.followers.push(tid);
    }

    /// Pins the calling thread and its followers to the next CPU.
    pub fn step(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        for tid in std::iter::once(0).chain(self.followers.iter().copied()) {
            pin(tid, &mask);
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            pin(0, &self.allowed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_moves_the_thread_and_gives_its_cpus_back() {
        // Each test runs on a thread of its own, so pinning it is local.
        let mut r = Rotation::new();
        let before = r.cpus.clone();
        r.follow(thread_id());
        for _ in 0..before.len() {
            r.step();
            let now = Rotation::new();
            if before.len() >= 2 {
                assert_eq!(now.cpus.len(), 1);
                assert!(before.contains(&now.cpus[0]));
            }
        }
        drop(r);
        assert_eq!(Rotation::new().cpus, before);
    }
}
