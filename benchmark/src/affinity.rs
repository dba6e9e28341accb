//! Which cores the load generator and the server run on.
//!
//! The benchmark shares a few cores of a busy host. Left to the scheduler,
//! the server's two query workers, its connection thread and the generator
//! are more runnable threads than the two cores of the box it was written on,
//! and what a click then takes is decided by who was put where: the same
//! commit's `session_ms` spread 22 % over twelve runs, and 17 % over the
//! twelve run in between them with the two sides kept apart. So one allowed
//! core is the generator's and the others are the server's — which then
//! counts them (`available_parallelism`) and sizes its worker pool to match.
//! With one core allowed there is nothing to split and nothing is pinned.

use std::os::unix::process::CommandExt;
use std::process::Command;

/// `cpu_set_t`: 1024 bits.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[derive(Clone, Copy)]
pub struct CpuSet([u64; WORDS]);

impl CpuSet {
    /// The cores the calling thread may run on; none if the kernel will not say.
    fn allowed() -> CpuSet {
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: the mask is a live array of the length given; 0 is this thread.
        if unsafe { sched_getaffinity(0, WORDS * 8, set.0.as_mut_ptr()) } != 0 {
            set.0 = [0; WORDS];
        }
        set
    }

    pub fn cores(&self) -> Vec<usize> {
        (0..WORDS * 64)
            .filter(|c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    fn of(cores: &[usize]) -> CpuSet {
        let mut set = CpuSet([0; WORDS]);
        for c in cores {
            set.0[c / 64] |= 1 << (c % 64);
        }
        set
    }

    /// Confine the calling thread, and every thread it starts from now on.
    /// Best effort: a refusal leaves things as the scheduler had them.
    pub fn confine_this_thread(&self) {
        // SAFETY: as in `allowed`, and the kernel only reads the mask.
        unsafe { sched_setaffinity(0, WORDS * 8, self.0.as_ptr()) };
    }

    /// Confine the process `command` will start, from before it runs.
    pub fn confine(self, command: &mut Command) {
        // SAFETY: the closure runs in the forked child and makes one system
        // call on memory it owns; it allocates nothing and takes no lock.
        unsafe {
            command.pre_exec(move || {
                sched_setaffinity(0, WORDS * 8, self.0.as_ptr());
                Ok(())
            });
        }
    }
}

/// The cores of this run: all that are allowed, the generator's, the server's.
#[derive(Clone, Copy)]
pub struct Cores {
    pub all: CpuSet,
    pub generator: CpuSet,
    pub server: CpuSet,
}

impl Cores {
    /// The first allowed core for the generator, the rest for the server.
    pub fn split() -> Cores {
        let all = CpuSet::allowed();
        match all.cores().split_first() {
            Some((first, rest)) if !rest.is_empty() => Cores {
                all,
                generator: CpuSet::of(&[*first]),
                server: CpuSet::of(rest),
            },
            _ => Cores {
                all,
                generator: all,
                server: all,
            },
        }
    }
}
