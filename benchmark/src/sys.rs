//! What the benchmark needs from the operating system and the standard
//! library does not offer: CPU pinning, one allocator arena, the
//! process's own CPU time and peak memory, and a scratch directory that
//! is removed however the process leaves.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_WORDS: usize = 16;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Keep glibc's allocator to one arena. Call before spawning any thread.
///
/// With the default of several arenas, which thread gets which arena
/// depends on timing, and the peak resident set of the same run comes
/// out at 35 or at 41 MiB from one invocation to the next. The process
/// is pinned to one CPU, so more arenas would buy it nothing.
pub fn single_malloc_arena() {
    // SAFETY: `mallopt` only records the setting; no thread but this
    // one exists yet.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

/// Where the process was pinned, for the output header.
pub struct Pinned {
    /// CPUs in the allowed mask before pinning.
    pub allowed: usize,
    /// The CPU every thread of this process now runs on.
    pub cpu: usize,
}

/// Pin the calling thread — and every thread it spawns afterwards — to
/// the first CPU of its allowed mask. Call before spawning any thread.
///
/// Unpinned, the same binary runs the same workload up to 2× apart
/// depending on where the worker, client-reactor and daemon-loop
/// threads land; pinned it repeats within a few percent.
pub fn pin_to_first_cpu() -> std::io::Result<Pinned> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let allowed = mask.iter().map(|w| w.count_ones() as usize).sum();
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; CPU_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(Pinned { allowed, cpu })
}

/// CPU time (user + system) this process has consumed so far, every
/// thread included, to the nanosecond — `getrusage` rounds to
/// microseconds, which is a thousandth of an 18-task run.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) cannot fail");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    // SAFETY: an all-zero `Rusage` is a valid value of the type.
    let mut ru: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `ru` is a writable `struct rusage`; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    ru.maxrss_kib as f64 / 1024.0
}

/// `benchmark/out`: the one directory the benchmark writes to (traces,
/// the store replay's data dir). The benchmark may touch nothing
/// outside its checkout, so this is under the crate, not in `/tmp`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory under [`out_dir`] removed on drop — normal exit and
/// unwinding panic alike.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(tag: &str) -> std::io::Result<ScratchDir> {
        let path = out_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
