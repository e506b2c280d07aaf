//! CPU affinity through the Linux scheduler calls (std links libc, so the
//! symbols are there without a crate).

#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if r != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&cpu| set.0[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpu`; false if the kernel refused.
pub fn pin(cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid, initialised mask of the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}
