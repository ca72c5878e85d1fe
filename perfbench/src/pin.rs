//! Confines the benchmark to one CPU.
//!
//! On a 2-vCPU virtual machine the hypervisor takes vCPUs away in bursts
//! (steal time).  A thread woken on another vCPU then waits for that vCPU
//! to be scheduled again, so warm-repeat's sub-millisecond jobs, which hand
//! every request across four threads, ran at 1,700 or 5,500 jobs/s for the
//! same code depending on the burst.  With every thread on one CPU a
//! wake-up is a local context switch, and steal slows the run only in
//! proportion to the time it takes.

/// Pins the calling thread — and every thread it starts afterwards — to the
/// first CPU it is allowed to run on, and returns that CPU's number.
#[cfg(target_os = "linux")]
pub fn to_one_cpu() -> Result<usize, String> {
    // `cpu_set_t` as glibc lays it out: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, size, &only) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Elsewhere the process runs unpinned.
#[cfg(not(target_os = "linux"))]
pub fn to_one_cpu() -> Result<usize, String> {
    Ok(0)
}
