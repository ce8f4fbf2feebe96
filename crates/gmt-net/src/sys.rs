//! Raw-syscall shims: the workspace vendors no libc binding, so `mmap`
//! and `futex` go through the stable kernel ABI directly on x86-64
//! Linux. The shm segment maps its file through them, and every
//! [`Doorbell`](crate::Doorbell) parks and wakes through them. The
//! fallback keeps both usable anywhere: futex waits degrade to short
//! bounded sleeps (wakes become no-ops), and only cross-process shm
//! attach needs the real thing.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    const SYS_MMAP: i64 = 9;
    const SYS_MUNMAP: i64 = 11;
    const SYS_FUTEX: i64 = 202;
    const FUTEX_WAIT: i64 = 0;
    const FUTEX_WAKE: i64 = 1;
    const PROT_READ_WRITE: i64 = 0x3;
    const MAP_SHARED: i64 = 0x1;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// One raw syscall. rcx/r11 are clobbered by the `syscall`
    /// instruction itself; errors come back as `-errno`.
    ///
    /// # Safety
    ///
    /// The arguments must be valid for syscall `n` as the kernel ABI
    /// defines it (pointers live and sized as that call requires).
    unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
        let ret: i64;
        // SAFETY: the caller upholds the syscall's own contract; the asm
        // declares every register the instruction reads or clobbers.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub(crate) const FILE_MMAP_SUPPORTED: bool = true;

    /// Maps `len` bytes of `file` shared read-write.
    pub(crate) fn map_file(file: &std::fs::File, len: usize) -> std::io::Result<*mut u8> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh mapping at a kernel-chosen address touches no
        // existing memory; `file` is an open descriptor.
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len as i64,
                PROT_READ_WRITE,
                MAP_SHARED,
                file.as_raw_fd() as i64,
                0,
            )
        };
        if (-4095..0).contains(&ret) {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as *mut u8)
        }
    }

    /// Unmaps a mapping [`map_file`] returned.
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must be exactly one live mapping from [`map_file`],
    /// and nothing may touch it afterwards.
    pub(crate) unsafe fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: the caller guarantees the range is one dead mapping.
        unsafe { syscall6(SYS_MUNMAP, ptr as i64, len as i64, 0, 0, 0, 0) };
    }

    /// `FUTEX_WAIT`: sleeps while `*word == expected`, at most `timeout`.
    /// EAGAIN (value changed), EINTR and ETIMEDOUT are all fine — every
    /// caller re-checks its condition in a loop. The private flavour is
    /// not used: a doorbell may live in a segment shared across
    /// processes.
    pub(crate) fn futex_wait(word: &AtomicU32, expected: u32, timeout: Duration) {
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `word` is a live, aligned u32 and `ts` outlives the
        // call; the kernel only reads both.
        unsafe {
            syscall6(
                SYS_FUTEX,
                word.as_ptr() as i64,
                FUTEX_WAIT,
                i64::from(expected),
                std::ptr::from_ref(&ts) as i64,
                0,
                0,
            );
        }
    }

    /// `FUTEX_WAKE`: wakes up to `n` waiters on `word`.
    pub(crate) fn futex_wake(word: &AtomicU32, n: i32) {
        // SAFETY: `word` is a live, aligned u32; the kernel only uses its
        // address as the wait-queue key.
        unsafe { syscall6(SYS_FUTEX, word.as_ptr() as i64, FUTEX_WAKE, i64::from(n), 0, 0, 0) };
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    pub(crate) const FILE_MMAP_SUPPORTED: bool = false;

    pub(crate) fn map_file(_file: &std::fs::File, _len: usize) -> std::io::Result<*mut u8> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "shm cross-process attach needs the x86-64 Linux syscall shim",
        ))
    }

    /// # Safety
    ///
    /// Never called: [`map_file`] cannot succeed here.
    pub(crate) unsafe fn unmap(_ptr: *mut u8, _len: usize) {}

    /// Degraded futex wait: a bounded sleep. Waiters re-check their
    /// condition on return, so this stays correct — it only trades the
    /// targeted wake for up to 50 µs of latency.
    pub(crate) fn futex_wait(_word: &AtomicU32, _expected: u32, timeout: Duration) {
        std::thread::sleep(timeout.min(Duration::from_micros(50)));
    }

    pub(crate) fn futex_wake(_word: &AtomicU32, _n: i32) {}
}

pub(crate) use imp::*;
