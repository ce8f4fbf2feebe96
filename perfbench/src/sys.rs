//! Process measurements read from `/proc`, from outside the runtime.
//!
//! CPU time comes from each thread's `schedstat` (nanoseconds on CPU,
//! user and system together); threads are attributed to a runtime role
//! by the names the runtime gives them (`gmt-n<i>-w<k>` workers,
//! `gmt-n<i>-h<k>` helpers, `gmt-n<i>-comm` communication servers).

use std::collections::BTreeMap;
use std::fs;

/// Runtime thread roles, as named by the runtime at spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    Worker,
    Helper,
    Comm,
    /// The benchmark's own threads and transport helper threads.
    Other,
}

fn role_of(name: &str) -> Role {
    let Some(rest) = name.strip_prefix("gmt-n") else { return Role::Other };
    let Some((_, lane)) = rest.split_once('-') else { return Role::Other };
    if lane == "comm" {
        Role::Comm
    } else if lane.starts_with('w') {
        Role::Worker
    } else if lane.starts_with('h') {
        Role::Helper
    } else {
        Role::Other
    }
}

/// CPU nanoseconds per live thread of this process, keyed by thread id.
#[derive(Debug, Clone, Default)]
pub struct ThreadCpu {
    threads: BTreeMap<u64, (Role, u64)>,
}

impl ThreadCpu {
    /// Reads every thread of this process. `None` when `/proc` (or the
    /// scheduler statistics in it) cannot be read.
    pub fn read() -> Option<ThreadCpu> {
        let mut threads = BTreeMap::new();
        for entry in fs::read_dir("/proc/self/task").ok()? {
            let dir = entry.ok()?.path();
            let Some(tid) = dir.file_name().and_then(|n| n.to_str()?.parse::<u64>().ok()) else {
                continue;
            };
            // A thread may exit between the listing and the read.
            let (Ok(comm), Ok(stat)) =
                (fs::read_to_string(dir.join("comm")), fs::read_to_string(dir.join("schedstat")))
            else {
                continue;
            };
            let ns = stat.split_whitespace().next()?.parse::<u64>().ok()?;
            threads.insert(tid, (role_of(comm.trim()), ns));
        }
        (!threads.is_empty()).then_some(ThreadCpu { threads })
    }

    /// CPU nanoseconds spent since `earlier`, per role and in total.
    /// Threads born in between count from zero; threads that exited in
    /// between are not seen (none do while a cluster is up).
    pub fn since(&self, earlier: &ThreadCpu) -> CpuDelta {
        let mut by_role = BTreeMap::new();
        for (tid, &(role, ns)) in &self.threads {
            let before = earlier.threads.get(tid).map_or(0, |&(_, b)| b);
            *by_role.entry(role).or_insert(0) += ns.saturating_sub(before);
        }
        CpuDelta { by_role }
    }
}

/// CPU time between two [`ThreadCpu`] readings.
#[derive(Debug, Clone, Default)]
pub struct CpuDelta {
    by_role: BTreeMap<Role, u64>,
}

impl CpuDelta {
    pub fn total_ns(&self) -> u64 {
        self.by_role.values().sum()
    }

    pub fn role_ns(&self, role: Role) -> u64 {
        self.by_role.get(&role).copied().unwrap_or(0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_follow_runtime_thread_names() {
        assert_eq!(role_of("gmt-n0-w1"), Role::Worker);
        assert_eq!(role_of("gmt-n12-h0"), Role::Helper);
        assert_eq!(role_of("gmt-n1-comm"), Role::Comm);
        assert_eq!(role_of("gmt-perfbench"), Role::Other);
        assert_eq!(role_of("gmt-nx"), Role::Other);
    }
}
