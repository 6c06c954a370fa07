//! Process accounting read from `/proc` — CPU time, resident memory,
//! context switches — and CPU placement. Parsers take the file text so
//! they are testable on canned input; the readers panic with the path
//! when `/proc` is missing, because every number built on them would
//! be fiction.

use std::fs;

/// Microseconds per `/proc/*/stat` clock tick (`USER_HZ` is 100 on
/// every Linux ABI; the harness reports `nproc` beside the results so
/// the 10 ms granularity can be judged against the window length).
const US_PER_TICK: u64 = 10_000;

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    // after the comm: state is field 3, utime 14, stime 15
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// One numeric field of a `/proc/<pid>/status` document (`VmRSS`,
/// `VmHWM` in kB; `voluntary_ctxt_switches` as a count).
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn stat_us(path: &str) -> u64 {
    parse_stat_ticks(&read(path)).unwrap_or_else(|| panic!("unparseable {path}")) * US_PER_TICK
}

fn status_field(key: &str) -> u64 {
    parse_status_field(&read("/proc/self/status"), key)
        .unwrap_or_else(|| panic!("no {key} in /proc/self/status"))
}

/// CPU time of the whole process (all threads), microseconds.
pub fn process_cpu_us() -> u64 {
    stat_us("/proc/self/stat")
}

/// CPU time of the calling thread, microseconds.
pub fn thread_cpu_us() -> u64 {
    stat_us("/proc/thread-self/stat")
}

/// Resident set size, bytes.
pub fn rss_bytes() -> u64 {
    status_field("VmRSS") * 1024
}

/// Peak resident set size, bytes.
pub fn peak_rss_bytes() -> u64 {
    status_field("VmHWM") * 1024
}

/// Voluntary context switches summed over every thread of the process
/// (`/proc/self/status` alone covers only the main thread).
pub fn vol_ctx_switches() -> u64 {
    let tasks = fs::read_dir("/proc/self/task")
        .unwrap_or_else(|e| panic!("cannot list /proc/self/task: {e}"));
    tasks
        .flatten()
        // a thread may exit between the listing and the read
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|text| parse_status_field(&text, "voluntary_ctxt_switches"))
        .sum()
}

extern "C" {
    /// glibc/musl `sched_setaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread (and the threads it spawns from now on) to
/// one CPU. Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; 16]; // 1024 CPUs, the kernel's cpu_set_t
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the byte
    // length passed beside it, and the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "10242 (ofp worker) 1) R 10238 10242 10238 0 -1 4194304 79 0 1 0 \
                        731 42 0 0 20 0 3 0 189920 2703360 283 18446744073709551615";

    const STATUS: &str = "Name:\te2e-bench\nVmPeak:\t   99999 kB\nVmHWM:\t    1796 kB\n\
                          VmRSS:\t    1540 kB\nThreads:\t3\n\
                          voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t4\n";

    #[test]
    fn stat_sums_user_and_system_ticks_past_a_hostile_comm() {
        assert_eq!(parse_stat_ticks(STAT), Some(773));
        assert_eq!(parse_stat_ticks("1 (x) R 2 3"), None);
        assert_eq!(parse_stat_ticks("no parens at all"), None);
    }

    #[test]
    fn status_fields_by_exact_key() {
        assert_eq!(parse_status_field(STATUS, "VmRSS"), Some(1540));
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(1796));
        // the prefix of a longer key must not match
        assert_eq!(
            parse_status_field(STATUS, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(parse_status_field(STATUS, "Vm"), None);
        assert_eq!(parse_status_field(STATUS, "VmSwap"), None);
    }

    #[test]
    fn live_readers_answer_on_this_kernel() {
        assert!(rss_bytes() > 0);
        assert!(peak_rss_bytes() >= rss_bytes() / 2);
        let _ = (process_cpu_us(), thread_cpu_us(), vol_ctx_switches());
    }
}
