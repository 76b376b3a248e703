//! What the kernel knows about this process: peak and current resident
//! memory, on-CPU time and minor page faults. Linux only; every reader
//! returns `None` elsewhere and the metric built on it reads 0.

use std::fs;

/// The value in kB of a `/proc/<pid>/status` field such as `VmHWM`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let mut parts = rest.split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// On-CPU nanoseconds: the first field of `/proc/<pid>/schedstat`.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Minor page faults: field 10 of `/proc/<pid>/stat`. The command name
/// (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_minflt(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); minflt is field 10.
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

fn status_kb(field: &str) -> Option<u64> {
    parse_status_kb(&fs::read_to_string("/proc/self/status").ok()?, field)
}

/// Peak resident set size of this process so far, in kB.
pub fn peak_rss_kb() -> Option<u64> {
    status_kb("VmHWM")
}

/// Current resident set size of this process, in kB.
pub fn rss_kb() -> Option<u64> {
    status_kb("VmRSS")
}

/// Nanoseconds this process has spent on a CPU. The scheduler folds the
/// running slice in at a tick or a deschedule, so a read can lag by a few
/// milliseconds: use it over intervals of a second or more.
pub fn cpu_ns() -> Option<u64> {
    parse_schedstat_ns(&fs::read_to_string("/proc/self/schedstat").ok()?)
}

/// Minor page faults this process has taken so far.
pub fn minor_faults() -> Option<u64> {
    parse_stat_minflt(&fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tpod-benchmark\nVmPeak:\t  412344 kB\nVmHWM:\t  375400 kB\n\
                          VmRSS:\t  120044 kB\nThreads:\t1\n";

    #[test]
    fn status_fields_parse_in_kb() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(375_400));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(120_044));
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        // A prefix of another field's name must not match it.
        assert_eq!(parse_status_kb(STATUS, "Vm"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn schedstat_first_field_is_cpu_time() {
        assert_eq!(
            parse_schedstat_ns("1234567890 4242 17\n"),
            Some(1_234_567_890)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn minflt_survives_a_hostile_command_name() {
        let stat = "4242 (pod bench) x) R 1 4242 4242 0 -1 4194304 98765 0 3 0 12 4 0 0 20 0 1 0";
        assert_eq!(parse_stat_minflt(stat), Some(98_765));
        assert_eq!(parse_stat_minflt("no parens here"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_readers_agree_with_each_other() {
        // Other tests allocate meanwhile: read the peak after the current.
        let (now, peak) = (rss_kb().unwrap(), peak_rss_kb().unwrap());
        assert!(peak >= now && now > 0);
        assert!(cpu_ns().is_some());
        assert!(minor_faults().unwrap() > 0);
    }
}
