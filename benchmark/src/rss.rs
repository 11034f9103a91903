//! Peak resident set of this process: `VmHWM` from `/proc/self/status`.

/// The `VmHWM:` line's value in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak RSS in MiB, or `None` where `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_hwm_line() {
        let s = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(s), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_value_covers_a_touched_buffer() {
        let buf = vec![1u8; 32 << 20];
        std::hint::black_box(&buf);
        let mib = peak_rss_mib().expect("/proc/self/status");
        assert!(mib >= 32.0, "peak RSS {mib} MiB after touching 32 MiB");
    }
}
