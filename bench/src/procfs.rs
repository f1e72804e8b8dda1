//! The two `/proc` readings the ledger takes: a process's peak resident
//! set (`VmHWM`) and the CPU time its threads have run (`schedstat`).

/// `VmHWM` in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `(on_cpu_ns, runqueue_wait_ns, timeslices)` from the text of a
/// `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64, u64)> {
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>());
    let parsed = (it.next()?.ok()?, it.next()?.ok()?, it.next()?.ok()?);
    it.next().is_none().then_some(parsed)
}

/// Peak resident set of process `pid` in MB (`"self"` for the caller).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = parse_vm_hwm_kb(&text).ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb as f64 / 1024.0)
}

/// Nanoseconds on CPU summed over every thread of process `pid`
/// (`/proc/<pid>/schedstat` alone covers the main thread only). A thread
/// that exits between the listing and its read is skipped.
pub fn cpu_ns(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = None;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = entry
            .map_err(|e| format!("{dir}: {e}"))?
            .path()
            .join("schedstat");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let (on_cpu, _, _) = parse_schedstat(&text)
            .ok_or_else(|| format!("{}: not three counters", path.display()))?;
        total = Some(total.unwrap_or(0) + on_cpu);
    }
    total.ok_or_else(|| format!("{dir}: no readable thread"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `/proc/<pid>/status` on Linux 6.18 (tabs kept).
    const STATUS: &str = "Name:\tledger\nUmask:\t0022\nState:\tR (running)\nTgid:\t18353\n\
        Pid:\t18353\nVmPeak:\t  412640 kB\nVmSize:\t  402640 kB\nVmLck:\t       0 kB\n\
        VmHWM:\t  181440 kB\nVmRSS:\t  151440 kB\nRssAnon:\t  100100 kB\nThreads:\t2\n";

    #[test]
    fn vm_hwm_is_read_from_a_captured_status_file() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(181_440));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        // a kernel thread's status has no Vm* lines at all
        assert_eq!(parse_vm_hwm_kb("Name:\tkthreadd\nKthread:\t1\n"), None);
    }

    #[test]
    fn schedstat_is_three_counters() {
        assert_eq!(
            parse_schedstat("242616645 840133 27\n"),
            Some((242_616_645, 840_133, 27))
        );
        assert_eq!(parse_schedstat("0 89620 1"), Some((0, 89_620, 1)));
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("1 2 3 4"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn this_process_has_a_peak_and_cpu_time() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        cpu_ns(std::process::id()).unwrap();
    }
}
