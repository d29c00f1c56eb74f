//! Process-level figures read from `/proc/self`: peak resident set and
//! CPU time (all threads, live and exited).

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// Peak resident set size in MB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds of the whole process, or `None` off
/// Linux. Resolution is one clock tick (10 ms).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space separated, utime and stime being
    // fields 14 and 15 overall.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_plausible_values() {
        let rss = peak_rss_mb().expect("VmHWM");
        assert!(rss > 0.1 && rss < 1e6, "{rss}");
        let before = cpu_seconds().expect("stat");
        let mut acc = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_secs_f64() < 0.05 {
            acc = acc.wrapping_mul(31).wrapping_add(std::hint::black_box(7));
        }
        std::hint::black_box(acc);
        let after = cpu_seconds().expect("stat");
        assert!(after >= before);
    }
}
