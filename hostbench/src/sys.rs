//! What the benchmark reads about the machine and the build: peak
//! resident memory, source revision and the run manifest.

use phox_core::tensor::{gemm, gemm_i8, parallel};
use phox_core::trace::json::json_string;

/// Peak resident set size (`VmHWM`) in kB, parsed from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// Peak resident set size of this process, MB (2^20 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// The source revision of the working directory: `.git/HEAD` resolved
/// through one symbolic ref, or `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_owned()),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

/// Cores the OS grants this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One-line JSON manifest identifying the machine, the build and the run.
pub fn manifest_json(workload: &str, seed: u64, trace: bool, reference_digest: &str) -> String {
    format!(
        concat!(
            "{{\"manifest\":{{\"workload\":{},\"seed\":{},\"trace\":{},",
            "\"available_parallelism\":{},\"max_threads\":{},",
            "\"simd_f64\":{},\"simd_i8\":{},\"git_revision\":{},",
            "\"rustc\":{},\"reference_digest\":{}}}}}"
        ),
        json_string(workload),
        seed,
        trace,
        available_parallelism(),
        parallel::max_threads(),
        gemm::simd::simd_active(),
        gemm_i8::simd_active(),
        json_string(&git_revision()),
        json_string(env!("HOSTBENCH_RUSTC")),
        json_string(reference_digest),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_is_parsed_in_kb() {
        let status = "Name:\tphox\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(123_456));
    }

    #[test]
    fn vmhwm_missing_or_malformed_is_none() {
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 1000 MB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\n"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
