//! What the benchmark reads about the machine and its processes: the
//! machine fingerprint, CPU clocks and resident-set sizes.

use std::path::Path;

use ahs_obs::Json;

/// Identifies the machine and toolchain a result came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Kernel release.
    pub kernel: String,
    /// Git revision of the source, `unknown` outside a git checkout.
    pub git_revision: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this machine.
    pub fn current() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
            kernel,
            git_revision: ahs_obs::git_revision(),
        }
    }

    /// The fields as `(name, value)` pairs, in a fixed order.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("cpu_model", self.cpu_model.clone()),
            ("rustc", self.rustc.clone()),
            ("kernel", self.kernel.clone()),
            ("git_revision", self.git_revision.clone()),
        ]
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.fields()
                .into_iter()
                .map(|(k, v)| (k, Json::str(v)))
                .collect(),
        )
    }

    /// Reads a fingerprint back from [`Fingerprint::to_json`] output.
    pub fn from_json(doc: &Json) -> Option<Fingerprint> {
        let field = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_owned);
        Some(Fingerprint {
            nproc: field("nproc")?.parse().ok()?,
            cpu_model: field("cpu_model")?,
            rustc: field("rustc")?,
            kernel: field("kernel")?,
            git_revision: field("git_revision")?,
        })
    }

    /// Names of the fields in which two fingerprints differ.
    pub fn differences(&self, other: &Fingerprint) -> Vec<&'static str> {
        self.fields()
            .into_iter()
            .zip(other.fields())
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, _)| a.0)
            .collect()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// CPU seconds (user + sys) this process has used, over all its
/// threads including those that have exited.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`.
fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf takes a plain integer and has no memory effects.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// CPU seconds (user + sys) of process `pid` plus every child it has
/// reaped, from `/proc/<pid>/stat`.
pub fn tree_cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, so utime..cstime (14..17) sit at 11..14.
    let ticks: f64 = fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<f64>().ok())
        .sum::<Option<f64>>()?;
    Some(ticks / clock_ticks_per_second())
}

/// A `Vm*` field of `/proc/<pid>/status` (`pid` 0: this process), in
/// MiB.
fn vm_field_mib(pid: u32, field: &str) -> Option<f64> {
    let path = if pid == 0 {
        "/proc/self/status".to_owned()
    } else {
        format!("/proc/{pid}/status")
    };
    let text = std::fs::read_to_string(Path::new(&path)).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set (`VmHWM`) of `pid` (0: this process), in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    vm_field_mib(pid, "VmHWM:")
}

/// Current resident set (`VmRSS`) of `pid` (0: this process), in MiB.
pub fn rss_mib(pid: u32) -> Option<f64> {
    vm_field_mib(pid, "VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_round_trips_and_reports_differences() {
        let a = Fingerprint::current();
        assert!(a.nproc >= 1);
        let b = Fingerprint::from_json(&a.to_json()).expect("round trip");
        assert_eq!(a, b);
        assert!(a.differences(&b).is_empty());
        let c = Fingerprint {
            nproc: a.nproc + 1,
            kernel: "other".into(),
            ..a.clone()
        };
        assert_eq!(a.differences(&c), vec!["nproc", "kernel"]);
    }

    #[test]
    fn process_clocks_advance() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_seconds() > before, "{x}");
        assert!(tree_cpu_seconds(std::process::id()).is_some());
        assert!(peak_rss_mib(0).is_some_and(|m| m > 0.0));
        assert!(rss_mib(std::process::id()).is_some_and(|m| m > 0.0));
    }
}
