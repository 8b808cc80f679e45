//! The shape of the machine a result was measured on. Two results are
//! comparable only when it matches.

use crate::json::{obj, Json};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostShape {
    pub nproc: usize,
    /// Best SIMD tier the CPU advertises: `avx512`, `avx2` or `scalar`.
    pub simd: String,
    pub kernel: String,
}

impl HostShape {
    pub fn detect() -> HostShape {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        HostShape {
            nproc,
            simd: simd_tier(&cpuinfo).to_string(),
            kernel,
        }
    }

    /// `T = C = min(nproc, 4)`: threads per one-shot count, daemon
    /// executors, and load-generator connections.
    pub fn parallelism(&self) -> usize {
        self.nproc.clamp(1, 4)
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("nproc", Json::U64(self.nproc as u64)),
            ("simd", Json::Str(self.simd.clone())),
            ("kernel", Json::Str(self.kernel.clone())),
        ])
    }

    pub fn from_json(j: &Json) -> Option<HostShape> {
        Some(HostShape {
            nproc: j.get("nproc")?.as_u64()? as usize,
            simd: j.get("simd")?.as_str()?.to_string(),
            kernel: j.get("kernel")?.as_str()?.to_string(),
        })
    }
}

/// The tier from the first `flags` line of `/proc/cpuinfo` text.
pub fn simd_tier(cpuinfo: &str) -> &'static str {
    let flags = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .unwrap_or("");
    let has = |f: &str| flags.split_whitespace().any(|w| w == f);
    if has("avx512f") {
        "avx512"
    } else if has("avx2") {
        "avx2"
    } else {
        "scalar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_tier_reads_the_flags_line() {
        assert_eq!(
            simd_tier("model name: x\nflags\t\t: fpu sse2 avx avx2 avx512f\n"),
            "avx512"
        );
        assert_eq!(simd_tier("flags : fpu avx2 avx512vl_not\n"), "avx2");
        assert_eq!(simd_tier("flags : fpu sse2\n"), "scalar");
        assert_eq!(simd_tier(""), "scalar");
    }

    #[test]
    fn shape_round_trips_and_caps_parallelism() {
        let h = HostShape {
            nproc: 16,
            simd: "avx2".into(),
            kernel: "6.1".into(),
        };
        assert_eq!(HostShape::from_json(&h.to_json()), Some(h.clone()));
        assert_eq!(h.parallelism(), 4);
        assert_eq!(HostShape { nproc: 2, ..h }.parallelism(), 2);
    }
}
