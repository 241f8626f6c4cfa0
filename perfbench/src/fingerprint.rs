//! Host and build facts printed with every result, so that a number can
//! be traced to the machine and the build that produced it.

/// The fingerprint as one JSON object.
pub fn json(workload: &str, seed: u64, revision: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let (avx2, fma) = cpu_features();
    let mut features = vec!["simd"];
    if cfg!(feature = "traced") {
        features.push("telemetry");
    }
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"cpu\":\"{}\",\"nproc\":{},\"avx2\":{avx2},\
         \"fma\":{fma},\"features\":{:?},\"telemetry_enabled\":{},\"revision\":\"{}\"}}",
        cpu.replace('"', "'"),
        crate::Opts::threads(),
        features,
        rlibm_obs::enabled(),
        revision.replace('"', "'"),
    )
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> (bool, bool) {
    (
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("fma"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> (bool, bool) {
    (false, false)
}
