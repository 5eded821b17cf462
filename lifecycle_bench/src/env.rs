//! The environment a result was measured in, and the knobs that must
//! not change which code path runs.

/// Environment variables that select code paths or thread counts in the
/// program. A run refuses to start with any of them set, so parent and
/// change always run the same paths.
pub const PINNED_VARS: [&str; 5] = [
    "STWA_THREADS",
    "STWA_SHARDS",
    "STWA_FUSED",
    "STWA_POOL",
    "STWA_PREFETCH",
];

pub fn pinned_vars_set() -> Vec<&'static str> {
    PINNED_VARS
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn cpu_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512vnni") {
            found.push("avx512vnni");
        }
    }
    found
}

/// The checked-out commit, read from `.git` when the benchmark runs in a
/// git work tree; `none` in an exported checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON line recording where and on what a result was measured.
pub fn describe(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let features: Vec<String> = cpu_features().iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"env\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{trace},\"nproc\":{},\"cpu_features\":[{}],\"git_rev\":\"{}\"}}}}",
        nproc(),
        features.join(","),
        git_rev()
    )
}
