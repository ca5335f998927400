//! Where a result came from: host, toolchain, source revision.
//!
//! The host is read through `cpuid` rather than `/proc` or `/sys`, so the
//! benchmark reads nothing outside its checkout.

use std::path::Path;

use mpix_json::Value;

/// CPU brand string and L2/L3 sizes in bytes (`None` when unknown).
pub fn cpu() -> (String, Option<u64>, Option<u64>) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        let max_ext = __cpuid(0x8000_0000).eax;
        let mut brand = String::from("unknown");
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            brand = String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
        // Deterministic cache parameters: leaf 4 (Intel) or 0x8000001D
        // (AMD), one sub-leaf per cache until a null type.
        let vendor = __cpuid(0);
        let amd = vendor.ebx == u32::from_le_bytes(*b"Auth");
        let leaf = if amd { 0x8000_001D } else { 4 };
        let (mut l2, mut l3) = (None, None);
        let max_basic = vendor.eax;
        if (amd && max_ext >= leaf) || (!amd && max_basic >= 4) {
            for sub in 0..16 {
                let r = __cpuid_count(leaf, sub);
                if r.eax & 0x1f == 0 {
                    break;
                }
                let level = (r.eax >> 5) & 0x7;
                let ways = ((r.ebx >> 22) & 0x3ff) as u64 + 1;
                let parts = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
                let line = (r.ebx & 0xfff) as u64 + 1;
                let sets = r.ecx as u64 + 1;
                let size = ways * parts * line * sets;
                match level {
                    2 => l2 = Some(size),
                    3 => l3 = Some(size),
                    _ => {}
                }
            }
        }
        (brand, l2, l3)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        ("unknown".to_string(), None, None)
    }
}

/// `rustc --version`, or `unknown` if no compiler is on the path.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` at the checkout root; a
/// checkout without git metadata reports `unknown`.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

/// The provenance block printed with every result.
pub fn block(root: &Path, workload: &str, seed: u64, working_set_bytes: u64) -> Value {
    let (model, l2, l3) = cpu();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let backends: Vec<Value> = mpix_core::available_backends()
        .iter()
        .map(|b| Value::from(b.to_string()))
        .collect();
    let opt = |v: Option<u64>| v.map_or(Value::Null, Value::from);
    Value::Obj(vec![
        ("nproc".into(), nproc.into()),
        ("cpu_model".into(), model.into()),
        ("l2_bytes".into(), opt(l2)),
        ("l3_bytes".into(), opt(l3)),
        ("rustc".into(), rustc_version().into()),
        ("git_rev".into(), git_rev(root).into()),
        ("available_backends".into(), Value::Arr(backends)),
        ("workload".into(), workload.into()),
        ("seed".into(), seed.into()),
        ("working_set_bytes".into(), working_set_bytes.into()),
    ])
}
