//! A `--smoke` run of all four workloads through the real binaries:
//! `nm-perf` drives the `nmcdr` binary built next to it (the workspace
//! test build builds it for nm-cli's own integration tests).

use nm_obs::Json;
use std::process::Command;

#[test]
fn smoke_run_of_every_workload_is_correct_and_reports_every_metric() {
    let exe = env!("CARGO_BIN_EXE_nm-perf");
    let nmcdr =
        std::path::Path::new(exe).with_file_name(format!("nmcdr{}", std::env::consts::EXE_SUFFIX));
    assert!(
        nmcdr.exists(),
        "{} is missing: build it first (cargo build --release -p nm-cli)",
        nmcdr.display()
    );
    let out = Command::new(exe)
        .args(["--smoke", "--seed", "5"])
        .output()
        .expect("nm-perf runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "nm-perf failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);

    let metrics = result.get("metrics").expect("metrics");
    let value = |w: &nm_perf::Workload, name: &str| {
        metrics
            .get(&format!("{}/{name}", w.name()))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{}/{name} missing:\n{stdout}", w.name()))
    };
    for w in &nm_perf::Workload::ALL {
        for d in &nm_perf::END_TO_END {
            assert!(
                value(w, d.name) > 0.0,
                "{}/{} is not positive",
                w.name(),
                d.name
            );
        }
        for d in &nm_perf::PER_LAYER {
            assert!(value(w, d.name).is_finite());
        }
    }
    // Each workload exercises its own layers.
    use nm_perf::Workload::*;
    assert!(value(&TrainNmcdr, "nm-autograd.op.matmul_gflops") > 0.0);
    assert!(value(&ServeWide, "nm-serve.merge_mcand_per_s") > 0.0);
    assert!(value(&ServeMixed, "nm-serve.cache_hit_kreq_per_s") > 0.0);
    assert!(value(&StreamOnline, "nm-stream.commit_per_s") > 0.0);
    assert_eq!(value(&TrainNmcdr, "nm-serve.parse_kreq_per_s"), 0.0);
}
