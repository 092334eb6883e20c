//! The modeled and counted metrics (Eq. 8–14 charges, model residuals,
//! sweep counts, skip ratios, the solo apply's `sim_exec_ps`) depend
//! only on the seed: two runs must agree bit for bit, not within a
//! bound.

use heterosvd_serve::SvdService;
use perfbench::workload::Workload;
use perfbench::{probe, Metrics};
use std::collections::BTreeMap;

fn exact_metrics(seed: u64) -> BTreeMap<String, f64> {
    let config = Workload::DecomposeMix.serve_config();
    let mut metrics = Metrics::default();
    probe::core_probes(&config, seed, &[32, 64], &mut metrics).expect("core probes");
    let service = SvdService::start(config).expect("service starts");
    probe::serve_probes(&service, seed, &mut metrics).expect("serve probes");
    service.shutdown();
    metrics.exact_only()
}

#[test]
fn modeled_and_count_metrics_repeat_exactly() {
    let first = exact_metrics(3);
    for name in [
        "core.modeled_task_us.32",
        "perf_model.residual_pct.64",
        "kernels.sweeps.32",
        "core.skip_frac.64",
        "serve.apply_modeled_us",
    ] {
        assert!(first.contains_key(name), "missing {name}: {first:?}");
    }
    let second = exact_metrics(3);
    for (name, value) in &first {
        assert_eq!(
            value.to_bits(),
            second[name].to_bits(),
            "{name}: {value} then {}",
            second[name]
        );
    }
    assert_ne!(first, exact_metrics(4), "the seed must reach the inputs");
}
