//! Service set-up: start, plan warm-up, and the workload's own
//! publishes or cache priming, all before timing starts.

use crate::workload::{Inputs, Workload, MODEL_RANK};
use heterosvd_serve::{ClientId, ServeConfig, SvdService};
use std::time::Instant;
use svd_kernels::Matrix;

/// Starts the workload's service under `config` and brings it to steady
/// state: publishes `inputs.models`, or primes the factor cache with
/// `inputs.clients`. Returns the service and the wall seconds set-up
/// took.
///
/// # Errors
///
/// The first failed start, plan build, publish, or priming update.
pub fn setup(
    w: Workload,
    config: &ServeConfig,
    inputs: &Inputs,
) -> Result<(SvdService, f64), String> {
    let start = Instant::now();
    let service = SvdService::start(config.clone()).map_err(|e| format!("start: {e}"))?;
    // Plan probe: build every accelerator plan (and its replay profile)
    // the workload's shapes can execute under, solo and packed.
    let plans = heterosvd::plan_cache::global();
    for shape in w.shapes() {
        let cfg = config
            .accelerator_config(shape)
            .map_err(|e| format!("config {shape:?}: {e}"))?;
        plans
            .prewarm(&cfg)
            .map_err(|e| format!("plan {shape:?}: {e}"))?;
        for tenants in 2..=config.packed_tenants(shape, config.max_batch) {
            let cfg = config
                .packed_accelerator_config(shape, tenants)
                .map_err(|e| format!("packed config {shape:?}x{tenants}: {e}"))?;
            plans
                .prewarm(&cfg)
                .map_err(|e| format!("packed plan {shape:?}x{tenants}: {e}"))?;
        }
    }
    match w {
        Workload::DecomposeMix => {
            // One functional request per shape spins up the batch pool.
            let handles = w
                .shapes()
                .into_iter()
                .map(|(r, c)| service.try_submit(Matrix::from_fn(r, c, warm_entry)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("warm-up submit: {e}"))?;
            for h in handles {
                h.wait().map_err(|e| format!("warm-up: {e}"))?;
            }
        }
        Workload::ApplyPublish => {
            let handles = inputs
                .models
                .iter()
                .map(|(model, a)| service.try_submit_publish(*model, a.clone(), MODEL_RANK))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("publish submit: {e}"))?;
            for h in handles {
                h.wait().map_err(|e| format!("publish: {e}"))?;
            }
        }
        Workload::UpdateDrift => {
            // Each client's first submission is a cold full solve that
            // fills its factor-cache slot.
            let handles = inputs
                .clients
                .iter()
                .enumerate()
                .map(|(c, a)| service.try_submit_update(ClientId(c as u64), a.clone()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("priming submit: {e}"))?;
            for h in handles {
                h.wait().map_err(|e| format!("priming: {e}"))?;
            }
        }
    }
    Ok((service, start.elapsed().as_secs_f64()))
}

fn warm_entry(r: usize, c: usize) -> f64 {
    ((r * 7 + c * 3) % 11) as f64 / 11.0 + if r == c { 3.0 } else { 0.0 }
}
