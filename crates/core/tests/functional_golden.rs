//! Bit golden of the functional accelerator path.
//!
//! Every functional rotation runs on one serial path, so its output is
//! pinned here exactly. For each shape and sweep mode the golden holds
//! the sweep count, the modeled task time, FNV-1a hashes of the σ and U
//! bit patterns, every `SimStats` counter and the adaptive engine's
//! skip counters; one warm-started run pins V as well. A change to the
//! rotation kernels, the sweep order, the adaptive gate or the timing
//! model shows up as a mismatch, and the failure message prints the
//! observed record in the form the table below uses.

use aie_sim::stats::SimStats;
use aie_sim::time::TimePs;
use heterosvd::{Accelerator, HeteroSvdConfig, HeteroSvdOutput};
use svd_kernels::Matrix;

/// One run's pinned output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    sweeps: usize,
    task_time_ps: u64,
    sigma_fnv: u64,
    u_fnv: u64,
    /// FNV-1a of V's bits (warm-started runs only; 0 otherwise).
    v_fnv: u64,
    stats: [u64; 16],
    /// `(memo_skips, gated_rotations)`, `None` with adaptive sweeps off.
    adaptive: Option<(u64, u64)>,
}

/// Cold `run_f32` goldens: `(n, p_eng, adaptive_sweeps, record)`.
/// `stats` lists every `SimStats` field in declaration order.
#[rustfmt::skip]
const COLD: &[(usize, usize, bool, Record)] = &[
    (32, 2, true, Record { sweeps: 8, task_time_ps: 377460384, sigma_fnv: 14767268951923466419, u_fnv: 5303045092150953886, v_fnv: 0,
        stats: [377460384, 1920, 245760, 5760, 495616, 495616, 7680, 5760, 32, 8320, 17, 2211840000, 180461952, 132096000, 3710000, 8],
        adaptive: Some((1067, 1075)) }),
    (32, 2, false, Record { sweeps: 8, task_time_ps: 377460384, sigma_fnv: 18305261292711735130, u_fnv: 3910657767701417680, v_fnv: 0,
        stats: [377460384, 1920, 245760, 5760, 495616, 495616, 7680, 5760, 32, 8320, 17, 2211840000, 180461952, 132096000, 3710000, 8],
        adaptive: None }),
    (64, 4, true, Record { sweeps: 8, task_time_ps: 591021510, sigma_fnv: 12820098405285929115, u_fnv: 13014931997047277278, v_fnv: 0,
        stats: [591021510, 20160, 5160960, 33600, 1982464, 1982464, 15360, 26880, 64, 33024, 17, 11182080000, 681742592, 1918464000, 5640000, 8],
        adaptive: Some((3352, 5112)) }),
    (64, 4, false, Record { sweeps: 8, task_time_ps: 591021510, sigma_fnv: 14129312253218823299, u_fnv: 6564511969902917774, v_fnv: 0,
        stats: [591021510, 20160, 5160960, 33600, 1982464, 1982464, 15360, 26880, 64, 33024, 17, 11182080000, 681742592, 1918464000, 5640000, 8],
        adaptive: None }),
    (128, 4, true, Record { sweeps: 12, task_time_ps: 5230305842, sigma_fnv: 6002145390490822270, u_fnv: 16012894202095444962, v_fnv: 0,
        stats: [5230305842, 124992, 63995904, 208320, 24444928, 24444928, 95232, 166656, 128, 131584, 33, 79994880000, 8165583360, 18294067200, 16220000, 12],
        adaptive: Some((49641, 29309)) }),
    (128, 4, false, Record { sweeps: 10, task_time_ps: 4363694642, sigma_fnv: 7811662586593787434, u_fnv: 9609627795282777053, v_fnv: 0,
        stats: [4363694642, 104160, 53329920, 173600, 20381696, 20381696, 79360, 138880, 128, 131584, 33, 66662400000, 6807781376, 15245056000, 16220000, 10],
        adaptive: None }),
];

/// `run_warm_f32` golden at 128², P_eng 4, adaptive sweeps on.
#[rustfmt::skip]
const WARM: Record = Record { sweeps: 5, task_time_ps: 2197166642, sigma_fnv: 1097458756483379292, u_fnv: 7897560543305670916, v_fnv: 9268211140727991506,
    stats: [2197166642, 52080, 26664960, 86800, 10223616, 10223616, 39680, 69440, 128, 131584, 33, 33331200000, 3413276416, 7622528000, 16220000, 5],
    adaptive: Some((36679, 21892)) };

fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits_fnv(m: &Matrix<f32>) -> u64 {
    fnv1a(m.as_slice().iter().map(|x| x.to_bits()))
}

fn stats_words(s: &SimStats) -> [u64; 16] {
    // Exhaustive destructuring: a new `SimStats` field fails to compile
    // here instead of slipping past the golden.
    let SimStats {
        elapsed,
        dma_transfers,
        dma_bytes,
        neighbor_accesses,
        plio_bytes_in,
        plio_bytes_out,
        plio_transfers,
        orth_invocations,
        norm_invocations,
        ddr_bytes,
        ddr_transfers,
        orth_busy,
        plio_busy,
        dma_busy,
        ddr_busy,
        iterations,
    } = *s;
    let t = |t: TimePs| t.0;
    let c = |c: usize| c as u64;
    [
        t(elapsed),
        c(dma_transfers),
        c(dma_bytes),
        c(neighbor_accesses),
        c(plio_bytes_in),
        c(plio_bytes_out),
        c(plio_transfers),
        c(orth_invocations),
        c(norm_invocations),
        c(ddr_bytes),
        c(ddr_transfers),
        t(orth_busy),
        t(plio_busy),
        t(dma_busy),
        t(ddr_busy),
        c(iterations),
    ]
}

fn record(out: &HeteroSvdOutput) -> Record {
    Record {
        sweeps: out.result.sweeps,
        task_time_ps: out.timing.task_time.0,
        sigma_fnv: fnv1a(out.result.sigma.iter().map(|x| x.to_bits())),
        u_fnv: bits_fnv(&out.result.u),
        v_fnv: out.result.v.as_ref().map_or(0, bits_fnv),
        stats: stats_words(&out.stats),
        adaptive: out.adaptive.map(|a| (a.memo_skips, a.gated_rotations)),
    }
}

/// A well-conditioned pseudo-random `n × n` matrix (splitmix64 entries
/// in `[-1, 1)` plus a diagonal shift), independent of any RNG crate.
fn input(n: usize, seed: u64) -> Matrix<f32> {
    let mut state = seed;
    Matrix::from_fn(n, n, |r, c| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
        unit + if r == c { 2.0 } else { 0.0 }
    })
}

fn accelerator(n: usize, p_eng: usize, adaptive: bool) -> Accelerator {
    let cfg = HeteroSvdConfig::builder(n, n)
        .engine_parallelism(p_eng)
        .adaptive_sweeps(adaptive)
        .build()
        .unwrap();
    Accelerator::new(cfg).unwrap()
}

fn cold_records() -> Vec<(usize, usize, bool, Record)> {
    let mut out = Vec::new();
    for (n, p_eng) in [(32, 2), (64, 4), (128, 4)] {
        for adaptive in [true, false] {
            let run = accelerator(n, p_eng, adaptive)
                .run_f32(&input(n, n as u64))
                .unwrap();
            out.push((n, p_eng, adaptive, record(&run)));
        }
    }
    out
}

fn warm_record() -> Record {
    let n = 128;
    let acc = accelerator(n, 4, true);
    let a0 = input(n, 1);
    let cold = acc.run_f32(&a0).unwrap();
    let v_prev = cold.result.recover_v(&a0).unwrap();
    let bump = input(n, 2);
    let a1 = Matrix::from_fn(n, n, |r, c| a0[(r, c)] + 1e-3 * bump[(r, c)]);
    record(&acc.run_warm_f32(&a1, &v_prev).unwrap())
}

#[test]
fn cold_runs_match_the_recorded_golden() {
    let observed = cold_records();
    for row in &observed {
        println!("    {row:?},");
    }
    assert_eq!(observed.as_slice(), COLD);
}

#[test]
fn warm_run_matches_the_recorded_golden() {
    let observed = warm_record();
    println!("{observed:?}");
    assert_eq!(observed, WARM);
}
