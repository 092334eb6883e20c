//! Timing breakdown of one accelerator run, mirroring the decomposition of
//! the paper's performance model (Eq. 8–14).

use aie_sim::time::TimePs;
use serde::{Deserialize, Serialize};

/// Where the simulated time went.
///
/// # Example
///
/// ```
/// use heterosvd::TimingBreakdown;
/// use aie_sim::TimePs;
///
/// let timing = TimingBreakdown {
///     task_time: TimePs::from_secs(1e-3),
///     ..Default::default()
/// };
/// // Eq. 14: 100 tasks on 9 pipelines take ceil(100/9) = 12 waves.
/// assert_eq!(timing.system_time(100, 9), TimePs::from_secs(12e-3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TimingBreakdown {
    /// First-iteration serialized DDR load time (`t_DDR`, Eq. 12).
    pub ddr_time: TimePs,
    /// End time of each outer iteration (cumulative clock).
    pub iteration_ends: Vec<TimePs>,
    /// Duration of the normalization stage (`t_norm`).
    pub norm_time: TimePs,
    /// Total single-task latency (`t_task`, Eq. 14).
    pub task_time: TimePs,
}

impl TimingBreakdown {
    /// Average duration of one orthogonalization iteration (`t_iter`),
    /// excluding the initial DDR load.
    pub fn avg_iteration(&self) -> TimePs {
        if self.iteration_ends.is_empty() {
            return TimePs::ZERO;
        }
        let first_start = self.ddr_time;
        let last_end = *self.iteration_ends.last().unwrap();
        let total = last_end.saturating_sub(first_start);
        TimePs(total.0 / self.iteration_ends.len() as u64)
    }

    /// Number of orthogonalization iterations executed.
    pub fn iterations(&self) -> usize {
        self.iteration_ends.len()
    }

    /// System-level time for `num_tasks` independent tasks on `p_task`
    /// parallel pipelines: `⌈num_tasks / P_task⌉ · t_task` (Eq. 14).
    pub fn system_time(&self, num_tasks: usize, p_task: usize) -> TimePs {
        let waves = num_tasks.div_ceil(p_task.max(1)) as u64;
        TimePs(self.task_time.0 * waves)
    }

    /// Throughput in tasks per second for a batch of `num_tasks` tasks.
    pub fn throughput(&self, num_tasks: usize, p_task: usize) -> f64 {
        let t = self.system_time(num_tasks, p_task).as_secs();
        if t == 0.0 {
            0.0
        } else {
            num_tasks as f64 / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimingBreakdown {
        TimingBreakdown {
            ddr_time: TimePs(100),
            iteration_ends: vec![TimePs(600), TimePs(1100), TimePs(1600)],
            norm_time: TimePs(200),
            task_time: TimePs(1800),
        }
    }

    #[test]
    fn avg_iteration_spans_loads_to_last_end() {
        let t = sample();
        assert_eq!(t.avg_iteration(), TimePs(500));
        assert_eq!(t.iterations(), 3);
        assert_eq!(TimingBreakdown::default().avg_iteration(), TimePs::ZERO);
    }

    #[test]
    fn system_time_follows_eq14() {
        let t = sample();
        assert_eq!(t.system_time(1, 1), TimePs(1800));
        assert_eq!(t.system_time(100, 9), TimePs(1800 * 12)); // ceil(100/9) = 12
        assert_eq!(t.system_time(9, 9), TimePs(1800));
    }

    #[test]
    fn throughput_counts_tasks_per_second() {
        let t = TimingBreakdown {
            task_time: TimePs::from_secs(0.001),
            ..Default::default()
        };
        // 10 tasks, 10 pipelines: one wave of 1 ms -> 10_000 tasks/s.
        assert!((t.throughput(10, 10) - 10_000.0).abs() < 1e-6);
        assert_eq!(TimingBreakdown::default().throughput(5, 1), 0.0);
    }
}
