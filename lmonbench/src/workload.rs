//! The four workloads: their shapes, server flags and seeded inputs.

use std::time::Duration;

/// Backends (pooled front ends) every `lmond` workload serves with.
pub const BACKENDS: usize = 2;
/// Nodes in each backend's virtual cluster (also the STAT cluster size).
pub const CLUSTER_NODES: usize = 64;
/// Offered load of the `launch_storm` open loop, sessions per second.
pub const STORM_RATE: f64 = 400.0;
/// STAT: a 32-node × 8-task job, one sampling daemon per node.
pub const STAT_NODES: usize = 32;
pub const STAT_TASKS_PER_NODE: usize = 8;
/// Deep-tree STAT fan-out used by the defect ledger.
pub const LEDGER_FANOUT: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one connection: `LAUNCH bench_app 16 16 sleeper` →
    /// `STATUS` → `KILL` (the paper's 1×16×256 profile).
    LaunchWide,
    /// Open loop, seeded Poisson arrivals; each arrival opens a fresh
    /// connection, says `HELLO`, `LAUNCH bench_app 1 1 oneshot` → `KILL`.
    LaunchStorm,
    /// Closed loop, one connection, against a job started at set-up:
    /// `ATTACH <pid> sleeper` → `STATUS` → `METRICS` → `DETACH`.
    AttachCycle,
    /// Closed loop in a worker process, no `lmond`: one-deep STAT start-up
    /// (`run_stat_launchmon`) on one FE over a running 32×8 job.
    StatStartup,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::LaunchWide, Workload::LaunchStorm, Workload::AttachCycle, Workload::StatStartup];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LaunchWide => "launch_wide",
            Workload::LaunchStorm => "launch_storm",
            Workload::AttachCycle => "attach_cycle",
            Workload::StatStartup => "stat_startup",
        }
    }

    /// Whether the workload drives a control-protocol server.
    pub fn uses_lmond(self) -> bool {
        self != Workload::StatStartup
    }

    /// `lmond serve --limit`: the storm queues behind one admission slot.
    pub fn admission_limit(self) -> usize {
        if self == Workload::LaunchStorm {
            1
        } else {
            2
        }
    }

    /// The serve flags after `--socket PATH`.
    pub fn serve_flags(self) -> Vec<String> {
        let flags = [
            ("--backends", BACKENDS),
            ("--nodes", CLUSTER_NODES),
            ("--limit", self.admission_limit()),
        ];
        flags.iter().flat_map(|(k, v)| [k.to_string(), v.to_string()]).collect()
    }

    /// Human-readable loop, shape and load, printed with every report.
    pub fn describe(self) -> String {
        match self {
            Workload::LaunchWide => "closed loop, 1 connection, 16x16 sleeper, LAUNCH/STATUS/KILL",
            Workload::LaunchStorm => {
                "open loop, Poisson 400/s, <=2 connections, 1x1 oneshot, HELLO/LAUNCH/KILL"
            }
            Workload::AttachCycle => {
                "closed loop, 1 connection, RUNJOB 16x16 at set-up, ATTACH/STATUS/METRICS/DETACH"
            }
            Workload::StatStartup => {
                "closed loop, in a worker process, 64 nodes, 32x8 job, STAT 1-deep"
            }
        }
        .to_string()
    }
}

/// splitmix64: the benchmark's only randomness, fully determined by the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrival offsets at `rate`/s inside `window`, from `seed`.
pub fn poisson_arrivals(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_repeat_per_seed_and_match_the_rate() {
        let a = poisson_arrivals(7, 400.0, Duration::from_secs(10));
        assert_eq!(a, poisson_arrivals(7, 400.0, Duration::from_secs(10)));
        assert_ne!(a, poisson_arrivals(8, 400.0, Duration::from_secs(10)));
        assert!((3700..4300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
