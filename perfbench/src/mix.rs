//! Seeded job mixes.  Every generator is a pure function of the run seed
//! and the job index, and never repeats a configuration within a run: a
//! repeated configuration would be answered by the daemon's dedup path in
//! ~0 ms and silently turn a cold workload into a warm one.

use micrograd_core::{
    CoreKind, FrameworkConfig, KnobSpaceKind, MetricKind, StressGoal, TunerKind, UseCaseConfig,
};
use micrograd_workloads::Benchmark;

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CloneCold,
    StressSweep,
    WarmRepeat,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "clone-cold" => Some(Workload::CloneCold),
            "stress-sweep" => Some(Workload::StressSweep),
            "warm-repeat" => Some(Workload::WarmRepeat),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CloneCold => "clone-cold",
            Workload::StressSweep => "stress-sweep",
            Workload::WarmRepeat => "warm-repeat",
        }
    }

    /// Jobs a timed window completes at least, whatever `--seconds` says,
    /// so that a cold window is the same job sequence on any host that
    /// needs longer than `--seconds` for it, and every window holds at
    /// least ten samples beyond its p90.
    pub fn min_jobs(self) -> usize {
        match self {
            Workload::CloneCold => 14 * 16,
            Workload::StressSweep => 4 * SWEEP_CYCLE * SWEEP_BLOCK,
            Workload::WarmRepeat => 2_000,
        }
    }

    /// How the timed window is cut into groups for
    /// [`crate::stats::median_group`].  A group of a cold workload is the
    /// unit its job mix repeats in (clone-cold's block of 16, stress-sweep's
    /// cycle, whose dump grows from empty); warm-repeat's are whole seconds.
    pub fn grouping(self) -> Grouping {
        match self {
            Workload::CloneCold => Grouping::Jobs(16),
            Workload::StressSweep => Grouping::Jobs(SWEEP_CYCLE * SWEEP_BLOCK),
            Workload::WarmRepeat => Grouping::Seconds,
        }
    }

    /// Leading jobs (by index) over which the deterministic metrics —
    /// accuracies and evaluations per job — are taken, so they repeat
    /// exactly however many more jobs a window fits.
    pub fn scored_jobs(self) -> usize {
        match self {
            Workload::CloneCold => 96,
            Workload::StressSweep => 6 * SWEEP_BLOCK,
            Workload::WarmRepeat => 1_000,
        }
    }

    /// Leading jobs the traced in-process replay runs.
    pub fn replay_jobs(self) -> usize {
        match self {
            Workload::CloneCold => 32,
            Workload::StressSweep => 3 * SWEEP_BLOCK,
            Workload::WarmRepeat => 1_000,
        }
    }

    /// The configuration of job `index` in a run seeded with `seed`.
    pub fn job(self, seed: u64, index: usize) -> FrameworkConfig {
        match self {
            Workload::CloneCold => clone_cold(seed, index),
            Workload::StressSweep => stress_sweep(seed, index),
            Workload::WarmRepeat => warm_stored(seed, warm_draw(seed, index)),
        }
    }
}

/// What a timing group of the window is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// Consecutive job indices, this many per group.
    Jobs(usize),
    /// Completions within each whole second of the window.
    Seconds,
}

/// Reports the warm-repeat store holds before its window opens.
pub const WARM_STORED: usize = 400;

/// SplitMix64: a tiny, well-mixed, dependency-free seed expander.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `0..len` in an order drawn from `key` (Fisher–Yates).
fn permutation(len: usize, key: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = key;
    for i in (1..len).rev() {
        state = splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Per-run base for job seeds; job `i` uses `base + i`, so seeds (and
/// therefore configurations) are distinct within a run.
fn seed_base(seed: u64, salt: u64) -> u64 {
    splitmix(seed ^ salt)
}

const CORES: [CoreKind; 2] = [CoreKind::Small, CoreKind::Large];

/// `clone-cold`: every block of 16 jobs clones each of the 8 profiles on
/// both cores once, in a seeded order.  One job of each block clones by
/// simpoints instead, on the (profile, core) pair the block's number
/// picks, so the blocks of a window hold the same mix for every seed (a
/// simpoints job costs from under one to about three times a plain clone,
/// depending on the pair).
/// Each job has its own seed, so it has its own platform key and starts
/// with an empty memo.
pub fn clone_cold(seed: u64, index: usize) -> FrameworkConfig {
    let number = index / 16;
    let block = permutation(16, seed_base(seed, 0xC10E ^ number as u64));
    let slot = block[index % 16];
    let benchmark = Benchmark::ALL[slot % 8].name().to_owned();
    let use_case = if slot == number % 16 {
        UseCaseConfig::CloneSimpoints {
            benchmark,
            accuracy_target: 0.99,
            interval_len: 4_000,
            max_phases: 2,
        }
    } else {
        UseCaseConfig::CloneBenchmark {
            benchmark,
            accuracy_target: 0.99,
        }
    };
    FrameworkConfig {
        core: CORES[slot / 8],
        tuner: TunerKind::GradientDescent,
        knob_space: KnobSpaceKind::Full,
        use_case,
        max_epochs: 8,
        dynamic_len: 4_000,
        reference_len: 16_000,
        seed: seed_base(seed, 0xC0DE).wrapping_add(index as u64),
        // Sequential evaluation: on a 2-vCPU host whose second vCPU the
        // hypervisor takes away in bursts, `Some(2)` timings of one seed
        // moved by a third between back-to-back runs; `None` held to 2%.
        parallelism: None,
    }
}

const TUNERS: [TunerKind; 4] = [
    TunerKind::GradientDescent,
    TunerKind::Genetic,
    TunerKind::BruteForce,
    TunerKind::RandomSearch,
];
const SPACES: [KnobSpaceKind; 2] = [KnobSpaceKind::Full, KnobSpaceKind::InstructionFractions];
const GOALS: [StressGoal; 2] = [StressGoal::Maximize, StressGoal::Minimize];

/// A stress-sweep block: each (goal, tuner, knob space) triple once, plus
/// [`SWEEP_CLONES`] clones, in a fixed order.
const SWEEP_BLOCK: usize = 16 + SWEEP_CLONES;
const SWEEP_CLONES: usize = 4;

/// Blocks whose stress jobs share one platform key, and so one memo dump.
const SWEEP_CYCLE: usize = 4;

/// `stress-sweep`: distinct stress configurations, the stress jobs of each
/// cycle of [`SWEEP_CYCLE`] blocks on one platform key (Large core, one
/// `dynamic_len`, one seed per cycle), so every stress job imports,
/// extends and rewrites the cycle's memo dump, which grows from empty; a
/// window holds several cycles, so its slowest jobs come from several
/// stretches of the run rather than from its last seconds.  Every 5th job
/// is a clone on a key of its own, so the accuracies are measured on this
/// workload too.  Every block of [`SWEEP_BLOCK`] jobs holds each (goal,
/// tuner, knob space) triple once, so each tuner's share is the same for
/// every seed; the stress metric rotates so that each triple meets each
/// metric once per round of 11 blocks, and each round has its own epoch
/// budget.
pub fn stress_sweep(seed: u64, index: usize) -> FrameworkConfig {
    let block = index / SWEEP_BLOCK;
    let base = FrameworkConfig {
        core: CoreKind::Large,
        tuner: TunerKind::GradientDescent,
        knob_space: KnobSpaceKind::Full,
        use_case: UseCaseConfig::Stress {
            metric: MetricKind::Ipc,
            goal: StressGoal::Maximize,
        },
        max_epochs: 4,
        dynamic_len: 5_000,
        reference_len: 20_000,
        seed: seed_base(seed, 0x5EED).wrapping_add((block / SWEEP_CYCLE) as u64),
        parallelism: None,
    };
    // The job order is the same for every seed: the seed draws the
    // platform and clone seeds, while the mix (which drives how fast the
    // dump grows and which jobs sit near the median) stays fixed.
    let slot = permutation(SWEEP_BLOCK, splitmix(0x5715 ^ block as u64))[index % SWEEP_BLOCK];
    if slot >= 16 {
        // Clones get seeds of their own: with the run's one platform seed
        // the mean accuracy would rest on a single seed's luck.
        let clone = block * SWEEP_CLONES + slot - 16;
        return FrameworkConfig {
            use_case: UseCaseConfig::CloneBenchmark {
                benchmark: Benchmark::ALL[clone % 8].name().to_owned(),
                accuracy_target: 0.99,
            },
            max_epochs: 6,
            seed: seed_base(seed, 0xC1).wrapping_add(clone as u64),
            ..base
        };
    }
    let metrics = MetricKind::ALL.len();
    let round = block / metrics;
    let metric = permutation(metrics, splitmix(0x3E7 ^ round as u64))[(block + slot) % metrics];
    FrameworkConfig {
        tuner: TUNERS[(slot / 2) % 4],
        knob_space: SPACES[slot / 8],
        use_case: UseCaseConfig::Stress {
            metric: MetricKind::ALL[metric],
            goal: GOALS[slot % 2],
        },
        max_epochs: 3 + round,
        ..base
    }
}

/// The `k`-th of the [`WARM_STORED`] small, distinct configurations the
/// warm-repeat store is filled with: alternately a stress run and a clone.
pub fn warm_stored(seed: u64, k: usize) -> FrameworkConfig {
    let use_case = if k.is_multiple_of(2) {
        UseCaseConfig::Stress {
            metric: MetricKind::ALL[(k / 2) % MetricKind::ALL.len()],
            goal: GOALS[(k / 2) % 2],
        }
    } else {
        UseCaseConfig::CloneBenchmark {
            benchmark: Benchmark::ALL[(k / 2) % 8].name().to_owned(),
            accuracy_target: 0.99,
        }
    };
    FrameworkConfig {
        core: CORES[(k / 4) % 2],
        tuner: TunerKind::GradientDescent,
        knob_space: KnobSpaceKind::InstructionFractions,
        use_case,
        max_epochs: 2,
        dynamic_len: 3_000,
        reference_len: 5_000,
        seed: seed_base(seed, 0xAA).wrapping_add(k as u64),
        parallelism: None,
    }
}

/// Which stored configuration warm-repeat job `index` resubmits.
pub fn warm_draw(seed: u64, index: usize) -> usize {
    (splitmix(seed_base(seed, 0xD4A) ^ index as u64) % WARM_STORED as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_distinct(configs: &[FrameworkConfig]) {
        for (i, a) in configs.iter().enumerate() {
            for b in &configs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn generators_never_repeat_a_config_within_a_run() {
        for seed in [0, 1, 77] {
            let cold: Vec<_> = (0..400).map(|i| clone_cold(seed, i)).collect();
            assert_distinct(&cold);
            let sweep: Vec<_> = (0..1_600).map(|i| stress_sweep(seed, i)).collect();
            assert_distinct(&sweep);
            let stored: Vec<_> = (0..WARM_STORED).map(|k| warm_stored(seed, k)).collect();
            assert_distinct(&stored);
        }
    }

    #[test]
    fn generators_are_pure_functions_of_seed_and_index() {
        assert_eq!(clone_cold(5, 9), clone_cold(5, 9));
        assert_ne!(clone_cold(5, 9), clone_cold(6, 9));
        assert_eq!(stress_sweep(5, 30), stress_sweep(5, 30));
        assert_eq!(warm_draw(5, 3), warm_draw(5, 3));
    }

    #[test]
    fn clone_cold_blocks_cover_every_profile_on_both_cores() {
        let mut seen: Vec<(String, bool)> = (0..16)
            .map(|i| {
                let c = clone_cold(3, 16 + i);
                let name = match c.use_case {
                    UseCaseConfig::CloneBenchmark { benchmark, .. }
                    | UseCaseConfig::CloneSimpoints { benchmark, .. } => benchmark,
                    _ => unreachable!("clone-cold only clones"),
                };
                (name, c.core == CoreKind::Small)
            })
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn stress_sweep_shares_one_platform_key_per_cycle() {
        let key = |c: &FrameworkConfig| (c.core, c.dynamic_len, c.seed);
        let cycle = SWEEP_CYCLE * SWEEP_BLOCK;
        let keys: Vec<Vec<_>> = (0..3)
            .map(|c| {
                let mut keys: Vec<_> = (c * cycle..(c + 1) * cycle)
                    .map(|i| stress_sweep(4, i))
                    .filter(|c| matches!(c.use_case, UseCaseConfig::Stress { .. }))
                    .map(|c| key(&c))
                    .collect();
                assert_eq!(keys.len(), 16 * SWEEP_CYCLE);
                keys.dedup();
                keys
            })
            .collect();
        assert!(keys.iter().all(|k| k.len() == 1));
        assert!(keys[0] != keys[1] && keys[1] != keys[2]);
    }
}
