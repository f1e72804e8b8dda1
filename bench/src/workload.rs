//! The two workloads: what each runs, how much of it, and what the seed
//! decides.
//!
//! Program texts are a fixed suite, as in SPEC: the Table I generator is
//! called with its own spec seeds. The `--seed` argument decides the
//! *operations* on them — the interpreter inputs and the order of warm
//! queries. (Mixing the seed into the generator moves `pass_wall_s` by
//! 10 % and the dynamic overhead by 2× from one seed to the next on the
//! same commit, which would drown every bound; README has the
//! measurements, also for what else is deliberately not seeded.)
//!
//! The acceptance contract wants every end-to-end metric from every
//! workload, so a workload is three legs — pass, read, write — and every
//! leg is long enough to be measured on its own: no metric is read off a
//! token-sized phase. The workloads differ in the shape of the programs:
//! many small ones, or few large ones. Every count below is a constant: a
//! run does the same operations on every commit, and a slower commit
//! takes longer.

use crate::api::{self, Module, SizeClass};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassInput {
    /// The eleven `SizeClass::Small` programs of Table I (2 381 functions).
    SmallSuite,
    /// One module of `linux-scale` shape with this many functions.
    LinuxScale { functions: usize },
}

/// One rep (one sample) runs the pass over a fresh clone of every module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassPlan {
    pub input: PassInput,
    pub reps: usize,
}

/// `modules` × `functions` ingested once and saved as a snapshot; then
/// `cold_cycles` × [fresh daemon → cold queries of the next
/// `cold_per_cycle` modules → `warm_sweeps` warm sweeps over them] and
/// `restarts` restart-only cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadPlan {
    pub modules: usize,
    pub functions: usize,
    pub cold_cycles: usize,
    pub cold_per_cycle: usize,
    pub warm_sweeps: usize,
    pub restarts: usize,
}

/// `modules` × `functions` ingested and swept once, then `iterations` ×
/// [update one function → sweep], with an evict + re-ingest (timed) of one
/// module after every `evict_every`th iteration. Iterations come in
/// bursts of [`WRITE_BURST`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WritePlan {
    pub modules: usize,
    pub functions: usize,
    pub iterations: usize,
    pub evict_every: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub pass: PassPlan,
    pub read: ReadPlan,
    pub write: WritePlan,
}

/// Write iterations run back to back in bursts of this many, and the
/// bursts are what [`schedule`] deals out. A daemon that has sat idle for
/// seconds while the other legs ran answers its next request from cold
/// caches (a pointer walk over 16 MiB: 9 ms hot, 25 ms after two idle
/// seconds), and how cold depends on what ran in between; with every
/// iteration on its own, `update_ms` and `requery_ms` were the metrics that
/// repeated worst (spreads up to 37 % where the rest stayed under 20 %).
/// In a burst the first iteration takes that cost and the others are what
/// a run of edits costs.
pub const WRITE_BURST: usize = 3;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "small",
        pass: PassPlan {
            input: PassInput::SmallSuite,
            reps: 20,
        },
        read: ReadPlan {
            modules: 12,
            functions: 425,
            cold_cycles: 5,
            cold_per_cycle: 6,
            warm_sweeps: 7,
            restarts: 10,
        },
        write: WritePlan {
            modules: 3,
            functions: 700,
            iterations: 18,
            evict_every: 3,
        },
    },
    Workload {
        name: "large",
        pass: PassPlan {
            input: PassInput::LinuxScale { functions: 10_000 },
            reps: 5,
        },
        read: ReadPlan {
            modules: 10,
            functions: 700,
            cold_cycles: 2,
            cold_per_cycle: 10,
            warm_sweeps: 10,
            restarts: 8,
        },
        write: WritePlan {
            modules: 6,
            functions: 600,
            iterations: 15,
            evict_every: 3,
        },
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One unit of a leg: what [`schedule`] orders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    PassRep,
    ColdCycle,
    Restart,
    /// [`WRITE_BURST`] write iterations.
    WriteBurst,
}

/// Every timed unit of the run, each leg's dealt out evenly from start to
/// end. This box has slow spells of several seconds (the same pass sweep
/// 0.40 s, then 0.57 s for the next dozen); a leg run in one piece can sit
/// wholly inside one, a metric whose samples span the run has at most a
/// minority of them there, and the median does not move.
pub fn schedule(w: &Workload) -> Vec<Step> {
    let mut at: Vec<(f64, Step)> = Vec::new();
    for (step, n) in [
        (Step::PassRep, w.pass.reps),
        (Step::ColdCycle, w.read.cold_cycles),
        (Step::Restart, w.read.restarts),
        (Step::WriteBurst, w.write.iterations / WRITE_BURST),
    ] {
        at.extend((0..n).map(|j| ((j as f64 + 0.5) / n as f64, step)));
    }
    at.sort_by(|a, b| a.0.total_cmp(&b.0));
    at.into_iter().map(|(_, step)| step).collect()
}

/// SplitMix64: the harness's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream` so that legs draw
    /// independently of each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The modules a pass plan runs over.
pub fn pass_modules(input: PassInput) -> Vec<Module> {
    match input {
        PassInput::SmallSuite => api::table1()
            .iter()
            .filter(|s| s.class == SizeClass::Small)
            .map(api::build_module)
            .collect(),
        PassInput::LinuxScale { functions } => {
            let mut spec = api::table1()
                .into_iter()
                .find(|s| s.name == "linux-scale")
                .expect("Table I has a linux-scale row");
            spec.functions = functions;
            vec![api::build_module(&spec)]
        }
    }
}

/// Name and printed text of corpus module `i` (`mini_suite()[0]` shape,
/// spec seed `100 + i`).
pub fn corpus_module(i: usize, functions: usize) -> (String, String) {
    let mut spec = api::mini_suite()[0].clone();
    spec.functions = functions;
    spec.seed = 100 + i as u64;
    (
        format!("m{i}"),
        api::print_module(&api::build_module(&spec)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_runs_every_unit_once_and_spreads_each_leg() {
        for w in WORKLOADS {
            let steps = schedule(&w);
            let count = |s: Step| steps.iter().filter(|&&x| x == s).count();
            assert_eq!(count(Step::PassRep), w.pass.reps);
            assert_eq!(count(Step::ColdCycle), w.read.cold_cycles);
            assert_eq!(count(Step::Restart), w.read.restarts);
            assert_eq!(count(Step::WriteBurst) * WRITE_BURST, w.write.iterations);
            assert_eq!(steps, schedule(&w), "the schedule is a constant");
            // every leg has a unit in the first and in the last third
            let third = steps.len() / 3;
            for s in [Step::PassRep, Step::Restart, Step::WriteBurst] {
                assert!(steps[..third].contains(&s), "{}: {s:?} starts late", w.name);
                assert!(
                    steps[steps.len() - third..].contains(&s),
                    "{}: {s:?} ends early",
                    w.name
                );
            }
        }
    }

    #[test]
    fn every_metric_gets_five_samples_on_every_workload() {
        for w in WORKLOADS {
            assert!(w.pass.reps >= 5, "{}", w.name);
            assert!(
                w.read.cold_cycles * w.read.cold_per_cycle >= 5,
                "{}",
                w.name
            );
            assert!(w.read.cold_per_cycle <= w.read.modules, "{}", w.name);
            assert!(w.read.cold_cycles + w.read.restarts >= 5, "{}", w.name);
            assert!(w.write.iterations >= 5, "{}", w.name);
            assert!(w.write.iterations / w.write.evict_every >= 5, "{}", w.name);
        }
    }

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut order: Vec<usize> = (0..10).collect();
        Rng::new(3, 0).shuffle(&mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
