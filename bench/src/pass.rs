//! The pass leg: repeated whole-pass runs in this process, and the
//! oracle that checks what they produced.

use std::time::Instant;

use crate::api::{self, DriverRun, Module, PassCounts};
use crate::stats::exact_repeat;
use crate::tally::Tally;
use crate::workload::{pass_modules, PassPlan, Rng};

/// `__driver` inputs per module: enough that the step ratio of a merged
/// module does not hinge on one input's branch outcomes.
const DRIVER_INPUTS: usize = 32;

/// What the interpreter observed on the *unmerged* modules: the reference
/// every merged module is compared against.
pub struct Reference {
    pub inputs: Vec<i64>,
    /// `runs[module][input]`.
    pub runs: Vec<Vec<Result<DriverRun, String>>>,
}

impl Reference {
    pub fn observe(modules: &[Module], rng: &mut Rng) -> Reference {
        let inputs: Vec<i64> = (0..DRIVER_INPUTS)
            .map(|_| (rng.next_u64() % 200_001) as i64 - 100_000)
            .collect();
        let runs = modules
            .iter()
            .map(|m| inputs.iter().map(|&x| api::run_driver(m, x)).collect())
            .collect();
        Reference { inputs, runs }
    }

    pub fn steps(&self) -> u64 {
        self.runs
            .iter()
            .flatten()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| r.steps)
            .sum()
    }
}

/// Checks one merged module against the reference for module `mi`:
/// verifier, print∘parse fixpoint, and the interpreter differential on
/// every input. Returns the merged module's interpreter steps.
pub fn check_merged(merged: &Module, mi: usize, reference: &Reference, tally: &mut Tally) -> u64 {
    let name = &merged.name;
    tally.ok(api::verify_module(merged).map_err(|e| format!("{name}: merged module: {e}")));
    let text = api::print_module(merged);
    let reparsed = tally.ok(api::parse_module(&text).map_err(|e| format!("{name}: reparse: {e}")));
    if let Some(back) = reparsed {
        tally.check(api::print_module(&back) == text, || {
            format!("{name}: print∘parse is not a fixpoint")
        });
    }
    let mut steps = 0;
    for (&input, want) in reference.inputs.iter().zip(&reference.runs[mi]) {
        let got = api::run_driver(merged, input);
        let same = match (want, &got) {
            (Ok(w), Ok(g)) => {
                steps += g.steps;
                w.ret == g.ret && w.checksum == g.checksum
            }
            // A trap must stay the same trap.
            (Err(w), Err(g)) => w == g,
            _ => false,
        };
        tally.check(same, || {
            format!("{name}: __driver({input}) original {want:?}, merged {got:?}")
        });
    }
    steps
}

fn add(a: PassCounts, b: PassCounts) -> PassCounts {
    PassCounts {
        functions: a.functions + b.functions,
        pairs_attempted: a.pairs_attempted + b.pairs_attempted,
        merges_committed: a.merges_committed + b.merges_committed,
        size_before: a.size_before + b.size_before,
        size_after: a.size_after + b.size_after,
    }
}

const ZERO: PassCounts = PassCounts {
    functions: 0,
    pairs_attempted: 0,
    merges_committed: 0,
    size_before: 0,
    size_after: 0,
};

pub struct PassOutcome {
    pub setup_s: f64,
    /// Summed `run_pass` wall of each timed rep (clones excluded).
    pub rep_wall_s: Vec<f64>,
    /// Counts of one sweep, identical across every sweep of the run.
    pub counts: PassCounts,
    pub steps_before: u64,
    pub steps_after: u64,
    pub tally: Tally,
}

impl PassOutcome {
    pub fn size_reduction_pct(&self) -> f64 {
        let c = &self.counts;
        (c.size_before - c.size_after) as f64 / c.size_before as f64 * 100.0
    }

    pub fn dyn_inst_overhead_pct(&self) -> f64 {
        (self.steps_after as f64 - self.steps_before as f64) / self.steps_before as f64 * 100.0
    }
}

/// One sweep: the pass over a fresh clone of every module, in the suite's
/// order on every seed (the process's peak resident set depends on the
/// order its allocations are made in: ±4 % on the small suite). Returns
/// the summed pass wall, the summed counts, and the merged modules.
fn sweep(modules: &[Module], tally: &mut Tally) -> (f64, PassCounts, Vec<Module>) {
    let mut wall = 0.0;
    let mut counts = ZERO;
    let mut merged = Vec::new();
    for original in modules {
        let mut m = original.clone();
        let (t, c) = api::run_pass_adaptive(&mut m);
        tally.check(c.size_after <= c.size_before, || {
            format!(
                "{}: pass grew the module {} -> {}",
                m.name, c.size_before, c.size_after
            )
        });
        wall += t.as_secs_f64();
        counts = add(counts, c);
        merged.push(m);
    }
    (wall, counts, merged)
}

/// The pass leg, one rep at a time so that the caller can deal the reps
/// out over the whole run.
pub struct PassLeg {
    modules: Vec<Module>,
    reference: Reference,
    per_sweep: Vec<PassCounts>,
    /// The latest sweep's merged modules, indexed like `modules`.
    last: Vec<Module>,
    setup_s: f64,
    rep_wall_s: Vec<f64>,
    tally: Tally,
}

impl PassLeg {
    /// Set-up: generates the modules and observes the reference. There is
    /// no warm-up rep: the reading is the fastest rep, which a cold first
    /// one never is.
    pub fn start(plan: PassPlan, seed: u64) -> PassLeg {
        let t0 = Instant::now();
        let mut rng = Rng::new(seed, 1);
        let modules = pass_modules(plan.input);
        let reference = Reference::observe(&modules, &mut rng);
        PassLeg {
            modules,
            reference,
            per_sweep: Vec::new(),
            last: Vec::new(),
            setup_s: t0.elapsed().as_secs_f64(),
            rep_wall_s: Vec::new(),
            tally: Tally::default(),
        }
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }

    /// One timed rep: one sweep, one sample.
    pub fn rep(&mut self) {
        let (wall, counts, merged) = sweep(&self.modules, &mut self.tally);
        self.rep_wall_s.push(wall);
        self.per_sweep.push(counts);
        self.last = merged;
    }

    /// Checks the last sweep's modules against the oracle.
    pub fn finish(mut self) -> PassOutcome {
        let counts = match exact_repeat(&self.per_sweep) {
            Ok(c) => c,
            Err(distinct) => {
                self.tally.check(false, || {
                    format!("pass counts differ between sweeps: {distinct:?}")
                });
                self.per_sweep[0]
            }
        };
        let steps_after = self
            .last
            .iter()
            .enumerate()
            .map(|(mi, m)| check_merged(m, mi, &self.reference, &mut self.tally))
            .sum();
        PassOutcome {
            setup_s: self.setup_s,
            rep_wall_s: self.rep_wall_s,
            counts,
            steps_before: self.reference.steps(),
            steps_after,
            tally: self.tally,
        }
    }
}
