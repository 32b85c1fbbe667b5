//! The four workloads: their inputs, built from the seed during set-up,
//! and the known answer every verdict is checked against.
//!
//! Known answers come from the input generators, never from an earlier
//! run: the §8.5 suite's `Expectation`s, "no false alarm" for every pair
//! a correct optimizer produced, and "detected at least once" for each
//! seeded optimizer bug whose rewrite fires on some corpus case.

use alive2_ir::module::Module;
use alive2_ir::parser::parse_module;
use alive2_obs::json::esc;
use alive2_opt::bugs::{BugId, BugSet};
use alive2_opt::pass::PassManager;
use alive2_testgen::appgen::{generate, profiles};
use alive2_testgen::corpus::corpus;
use alive2_testgen::known_bugs::{known_bugs, Expectation};
use alive2_testgen::rng::Rng64;

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    KnownBugs,
    UnitPipeline,
    Apps,
    WarmServe,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "known_bugs" => Some(Kind::KnownBugs),
            "unit_pipeline" => Some(Kind::UnitPipeline),
            "apps" => Some(Kind::Apps),
            "warm_serve" => Some(Kind::WarmServe),
            _ => None,
        }
    }

    /// Per-pair wall-clock limit handed to the engine (or the daemon).
    pub fn limit_ms(self) -> u64 {
        match self {
            Kind::KnownBugs | Kind::WarmServe => 10_000,
            Kind::UnitPipeline => 400,
            Kind::Apps => 2_000,
        }
    }
}

/// Fraction of each application profile's function count generated for
/// `apps`: large enough for loops, memory and calls to show, small enough
/// for two passes to fit in one run.
const APP_SCALE: f64 = 0.25;

/// What a verdict must (not) be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A §8.5 bug the validator must report as incorrect.
    Detected,
    /// A §8.5 bug the validator soundly misses: never incorrect.
    Missed,
    /// A pair produced by an optimizer without a seeded bug firing.
    NoFalseAlarm,
    /// A case on which seeded bug pipeline `k` rewrites differently from
    /// the clean pipeline: an incorrect verdict is a detection of bug `k`.
    Seeded(usize),
}

impl Expect {
    /// Checks one verdict: `(contradicts the known answer, detection of
    /// seeded pipeline k)`.
    pub fn check(self, incorrect: bool) -> (bool, Option<usize>) {
        match self {
            Expect::Detected => (!incorrect, None),
            Expect::Missed | Expect::NoFalseAlarm => (incorrect, None),
            Expect::Seeded(k) => (false, incorrect.then_some(k)),
        }
    }
}

/// One entry of the shared list a client takes work from.
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    pub name: String,
    /// Source module text. When `tgt` is `None` the target is what the
    /// item's pipeline makes of it.
    pub src: String,
    pub tgt: Option<String>,
    /// Index into [`Inputs::pipelines`] (unused when `tgt` is given).
    pub pipeline: usize,
    pub expect: Expect,
    /// The one-pair `validate` request line (`warm_serve` only).
    pub request: String,
}

/// Everything a run needs, built from `--seed` during set-up.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub seed: u64,
    pub items: Vec<Item>,
    /// Bugs seeded into each optimizer pipeline (index 0 is clean).
    pub pipelines: Vec<BugSet>,
    /// Pipelines whose bug fires on at least one item: each must be
    /// detected at least once per pass.
    pub must_detect: Vec<usize>,
    /// Items come in runs of this many that a pass keeps together and in
    /// order (`unit_pipeline`: one case through every pipeline).
    pub group: usize,
}

impl Inputs {
    /// Builds the inputs and checks that every module text parses, so no
    /// timed operation can fail on malformed input.
    pub fn build(kind: Kind, seed: u64) -> Result<Inputs, String> {
        let mut inputs = match kind {
            Kind::KnownBugs | Kind::WarmServe => known_bug_items(kind, seed),
            Kind::UnitPipeline => unit_items(seed)?,
            Kind::Apps => app_items(seed),
        };
        for item in &inputs.items {
            for text in std::iter::once(&item.src).chain(&item.tgt) {
                parse_module(text).map_err(|e| format!("{}: {e}", item.name))?;
            }
        }
        inputs.must_detect = inputs
            .items
            .iter()
            .filter_map(|i| match i.expect {
                Expect::Seeded(k) => Some(k),
                _ => None,
            })
            .collect();
        inputs.must_detect.sort_unstable();
        inputs.must_detect.dedup();
        Ok(inputs)
    }

    /// The item order of each successive pass: a seeded shuffle of the
    /// groups, so the same seed replays the same orders.
    ///
    /// `unit_pipeline` keeps a case's pipelines together because they
    /// share obligations through the query cache: the first one to run
    /// solves them and the others hit. Shuffled apart, which copy solves
    /// changes with the seed, and with it the latencies of the pass.
    pub fn pass_orders(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        let mut rng = Rng64::seed_from_u64(self.seed ^ 0x5eed_0bde_0c0d_e5e5);
        let g = self.group.max(1);
        std::iter::repeat_with(move || {
            let mut order: Vec<usize> = (0..self.items.len() / g).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.range_usize(0, i + 1));
            }
            order.into_iter().flat_map(|k| k * g..k * g + g).collect()
        })
    }
}

fn known_bug_items(kind: Kind, seed: u64) -> Inputs {
    let items = known_bugs()
        .into_iter()
        .map(|b| {
            let request = if kind == Kind::WarmServe {
                format!(
                    "{{\"id\":\"{n}\",\"op\":\"validate\",\"pairs\":[{{\"name\":\"{n}\",\
                     \"src\":\"{}\",\"tgt\":\"{}\"}}]}}",
                    esc(b.src),
                    esc(b.tgt),
                    n = esc(b.name),
                )
            } else {
                String::new()
            };
            Item {
                name: b.name.to_string(),
                src: b.src.to_string(),
                tgt: Some(b.tgt.to_string()),
                pipeline: 0,
                expect: match b.expect {
                    Expectation::Detected => Expect::Detected,
                    Expectation::Missed(_) => Expect::Missed,
                },
                request,
            }
        })
        .collect();
    Inputs {
        seed,
        items,
        pipelines: Vec::new(),
        must_detect: Vec::new(),
        group: 1,
    }
}

/// The unit corpus through the clean pipeline and one pipeline per
/// seeded bug. A case is a trigger of bug `k` when pipeline `k`'s
/// before/after snapshots differ from the clean pipeline's.
fn unit_items(seed: u64) -> Result<Inputs, String> {
    let mut pipelines = vec![BugSet::none()];
    pipelines.extend(BugId::all().into_iter().map(BugSet::only));
    let managers: Vec<PassManager> = pipelines
        .iter()
        .map(|b| PassManager::default_pipeline(b.clone()))
        .collect();
    let mut items = Vec::new();
    for case in corpus() {
        let module = parse_module(case.text).map_err(|e| format!("{}: {e}", case.name))?;
        let snapshots = |pm: &PassManager| -> Vec<_> {
            module
                .functions
                .iter()
                .map(|f| pm.run_with_snapshots(&mut f.clone()))
                .collect()
        };
        let clean = snapshots(&managers[0]);
        for (k, pm) in managers.iter().enumerate() {
            let expect = if k > 0 && snapshots(pm) != clean {
                Expect::Seeded(k)
            } else {
                Expect::NoFalseAlarm
            };
            items.push(Item {
                name: format!("{}#{k}", case.name),
                src: case.text.to_string(),
                tgt: None,
                pipeline: k,
                expect,
                request: String::new(),
            });
        }
    }
    Ok(Inputs {
        seed,
        items,
        group: pipelines.len(),
        pipelines,
        must_detect: Vec::new(),
    })
}

/// The five application profiles with their own generator seeds, printed
/// one function per module, so that the seed shuffles functions, not
/// whole profiles. The program set does not depend on `seed`, which only
/// orders it: a reseeded set changes how many pairs run into the limit,
/// and with it the pass time, far more than any bound could absorb.
fn app_items(seed: u64) -> Inputs {
    let mut items = Vec::new();
    for mut profile in profiles() {
        profile.functions = (profile.functions as f64 * APP_SCALE).ceil() as usize;
        let module = generate(&profile);
        for f in &module.functions {
            let single = Module {
                globals: module.globals.clone(),
                declares: module.declares.clone(),
                functions: vec![f.clone()],
            };
            items.push(Item {
                name: format!("{}/{}", profile.name, f.name),
                src: single.to_string(),
                tgt: None,
                pipeline: 0,
                expect: Expect::NoFalseAlarm,
                request: String::new(),
            });
        }
    }
    Inputs {
        seed,
        items,
        pipelines: vec![BugSet::none()],
        must_detect: Vec::new(),
        group: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list_and_order() {
        let a = Inputs::build(Kind::KnownBugs, 7).unwrap();
        let b = Inputs::build(Kind::KnownBugs, 7).unwrap();
        assert_eq!(a.items, b.items);
        let oa: Vec<Vec<usize>> = a.pass_orders().take(3).collect();
        let ob: Vec<Vec<usize>> = b.pass_orders().take(3).collect();
        assert_eq!(oa, ob);
        assert_ne!(oa[0], oa[1], "each pass is reshuffled");
        let c = Inputs::build(Kind::KnownBugs, 8).unwrap();
        assert_ne!(c.pass_orders().next(), a.pass_orders().next());
        let mut sorted = oa[0].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..a.items.len()).collect::<Vec<_>>());
    }

    #[test]
    fn unit_passes_keep_each_case_together() {
        let u = Inputs::build(Kind::UnitPipeline, 3).unwrap();
        let g = u.pipelines.len();
        assert_eq!(u.group, g);
        assert_eq!(u.items.len() % g, 0);
        let order = u.pass_orders().next().unwrap();
        assert_eq!(order.len(), u.items.len());
        for run in order.chunks(g) {
            let case = run[0] / g;
            assert_eq!(run, (case * g..case * g + g).collect::<Vec<_>>());
            let name = u.items[run[0]].name.split('#').next().unwrap();
            assert!(run.iter().all(|&i| u.items[i].name.starts_with(name)));
        }
        let other = Inputs::build(Kind::UnitPipeline, 4).unwrap();
        assert_ne!(other.pass_orders().next(), Some(order));
    }

    #[test]
    fn different_seed_reorders_the_fixed_apps_set() {
        let a = Inputs::build(Kind::Apps, 1).unwrap();
        let c = Inputs::build(Kind::Apps, 2).unwrap();
        assert_eq!(a.items, c.items);
        assert_ne!(a.pass_orders().next(), c.pass_orders().next());
        assert!(a.items.iter().all(|i| i.expect == Expect::NoFalseAlarm));
    }

    #[test]
    fn known_answers_come_from_the_suite() {
        let kb = Inputs::build(Kind::WarmServe, 0).unwrap();
        let detected = kb
            .items
            .iter()
            .filter(|i| i.expect == Expect::Detected)
            .count();
        assert_eq!((detected, kb.items.len() - detected), (29, 7));
        assert!(kb
            .items
            .iter()
            .all(|i| i.request.contains("\"op\":\"validate\"")));
        assert!(kb.must_detect.is_empty());
    }

    #[test]
    fn verdict_checks() {
        assert_eq!(Expect::Detected.check(true), (false, None));
        assert_eq!(Expect::Detected.check(false), (true, None));
        assert_eq!(Expect::Missed.check(true), (true, None));
        assert_eq!(Expect::NoFalseAlarm.check(false), (false, None));
        assert_eq!(Expect::Seeded(3).check(true), (false, Some(3)));
        assert_eq!(Expect::Seeded(3).check(false), (false, None));
    }
}
