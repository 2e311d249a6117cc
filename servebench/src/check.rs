//! The correctness gate: every answer must be a 200 on the full rung
//! carrying the data set's latest acknowledged generation, and a seeded
//! sample is recomputed in process and must match exactly.

use crate::drive::{Outcome, Phase, ReloadAck, Summary};
use crate::reference::{Reference, Source};
use crate::workload::{Rng, Sequence, Workload};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use urbane::guard::{GuardPath, GuardReport};
use urbane::service::QueryAnswer;
use urbane_geom::geojson::{parse_json, Json};
use urbane_serve::wire;

/// Answers recomputed per run.
const VERIFY_SAMPLE: usize = 12;

/// Why a request counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// No HTTP answer (connect, I/O or timeout).
    Transport,
    /// 429: shed by admission control.
    Shed,
    /// Any other non-200.
    Status,
    /// A 200 from a degraded or preview rung.
    Degraded,
    /// An answer from an older generation than the acknowledged one.
    Stale,
}

/// Classify one outcome against the generation it must carry.
pub fn classify(o: &Outcome, expected_generation: u64) -> Result<Summary, Failure> {
    match o.status {
        200 => {}
        0 => return Err(Failure::Transport),
        429 => return Err(Failure::Shed),
        _ => return Err(Failure::Status),
    }
    let summary = o.summary.ok_or(Failure::Status)?;
    if !summary.full {
        return Err(Failure::Degraded);
    }
    if summary.generation != expected_generation {
        return Err(Failure::Stale);
    }
    Ok(summary)
}

/// Where each data set's rows come from, generation by generation.
#[derive(Debug, Clone)]
pub struct Generations {
    boot: HashMap<&'static str, Source>,
    reloads: HashMap<(&'static str, u64), Source>,
}

impl Generations {
    /// The boot catalog of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64, rows: usize) -> Generations {
        let mut boot = HashMap::new();
        for dataset in ["taxi", "311", "crime"] {
            boot.insert(
                dataset,
                Source {
                    dataset,
                    rows: workload.resident_rows(rows),
                    seed,
                },
            );
        }
        if workload == Workload::Archive {
            boot.insert(
                "archive",
                Source {
                    dataset: "archive",
                    rows,
                    seed,
                },
            );
        }
        Generations {
            boot,
            reloads: HashMap::new(),
        }
    }

    /// Record acknowledged reloads.
    pub fn learn(&mut self, acks: &[ReloadAck]) {
        for a in acks {
            if let Some(g) = a.generation {
                let r = &a.reload;
                self.reloads.insert(
                    (r.dataset, g),
                    Source {
                        dataset: r.dataset,
                        rows: r.rows,
                        seed: r.seed,
                    },
                );
            }
        }
    }

    /// The rows of `dataset` at `generation`.
    pub fn source(&self, dataset: &'static str, generation: u64) -> Option<Source> {
        if generation == 0 {
            self.boot.get(dataset).copied()
        } else {
            self.reloads.get(&(dataset, generation)).copied()
        }
    }
}

/// The generation each timed-phase outcome must carry: reloads run only at
/// barriers, so it is fixed by the epoch.
pub fn expected_generations(seq: &Sequence, phase: &Phase) -> Vec<u64> {
    let mut current: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_epoch = Vec::with_capacity(seq.epochs.len());
    for (e, _) in seq.epochs.iter().enumerate() {
        by_epoch.push(current.clone());
        for a in phase.reloads.iter().filter(|a| a.epoch == e) {
            if let Some(g) = a.generation {
                current.insert(a.reload.dataset, g);
            }
        }
    }
    phase
        .outcomes
        .iter()
        .map(|o| {
            by_epoch[o.epoch]
                .get(seq.queries[o.query].dataset)
                .copied()
                .unwrap_or(0)
        })
        .collect()
}

/// Tallies of the gate.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Requests sent (queries and reloads).
    pub attempted: usize,
    /// Requests that failed, by reason.
    pub failures: BTreeMap<String, usize>,
    /// Sampled answers recomputed in process.
    pub verified: usize,
    /// Recomputed answers that differed (any makes the run incorrect).
    pub mismatches: Vec<String>,
}

impl Verdict {
    /// Failed requests.
    pub fn failed(&self) -> usize {
        self.failures.values().sum()
    }

    /// No recomputed answer differed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Count one request.
    pub fn record<T>(&mut self, r: &Result<T, Failure>) {
        self.attempted += 1;
        if let Err(f) = r {
            *self
                .failures
                .entry(format!("{f:?}").to_lowercase())
                .or_default() += 1;
        }
    }

    /// Count reloads (a reload fails when it is not acknowledged).
    pub fn record_reloads(&mut self, acks: &[ReloadAck]) {
        for a in acks {
            self.attempted += 1;
            if a.generation.is_none() {
                *self.failures.entry("reload".into()).or_default() += 1;
            }
        }
    }
}

/// A locally computed table dressed as a full-rung answer.
pub fn served_answer(
    table: urban_data::AggTable,
    regions: Arc<urban_data::RegionSet>,
    generation: u64,
) -> QueryAnswer {
    QueryAnswer {
        table: Arc::new(table),
        regions,
        report: GuardReport {
            path: GuardPath::Full,
            fallbacks: Vec::new(),
            retried: false,
            elapsed: std::time::Duration::ZERO,
            deadline: std::time::Duration::ZERO,
            error_bound: None,
            batched: None,
        },
        cached: false,
        generation,
    }
}

/// The phase positions whose answers are recomputed: a seeded sample,
/// fixed before the run so only those bodies are kept.
pub fn sample_slots(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, "verify");
    let mut picked: Vec<usize> = (0..VERIFY_SAMPLE.min(n)).map(|_| rng.below(n)).collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// Recompute the sampled answers and compare the per-region values and
/// totals exactly.
pub fn verify_sample(
    seq: &Sequence,
    phase: &Phase,
    answers: &[Result<Summary, Failure>],
    picked: &[usize],
    gens: &Generations,
    reference: &mut Reference,
    verdict: &mut Verdict,
) {
    for &i in picked {
        let (o, Ok(ans)) = (&phase.outcomes[i], &answers[i]) else {
            continue;
        };
        let q = &seq.queries[o.query];
        let body = q.body();
        let served = match o.body.as_deref().map(parse_json) {
            Some(Ok(json)) => json,
            _ => {
                verdict
                    .mismatches
                    .push(format!("{body}: sampled answer body unreadable"));
                continue;
            }
        };
        let Some(src) = gens.source(q.dataset, ans.generation) else {
            verdict.mismatches.push(format!(
                "no source for {} gen {}",
                q.dataset, ans.generation
            ));
            continue;
        };
        let req = match wire::parse_query(&body) {
            Ok(r) => r,
            Err(e) => {
                verdict.mismatches.push(format!("{body}: {e}"));
                continue;
            }
        };
        let data = reference.load(src);
        let local = match reference.answer(&data, &req) {
            Ok(t) => wire::answer_to_json(
                &req,
                &served_answer(t, reference.level(req.level), ans.generation),
            ),
            Err(e) => {
                verdict
                    .mismatches
                    .push(format!("{body}: local evaluation failed: {e}"));
                continue;
            }
        };
        verdict.verified += 1;
        for field in ["regions", "total_count"] {
            let served = served.get(field).map(Json::to_string);
            let expected = local.get(field).map(Json::to_string);
            if served != expected {
                verdict
                    .mismatches
                    .push(format!("{body}: served {field} differs from recomputed"));
            }
        }
    }
}
