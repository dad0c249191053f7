//! Request-arrival processes for the serving front-end.
//!
//! The measured phase of the paper's methodology is *closed-loop*: one
//! client issues an operation, waits for it to complete, and issues the
//! next, so the engine never sees queueing. A serving system faces both
//! that shape (a pool of synchronous clients) and its opposite — an
//! *open-loop* stream whose arrival times do not care whether earlier
//! requests finished, the regime where queueing delay appears. An
//! [`ArrivalSpec`] describes either process; an [`ArrivalClock`] turns
//! it into a deterministic stream of submission times in virtual
//! nanoseconds, one clock per logical client.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// When a logical client submits its next request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Closed loop: the next request follows the completion of the
    /// previous one after `think_ns` of client think time. With zero
    /// think time this is the paper's synchronous measured phase.
    Closed {
        /// Virtual nanoseconds between a completion and the next
        /// submission.
        think_ns: u64,
    },
    /// Open loop at a fixed rate: one request every `interarrival_ns`,
    /// regardless of completions — the load does not back off when the
    /// server queues.
    Open {
        /// Virtual nanoseconds between consecutive submissions.
        interarrival_ns: u64,
    },
    /// Open loop with exponentially distributed gaps (a Poisson
    /// process) of the given mean — the classic arrival model for
    /// independent request sources.
    OpenPoisson {
        /// Mean virtual nanoseconds between consecutive submissions.
        mean_interarrival_ns: u64,
    },
}

impl ArrivalSpec {
    /// Whether submissions wait for completions (closed loop).
    pub fn is_closed(&self) -> bool {
        matches!(self, ArrivalSpec::Closed { .. })
    }

    /// Short deterministic tag for report labels (`closed`,
    /// `closed+3000`, `open250000`, `poisson250000`).
    pub fn label(&self) -> String {
        match self {
            ArrivalSpec::Closed { think_ns: 0 } => "closed".to_string(),
            ArrivalSpec::Closed { think_ns } => format!("closed+{think_ns}"),
            ArrivalSpec::Open { interarrival_ns } => format!("open{interarrival_ns}"),
            ArrivalSpec::OpenPoisson {
                mean_interarrival_ns,
            } => format!("poisson{mean_interarrival_ns}"),
        }
    }

    /// The same arrival process at `factor`× the offered load: open
    /// loops divide their (mean) interarrival gap by the factor, so
    /// `at_load_factor(2.0)` submits twice as fast and
    /// `at_load_factor(0.5)` half as fast (gaps are floored at 1 ns).
    /// Closed loops are self-regulating — their offered load is set by
    /// completions, not by a rate — so the factor rescales think time
    /// instead (a zero-think loop is already at maximum pressure and
    /// comes back unchanged).
    ///
    /// This is the knob a goodput-vs-offered-load sweep turns: fix the
    /// saturation-rate process once, then sweep multiples of it (the
    /// `fig_slo` experiment drives 0.2× → 3×).
    pub fn at_load_factor(&self, factor: f64) -> ArrivalSpec {
        assert!(
            factor.is_finite() && factor > 0.0,
            "load factor must be a positive finite number, got {factor}"
        );
        let scale = |ns: u64| ((ns as f64 / factor).round() as u64).max(1);
        match *self {
            ArrivalSpec::Closed { think_ns } => ArrivalSpec::Closed {
                // More load = less think; 0 stays 0 (already maximal).
                think_ns: if think_ns == 0 { 0 } else { scale(think_ns) },
            },
            ArrivalSpec::Open { interarrival_ns } => ArrivalSpec::Open {
                interarrival_ns: scale(interarrival_ns),
            },
            ArrivalSpec::OpenPoisson {
                mean_interarrival_ns,
            } => ArrivalSpec::OpenPoisson {
                mean_interarrival_ns: scale(mean_interarrival_ns),
            },
        }
    }

    /// Panics with a description if the specification is degenerate.
    pub fn validate(&self) {
        match self {
            ArrivalSpec::Closed { .. } => {}
            ArrivalSpec::Open { interarrival_ns } => {
                assert!(*interarrival_ns > 0, "open-loop interarrival must be > 0");
            }
            ArrivalSpec::OpenPoisson {
                mean_interarrival_ns,
            } => {
                assert!(*mean_interarrival_ns > 0, "Poisson mean must be > 0");
            }
        }
    }
}

/// One client's deterministic arrival process: yields submission times
/// in virtual nanoseconds, starting at zero.
///
/// Closed-loop clocks alternate [`ArrivalClock::note_submitted`] /
/// [`ArrivalClock::note_completed`] (the next time is unknown until the
/// completion lands); open-loop clocks advance on `note_submitted`
/// alone. A retired clock ([`ArrivalClock::retire`]) never submits
/// again — the front-end retires closed-loop clients whose shard ran
/// out of space, mirroring how a sharded-harness shard stops.
#[derive(Debug, Clone)]
pub struct ArrivalClock {
    spec: ArrivalSpec,
    rng: SmallRng,
    next: Option<u64>,
    submitted: u64,
    retired: bool,
}

impl ArrivalClock {
    /// A clock for `spec`, seeded per client (seed differences fully
    /// decorrelate Poisson gap streams).
    pub fn new(spec: ArrivalSpec, seed: u64) -> Self {
        spec.validate();
        Self {
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0xA881_7A1C_0C4E_55ED),
            next: Some(0),
            submitted: 0,
            retired: false,
        }
    }

    /// The next submission time, or `None` while a closed-loop request
    /// is in flight (or after [`ArrivalClock::retire`]).
    pub fn next_submit(&self) -> Option<u64> {
        self.next
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Notes that the request at the current submission time went out.
    pub fn note_submitted(&mut self) {
        let at = self.next.expect("note_submitted without a pending time");
        self.submitted += 1;
        self.next = match self.spec {
            ArrivalSpec::Closed { .. } => None,
            ArrivalSpec::Open { interarrival_ns } => Some(at + interarrival_ns),
            ArrivalSpec::OpenPoisson {
                mean_interarrival_ns,
            } => {
                // Inverse-CDF exponential gap, floored at 1 ns so two
                // submissions never collapse onto the same instant.
                let u: f64 = self.rng.gen();
                #[allow(
                    clippy::disallowed_methods,
                    reason = "the Poisson gap needs ln; ROADMAP item 13 audits it"
                )]
                let gap = (-(1.0 - u).ln() * mean_interarrival_ns as f64).round() as u64;
                Some(at + gap.max(1))
            }
        };
    }

    /// Notes a completion: a closed-loop clock schedules its next
    /// submission `think_ns` after `done_ns`. No-op for open loops and
    /// for retired clocks (a late completion cannot revive one).
    pub fn note_completed(&mut self, done_ns: u64) {
        if self.retired {
            return;
        }
        if let ArrivalSpec::Closed { think_ns } = self.spec {
            if self.next.is_none() && self.submitted > 0 {
                self.next = Some(done_ns + think_ns);
            }
        }
    }

    /// Permanently stops this client's submissions.
    pub fn retire(&mut self) {
        self.next = None;
        self.retired = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_waits_for_completions() {
        let mut c = ArrivalClock::new(ArrivalSpec::Closed { think_ns: 5 }, 1);
        assert_eq!(c.next_submit(), Some(0));
        c.note_submitted();
        assert_eq!(c.next_submit(), None, "in flight: nothing to submit");
        c.note_completed(100);
        assert_eq!(c.next_submit(), Some(105));
        c.note_submitted();
        c.note_completed(250);
        assert_eq!(c.next_submit(), Some(255));
        assert_eq!(c.submitted(), 2);
    }

    #[test]
    fn open_loop_ignores_completions() {
        let mut c = ArrivalClock::new(
            ArrivalSpec::Open {
                interarrival_ns: 40,
            },
            1,
        );
        c.note_submitted();
        c.note_completed(1_000_000);
        assert_eq!(c.next_submit(), Some(40), "rate does not back off");
        c.note_submitted();
        assert_eq!(c.next_submit(), Some(80));
    }

    #[test]
    fn poisson_gaps_are_deterministic_positive_and_mean_like() {
        let spec = ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: 1_000,
        };
        let mut a = ArrivalClock::new(spec, 7);
        let mut b = ArrivalClock::new(spec, 7);
        let mut last = 0;
        for _ in 0..2_000 {
            let (ta, tb) = (a.next_submit().unwrap(), b.next_submit().unwrap());
            assert_eq!(ta, tb, "same seed, same stream");
            assert!(ta >= last, "times never go backwards");
            assert!(ta == 0 || ta > last, "gaps are at least 1 ns");
            last = ta;
            a.note_submitted();
            b.note_submitted();
        }
        let mean = last as f64 / 2_000.0;
        assert!(
            (mean / 1_000.0 - 1.0).abs() < 0.15,
            "empirical mean gap {mean} too far from 1000"
        );
        let mut c = ArrivalClock::new(spec, 8);
        c.note_submitted();
        assert_ne!(c.next_submit(), a.next_submit(), "seeds decorrelate");
    }

    #[test]
    fn retired_clocks_stay_retired() {
        let mut c = ArrivalClock::new(ArrivalSpec::Closed { think_ns: 0 }, 1);
        c.note_submitted();
        c.retire();
        c.note_completed(500);
        assert_eq!(c.next_submit(), None, "completions cannot revive");
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        assert_eq!(ArrivalSpec::Closed { think_ns: 0 }.label(), "closed");
        assert_eq!(ArrivalSpec::Closed { think_ns: 9 }.label(), "closed+9");
        assert_eq!(ArrivalSpec::Open { interarrival_ns: 5 }.label(), "open5");
        assert_eq!(
            ArrivalSpec::OpenPoisson {
                mean_interarrival_ns: 5
            }
            .label(),
            "poisson5"
        );
    }

    #[test]
    #[should_panic(expected = "interarrival must be > 0")]
    fn zero_rate_open_loop_is_rejected() {
        ArrivalClock::new(ArrivalSpec::Open { interarrival_ns: 0 }, 1);
    }

    #[test]
    fn load_factors_scale_open_rates_and_rescale_think_time() {
        let open = ArrivalSpec::Open {
            interarrival_ns: 1_000,
        };
        assert_eq!(
            open.at_load_factor(2.0),
            ArrivalSpec::Open {
                interarrival_ns: 500
            }
        );
        assert_eq!(
            open.at_load_factor(0.5),
            ArrivalSpec::Open {
                interarrival_ns: 2_000
            }
        );
        assert_eq!(open.at_load_factor(1.0), open);
        // Gaps never collapse to zero, no matter the factor.
        assert_eq!(
            ArrivalSpec::Open { interarrival_ns: 3 }.at_load_factor(1e9),
            ArrivalSpec::Open { interarrival_ns: 1 }
        );

        let poisson = ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: 900,
        };
        assert_eq!(
            poisson.at_load_factor(3.0),
            ArrivalSpec::OpenPoisson {
                mean_interarrival_ns: 300
            }
        );

        let think = ArrivalSpec::Closed { think_ns: 800 };
        assert_eq!(
            think.at_load_factor(2.0),
            ArrivalSpec::Closed { think_ns: 400 },
            "closed loops scale think time, not a rate"
        );
        let saturated = ArrivalSpec::Closed { think_ns: 0 };
        assert_eq!(
            saturated.at_load_factor(5.0),
            saturated,
            "a zero-think loop is already at maximum pressure"
        );
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn degenerate_load_factors_are_rejected() {
        ArrivalSpec::Open {
            interarrival_ns: 1_000,
        }
        .at_load_factor(0.0);
    }
}
