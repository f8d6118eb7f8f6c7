//! Correctness checks behind `failed` / `attempted`.
//!
//! Each workload counts one kind of operation (a trial, a Saturday, a
//! held-out dispatch) and every check below decides whether one operation's
//! output is correct. The checks are pure functions of the outputs so that
//! the tests can feed them deliberately wrong inputs.

use nevermind::locator::DispositionScore;
use nevermind::pipeline::ProactiveOutcome;
use nevermind_dslsim::disposition::N_DISPOSITIONS;
use nevermind_features::encode::RowKey;

/// Attempted and failed operation counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Operations checked.
    pub attempted: usize,
    /// Operations whose output was wrong.
    pub failed: usize,
}

impl Checks {
    /// Counts one operation, failed unless `ok`; prints a line for a failure.
    pub fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("check FAILED: {what}");
        }
    }
}

/// One entry of a week's dispatch list: row, calibrated probability, label.
pub type TopRow = (RowKey, f64, bool);

/// Whether two trial outcomes are identical in every count.
pub fn outcomes_equal(a: &ProactiveOutcome, b: &ProactiveOutcome) -> bool {
    a.policy_start_day == b.policy_start_day
        && a.reactive_tickets == b.reactive_tickets
        && a.proactive_tickets == b.proactive_tickets
        && a.proactive_dispatches == b.proactive_dispatches
        && a.proactive_hits == b.proactive_hits
        && a.reactive_churn == b.reactive_churn
        && a.proactive_churn == b.proactive_churn
}

/// Whether a trial outcome is internally consistent: the policy sent
/// dispatches, at most `budget` per policy Saturday, and no more of them
/// found a fault than were sent.
pub fn outcome_is_sane(o: &ProactiveOutcome, budget: usize, policy_saturdays: usize) -> bool {
    o.proactive_dispatches > 0
        && o.proactive_dispatches <= budget * policy_saturdays
        && o.proactive_hits <= o.proactive_dispatches
        && o.reactive_tickets > 0
}

/// Whether a week's top-`budget` list is well formed: exactly `budget`
/// rows (or the whole plant if smaller), distinct lines of the plant, all
/// on `day`, with finite probabilities in descending order.
pub fn top_list_is_wellformed(top: &[TopRow], budget: usize, n_lines: usize, day: u32) -> bool {
    let mut seen = vec![false; n_lines];
    top.len() == budget.min(n_lines)
        && top.iter().all(|(k, p, _)| {
            let i = k.line.index();
            let fresh = i < n_lines && !seen[i];
            if fresh {
                seen[i] = true;
            }
            fresh && k.day == day && p.is_finite()
        })
        && top.windows(2).all(|w| w[0].1 >= w[1].1)
}

/// Whether two top lists agree row for row, bit for bit.
pub fn top_lists_equal(a: &[TopRow], b: &[TopRow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits() && x.2 == y.2)
}

/// Whether a combined locator ranking lists every disposition exactly once
/// (modeled ones with their posterior, the rest at their prior), with
/// finite probabilities in descending order.
pub fn ranking_is_wellformed(scores: &[DispositionScore]) -> bool {
    let mut seen = [false; N_DISPOSITIONS];
    scores.len() == N_DISPOSITIONS
        && scores.iter().all(|s| {
            let i = usize::from(s.disposition.0);
            let fresh = i < N_DISPOSITIONS && !seen[i];
            if fresh {
                seen[i] = true;
            }
            fresh && s.probability.is_finite()
        })
        && scores.windows(2).all(|w| w[0].probability >= w[1].probability)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_dslsim::disposition::DispositionId;
    use nevermind_dslsim::LineId;

    fn outcome() -> ProactiveOutcome {
        ProactiveOutcome {
            policy_start_day: 210,
            reactive_tickets: 900,
            proactive_tickets: 820,
            proactive_dispatches: 400,
            proactive_hits: 250,
            reactive_churn: 30,
            proactive_churn: 25,
        }
    }

    fn top(day: u32) -> Vec<TopRow> {
        (0..5u32)
            .map(|i| (RowKey { line: LineId(i * 3), day }, 0.9 - f64::from(i) * 0.1, i % 2 == 0))
            .collect()
    }

    fn ranking() -> Vec<DispositionScore> {
        (0..N_DISPOSITIONS)
            .map(|i| DispositionScore {
                disposition: DispositionId(i as u8),
                probability: 1.0 / (1.0 + i as f64),
            })
            .collect()
    }

    /// Runs a check through [`Checks`] and returns the failure count.
    fn failures(ok: bool) -> usize {
        let mut c = Checks::default();
        c.record(ok, "self-test");
        assert_eq!(c.attempted, 1);
        c.failed
    }

    #[test]
    fn trial_check_counts_a_differing_outcome() {
        assert_eq!(failures(outcomes_equal(&outcome(), &outcome())), 0);
        let mut other = outcome();
        other.proactive_hits += 1;
        assert_eq!(failures(outcomes_equal(&outcome(), &other)), 1);
        assert_eq!(failures(outcome_is_sane(&outcome(), 20, 22)), 0);
        assert_eq!(failures(outcome_is_sane(&other, 10, 22)), 1, "more dispatches than budget");
        let mut idle = outcome();
        idle.proactive_dispatches = 0;
        idle.proactive_hits = 0;
        assert_eq!(failures(outcome_is_sane(&idle, 20, 22)), 1, "policy never dispatched");
    }

    #[test]
    fn saturday_check_counts_a_wrong_list() {
        assert_eq!(failures(top_list_is_wellformed(&top(363), 5, 100, 363)), 0);
        assert_eq!(failures(top_list_is_wellformed(&top(363), 6, 100, 363)), 1, "short list");
        assert_eq!(failures(top_list_is_wellformed(&top(356), 5, 100, 363)), 1, "wrong day");
        let mut dup = top(363);
        dup[4].0 = dup[0].0;
        assert_eq!(failures(top_list_is_wellformed(&dup, 5, 100, 363)), 1, "duplicate line");
        let mut unsorted = top(363);
        unsorted.swap(0, 1);
        assert_eq!(failures(top_list_is_wellformed(&unsorted, 5, 100, 363)), 1, "not descending");
        let mut nan = top(363);
        nan[4].1 = f64::NAN;
        assert_eq!(failures(top_list_is_wellformed(&nan, 5, 100, 363)), 1, "non-finite");

        assert_eq!(failures(top_lists_equal(&top(363), &top(363))), 0);
        let mut off = top(363);
        off[2].1 = f64::from_bits(off[2].1.to_bits() + 1);
        assert_eq!(failures(top_lists_equal(&top(363), &off)), 1, "one ulp differs");
        assert_eq!(failures(top_lists_equal(&top(363), &top(363)[..4])), 1, "shorter");
    }

    #[test]
    fn locator_check_counts_a_wrong_ranking() {
        assert_eq!(failures(ranking_is_wellformed(&ranking())), 0);
        let mut missing = ranking();
        missing.pop();
        assert_eq!(failures(ranking_is_wellformed(&missing)), 1, "disposition missing");
        let mut twice = ranking();
        twice[51].disposition = DispositionId(0);
        assert_eq!(failures(ranking_is_wellformed(&twice)), 1, "disposition listed twice");
        let mut unsorted = ranking();
        unsorted.swap(3, 4);
        assert_eq!(failures(ranking_is_wellformed(&unsorted)), 1, "not descending");
        let mut inf = ranking();
        inf[0].probability = f64::INFINITY;
        assert_eq!(failures(ranking_is_wellformed(&inf)), 1, "non-finite");
    }
}
