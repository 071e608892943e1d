//! Order statistics over latency samples.
//!
//! On a shared cloud VM (measured on a 2-vCPU 2.1 GHz Xeon) a few
//! percent of operations are slowed 2x or more, and whole minutes run
//! several percent slow. The statistics are chosen so that the slowed operations
//! do not move them:
//!
//! * **p50** is the median over *keys* (pairs, or request positions in a
//!   round) of each key's median over the run's rounds. Every key
//!   contributes the same number of samples, and keys differ in cost, so
//!   a pooled median would sit on the edge between two keys' costs and
//!   jump between them; the median of per-key medians moves only when a
//!   key's own cost moves.
//! * **tail** applies the rule "the highest percentile with at least
//!   [`TAIL_BEYOND`] samples beyond it" (the 11th-largest value) to
//!   *cells*: the median of one key's samples over a group of
//!   consecutive rounds, the groups as long as still leaves about
//!   [`MIN_CELLS`] cells. A slowed operation then moves its cell only when
//!   it slows most of that cell's samples. With fewer than `MIN_CELLS`
//!   samples every sample is its own cell.
//! * **rate** (operations per second) is the number of keys over the sum
//!   of their medians: a round's operations over the time a round takes
//!   at each operation's median.

use std::collections::BTreeMap;

/// Samples that must lie beyond the tail value.
pub const TAIL_BEYOND: usize = 10;

/// Cells the tail is taken over, at least (when there are as many
/// samples).
pub const MIN_CELLS: usize = 200;

/// Median of `values` (mean of the two middle values for even counts).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The tail sample and its percentile: the largest value with at least
/// [`TAIL_BEYOND`] samples strictly after it in sorted order. Fewer than
/// `TAIL_BEYOND + 1` samples have no such value; the maximum is returned
/// then, at percentile 100.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return Some((sorted[n - 1], 100.0));
    }
    let index = n - TAIL_BEYOND - 1;
    let percentile = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some((sorted[index], percentile))
}

/// Latency samples tagged with their key and the round that took them.
#[derive(Debug, Default, Clone)]
pub struct Keyed {
    samples: Vec<(usize, usize, f64)>,
}

impl Keyed {
    /// Records one sample of `key` taken in `round`.
    pub fn push(&mut self, key: usize, round: usize, value: f64) {
        self.samples.push((key, round, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Sum of every sample.
    pub fn sum(&self) -> f64 {
        self.samples.iter().map(|s| s.2).sum()
    }

    /// Each key's median, in key order.
    fn key_medians(&self) -> Vec<f64> {
        let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(key, _, value) in &self.samples {
            by_key.entry(key).or_default().push(value);
        }
        by_key.values().filter_map(|v| median(v)).collect()
    }

    /// The median of per-key medians (see the module docs).
    pub fn p50(&self) -> Option<f64> {
        median(&self.key_medians())
    }

    /// The cells of the tail (see the module docs).
    fn cells(&self) -> Vec<f64> {
        let rounds = self.samples.iter().map(|s| s.1 + 1).max().unwrap_or(0);
        let per_cell = (self.samples.len() / MIN_CELLS).clamp(1, rounds.max(1));
        // A last, shorter group joins the one before it.
        let groups = rounds / per_cell;
        let mut cells: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
        for &(key, round, value) in &self.samples {
            let group = (round / per_cell).min(groups.saturating_sub(1));
            cells.entry((key, group)).or_default().push(value);
        }
        cells.values().filter_map(|v| median(v)).collect()
    }

    /// The tail over cells, its percentile, and the number of cells (see
    /// the module docs).
    pub fn tail(&self) -> Option<(f64, f64, usize)> {
        let cells = self.cells();
        tail(&cells).map(|(value, percentile)| (value, percentile, cells.len()))
    }

    /// Keys over the sum of their medians, per second (samples in
    /// milliseconds).
    pub fn rate(&self) -> Option<f64> {
        let medians = self.key_medians();
        let total: f64 = medians.iter().sum();
        (total > 0.0).then(|| medians.len() as f64 / (total / 1e3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, percentile) = tail(&values).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), TAIL_BEYOND);
        assert_eq!(percentile, 90.0);

        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (value, percentile) = tail(&values).unwrap();
        assert_eq!(value, 990.0);
        assert_eq!(percentile, 99.0);
    }

    #[test]
    fn tail_of_a_short_run_is_the_maximum() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[5.0, 1.0, 3.0]), Some((5.0, 100.0)));
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((0.0, 100.0 * 1.0 / 11.0)));
    }

    #[test]
    fn keyed_p50_ignores_how_many_samples_each_key_has() {
        // Two cheap keys and two dear ones: the pooled median would sit
        // on whichever side has one more sample; the keyed p50 does not.
        let mut keyed = Keyed::default();
        for round in 0..5 {
            keyed.push(0, round, 1.0);
            keyed.push(1, round, 2.0);
            keyed.push(2, round, 10.0);
        }
        for round in 0..4 {
            keyed.push(3, round, 11.0);
        }
        assert_eq!(keyed.p50(), Some(6.0));
        assert_eq!(keyed.len(), 19);
        assert_eq!(keyed.sum(), 5.0 * 13.0 + 44.0);
    }

    #[test]
    fn slowed_samples_move_neither_tail_nor_rate() {
        // 100 rounds of 10 keys, about 1 ms each: 200 cells of 5 rounds.
        let mut calm = Keyed::default();
        let mut slowed = Keyed::default();
        for round in 0..100 {
            for key in 0..10 {
                let value = 1.0 + key as f64 / 100.0;
                calm.push(key, round, value);
                // Every 7th operation is slowed 40x.
                let slow = (round * 10 + key) % 7 == 0;
                slowed.push(key, round, if slow { 40.0 } else { value });
            }
        }
        let (value, percentile, cells) = calm.tail().unwrap();
        assert_eq!(cells, 200);
        assert_eq!(value, 1.09);
        assert_eq!(percentile, 95.0);
        assert_eq!(slowed.tail().unwrap(), (value, percentile, cells));
        assert_eq!(slowed.rate(), calm.rate());
        assert_eq!(calm.rate(), Some(10.0 / (10.45 / 1e3)));
        // The rule over all samples at once reports the slowed ones.
        let pooled: Vec<f64> = slowed.samples.iter().map(|s| s.2).collect();
        assert_eq!(tail(&pooled).unwrap().0, 40.0);
    }

    #[test]
    fn short_runs_take_the_tail_over_samples() {
        let mut keyed = Keyed::default();
        for round in 0..12 {
            for key in 0..8 {
                keyed.push(key, round, (key + 1) as f64);
            }
        }
        // 96 samples, each its own cell: the 11th largest.
        assert_eq!(keyed.tail(), Some((8.0, 100.0 * 86.0 / 96.0, 96)));

        // 7 rounds of 60 keys: groups of 2 rounds, the lone 7th round
        // joining the third group; one cell per key and group.
        let mut wide = Keyed::default();
        for round in 0..7 {
            for key in 0..60 {
                wide.push(key, round, 1.0);
            }
        }
        assert_eq!(wide.cells().len(), 3 * 60);
    }
}
