//! Sample statistics and the metric record every workload reports.

/// One reported metric: its value, unit, how many samples produced it
/// and, for a latency percentile, which percentile it is.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub percentile: Option<u32>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            percentile: None,
        }
    }

    /// The `pct`-th percentile of `samples` (nearest rank).
    pub fn percentile(name: &'static str, unit: &'static str, samples: &[f64], pct: u32) -> Self {
        Metric {
            name,
            unit,
            value: percentile(samples, pct),
            samples: samples.len(),
            percentile: Some(pct),
        }
    }
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (f64::from(pct) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Milliseconds in a duration given in seconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Named per-layer samples collected by a traced run, reported as the
/// median of each series.
#[derive(Debug, Default)]
pub struct LayerSamples {
    series: Vec<(&'static str, &'static str, Vec<f64>)>,
}

impl LayerSamples {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.series.iter_mut().find(|(n, ..)| *n == name) {
            Some((_, _, values)) => values.push(value),
            None => self.series.push((name, unit, vec![value])),
        }
    }

    pub fn values(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(&[], |(_, _, v)| v.as_slice())
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.series
            .into_iter()
            .map(|(name, unit, values)| Metric::new(name, unit, median(&values), values.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 10.0);
        assert_eq!(percentile(&s, 75), 15.0);
        assert_eq!(percentile(&s, 100), 20.0);
        assert_eq!(percentile(&[3.0], 75), 3.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }
}
