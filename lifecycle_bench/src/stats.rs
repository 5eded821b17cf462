//! Pure arithmetic of the benchmark: percentiles with a supported tail,
//! slice-median rates, metric-name validation, `/stats` deltas and the
//! answer-source tally. Kept free of I/O so it is unit-tested below.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles in per-mille, highest first.
const TAIL_LADDER: [u32; 4] = [999, 990, 900, 500];

/// Metric and workload names: a letter or digit first, then at most 63
/// more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// 1-based nearest rank of the `permille` percentile among `n` samples.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn supported_tail(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&pm| n > 0 && n - rank(n, pm) >= TAIL_BEYOND)
}

/// Median and supported tail of a latency sample, with its count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// Per-mille of the reported tail percentile (0 when unsupported).
    pub tail_permille: u32,
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &mut [f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let tail_permille = supported_tail(values.len()).unwrap_or(0);
        Some(Summary {
            samples: values.len(),
            p50: percentile(values, 500),
            tail_permille,
            tail: if tail_permille == 0 {
                f64::NAN
            } else {
                percentile(values, tail_permille)
            },
        })
    }

    /// The named percentile, refused when the sample cannot support it.
    pub fn at(&self, values_sorted: &[f64], permille: u32) -> Option<f64> {
        (self.tail_permille >= permille).then(|| percentile(values_sorted, permille))
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Completions bucketed into fixed-width time slices. A throughput is
/// the median over whole slices, so one stalled second on a shared host
/// moves it less than a plain total over wall time would.
#[derive(Clone, Debug)]
pub struct Slices {
    width_s: f64,
    counts: Vec<u64>,
}

impl Slices {
    pub fn new(width_s: f64) -> Slices {
        Slices {
            width_s,
            counts: Vec::new(),
        }
    }

    /// Count one completion `at_s` seconds after the loop started.
    pub fn add(&mut self, at_s: f64) {
        let idx = (at_s / self.width_s) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Median per-second rate over the slices wholly inside
    /// `[0, wall_s)`; `None` when no slice is whole.
    pub fn median_rate(&self, wall_s: f64) -> Option<f64> {
        let whole = ((wall_s / self.width_s) as usize).min(self.counts.len());
        if whole == 0 {
            return None;
        }
        let rates: Vec<f64> = self.counts[..whole]
            .iter()
            .map(|&c| c as f64 / self.width_s)
            .collect();
        Some(median(&rates))
    }
}

/// The `/stats` counters the benchmark reads, as numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServerStats {
    pub requests: f64,
    pub responses: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    /// Sum of `replica_evals` over the pool.
    pub evals: f64,
    pub swaps: f64,
    pub swap_errors: f64,
    /// Duration of the last swap (a gauge, not a counter).
    pub swap_ms: f64,
}

impl ServerStats {
    pub fn parse(body: &[u8]) -> Result<ServerStats, String> {
        let text = std::str::from_utf8(body).map_err(|_| "stats body is not UTF-8".to_string())?;
        let doc = stwa_observe::parse_json(text).map_err(|e| format!("stats JSON: {e}"))?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_num())
                .ok_or_else(|| format!("stats has no number {key:?}"))
        };
        let evals = doc
            .get("replica_evals")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| "stats has no replica_evals".to_string())?
            .iter()
            .map(|v| {
                v.as_num()
                    .ok_or_else(|| "non-numeric replica_evals".to_string())
            })
            .sum::<Result<f64, String>>()?;
        Ok(ServerStats {
            requests: num("requests")?,
            responses: num("responses")?,
            cache_hits: num("cache_hits")?,
            cache_misses: num("cache_misses")?,
            evals,
            swaps: num("swaps")?,
            swap_errors: num("swap_errors")?,
            swap_ms: num("swap_ms")?,
        })
    }

    /// Counters accumulated since `earlier`; the `swap_ms` gauge keeps
    /// its latest value.
    pub fn since(&self, earlier: &ServerStats) -> ServerStats {
        ServerStats {
            requests: self.requests - earlier.requests,
            responses: self.responses - earlier.responses,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            evals: self.evals - earlier.evals,
            swaps: self.swaps - earlier.swaps,
            swap_errors: self.swap_errors - earlier.swap_errors,
            swap_ms: self.swap_ms,
        }
    }

    /// Requests parsed but never answered, on a delta between two
    /// `/stats` reads taken while no request was in flight. Each read
    /// counts itself as a request before its own response is counted,
    /// so the two reads cancel.
    pub fn dropped(&self) -> f64 {
        self.requests - self.responses
    }
}

/// Useful-work ratio of the serve dispatch: forwards per observed
/// frame (1.00 when every frame costs exactly one forward).
pub fn evals_per_frame(evals: f64, frames: u64) -> Option<f64> {
    (frames > 0).then(|| evals / frames as f64)
}

/// How each forecast answer was produced, from its `cache` field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub hit: u64,
    pub memo: u64,
    pub miss: u64,
    pub other: u64,
}

impl Tally {
    /// Classify one forecast body by its `"cache":"..."` member.
    pub fn record(&mut self, body: &[u8]) -> AnswerSource {
        let source = AnswerSource::of(body);
        match source {
            AnswerSource::Hit => self.hit += 1,
            AnswerSource::Memo => self.memo += 1,
            AnswerSource::Miss => self.miss += 1,
            AnswerSource::Other => self.other += 1,
        }
        source
    }

    pub fn total(&self) -> u64 {
        self.hit + self.memo + self.miss + self.other
    }

    /// (hit, memo, miss) shares of all tallied answers.
    pub fn shares(&self) -> Option<(f64, f64, f64)> {
        let n = self.total() as f64;
        (n > 0.0).then(|| {
            (
                self.hit as f64 / n,
                self.memo as f64 / n,
                self.miss as f64 / n,
            )
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    Hit,
    Memo,
    Miss,
    Other,
}

impl AnswerSource {
    pub fn of(body: &[u8]) -> AnswerSource {
        const TAG: &[u8] = b"\"cache\":\"";
        let Some(at) = find(body, TAG) else {
            return AnswerSource::Other;
        };
        let rest = &body[at + TAG.len()..];
        if rest.starts_with(b"hit\"") {
            AnswerSource::Hit
        } else if rest.starts_with(b"memo\"") {
            AnswerSource::Memo
        } else if rest.starts_with(b"miss\"") {
            AnswerSource::Miss
        } else {
            AnswerSource::Other
        }
    }

    /// Answered by the model thread rather than the IO worker's cache.
    pub fn is_model(self) -> bool {
        matches!(self, AnswerSource::Memo | AnswerSource::Miss)
    }
}

/// Byte-substring search (bodies are a few hundred bytes).
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(500));
        assert_eq!(supported_tail(99), Some(500));
        assert_eq!(supported_tail(100), Some(900));
        assert_eq!(supported_tail(999), Some(900));
        assert_eq!(supported_tail(1000), Some(990));
        assert_eq!(supported_tail(9999), Some(990));
        assert_eq!(supported_tail(10_000), Some(999));
        // The guarantee itself, for every n up to 12k.
        for n in 1..12_000 {
            if let Some(pm) = supported_tail(n) {
                assert!(n - rank(n, pm) >= TAIL_BEYOND, "n={n} pm={pm}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank_and_summary_reports_count() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v).unwrap();
        assert_eq!(s.samples, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!((s.tail_permille, s.tail), (990, 990.0));
        assert_eq!(s.at(&v, 990), Some(990.0));
        assert_eq!(s.at(&v, 999), None);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        let mut few = vec![3.0, 1.0, 2.0];
        let s = Summary::of(&mut few).unwrap();
        assert_eq!((s.samples, s.p50, s.tail_permille), (3, 2.0, 0));
        assert!(s.tail.is_nan());
        assert!(Summary::of(&mut []).is_none());
    }

    #[test]
    fn median_and_slice_rates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut s = Slices::new(0.5);
        for t in [0.1, 0.2, 0.6, 0.7, 0.8, 1.1, 1.2, 1.3, 1.4, 1.6] {
            s.add(t);
        }
        // Whole slices in [0, 1.5): counts 2, 3, 4 per 0.5 s.
        assert_eq!(s.median_rate(1.5), Some(6.0));
        assert_eq!(s.median_rate(0.4), None);
        assert_eq!(s.median_rate(1.0), Some(5.0));
    }

    #[test]
    fn names_follow_the_benchmark_alphabet() {
        for ok in ["frame_fanout", "serve.evals_per_frame", "p99-ms", "0x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "with space",
            "µs",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    const STATS_BEFORE: &str = r#"{"version":1,"requests":120,"responses":119,"conns":2,
        "inline_hits":40,"model_jobs":79,"cache_hits":40,"cache_misses":70,"cache_entries":144,
        "replicas":1,"replica_evals":[12],"replica_depth":[0],"swaps":0,"swap_errors":0,
        "swap_ms":0,"client_aborts":0}"#;
    const STATS_AFTER: &str = r#"{"version":2,"requests":1570,"responses":1569,"conns":2,
        "inline_hits":60,"model_jobs":1500,"cache_hits":60,"cache_misses":1480,"cache_entries":144,
        "replicas":2,"replica_evals":[14,10],"replica_depth":[0,0],"swaps":1,"swap_errors":0,
        "swap_ms":17.25,"client_aborts":0}"#;

    #[test]
    fn stats_deltas_cancel_the_reads_themselves() {
        let a = ServerStats::parse(STATS_BEFORE.as_bytes()).unwrap();
        let b = ServerStats::parse(STATS_AFTER.as_bytes()).unwrap();
        assert_eq!(a.evals, 12.0);
        assert_eq!(b.evals, 24.0);
        let d = b.since(&a);
        assert_eq!(d.requests, 1450.0);
        assert_eq!(d.responses, 1450.0);
        assert_eq!(d.dropped(), 0.0);
        assert_eq!((d.cache_hits, d.cache_misses), (20.0, 1410.0));
        assert_eq!((d.evals, d.swaps, d.swap_errors), (12.0, 1.0, 0.0));
        assert_eq!(d.swap_ms, 17.25);
        // One request parsed and never answered shows as one dropped.
        let mut lost = b;
        lost.requests += 1.0;
        assert_eq!(lost.since(&a).dropped(), 1.0);
        assert!(ServerStats::parse(b"{\"requests\":1}").is_err());
        assert!(ServerStats::parse(b"not json").is_err());
    }

    #[test]
    fn evals_per_frame_is_forwards_over_frames() {
        assert_eq!(evals_per_frame(12.0, 12), Some(1.0));
        assert_eq!(evals_per_frame(24.0, 12), Some(2.0));
        assert_eq!(evals_per_frame(5.0, 0), None);
    }

    #[test]
    fn tally_reads_the_cache_field_of_served_bodies() {
        let mut t = Tally::default();
        let hit = stwa_serve::proto::forecast_body(1, 2, 3, 4, "hit", &[1.0]);
        let memo = stwa_serve::proto::forecast_body(1, 2, 3, 4, "memo", &[1.0]);
        let miss = stwa_serve::proto::forecast_body(1, 2, 3, 4, "miss", &[1.0]);
        assert_eq!(t.record(&hit), AnswerSource::Hit);
        assert_eq!(t.record(&memo), AnswerSource::Memo);
        assert_eq!(t.record(&miss), AnswerSource::Miss);
        assert_eq!(t.record(&miss), AnswerSource::Miss);
        assert_eq!(t.record(b"{\"error\":\"x\"}"), AnswerSource::Other);
        assert_eq!(
            t,
            Tally {
                hit: 1,
                memo: 1,
                miss: 2,
                other: 1
            }
        );
        let (h, m, x) = t.shares().unwrap();
        assert_eq!((h, m, x), (0.2, 0.2, 0.4));
        assert!(AnswerSource::Memo.is_model() && !AnswerSource::Hit.is_model());
        assert_eq!(t.total(), 5);
        assert_eq!(Tally::default().shares(), None);
    }
}
