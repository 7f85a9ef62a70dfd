//! Sample statistics and the small text parsers the benchmark relies on:
//! the tail-percentile rule, the quartile spread, the golden-line
//! parsers and the peak-memory reader.

use std::collections::BTreeMap;

/// Median of `samples` (mean of the two middle values for an even
/// count), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it: the `(n - 10)`-th smallest value, reported with its percentile
/// rank `100 * (n - 10) / n`. `None` when there are fewer than eleven
/// samples, so no value has ten above it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    let rank = n.checked_sub(10).filter(|&r| r >= 1)?;
    Some(Tail { value: s[rank - 1], percentile: 100.0 * rank as f64 / n as f64, samples: n })
}

/// A tail value with the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// First and third quartile of `samples`, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (its default "exclusive"
/// method). `None` with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The distance between the first and third quartile as a share of the
/// median — the steadiness measure the benchmark's bounds are set
/// against.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Parses the golden catalogue (`explore: <label> runs=… complete=…
/// violations=…`, one sweep per line) into label → whole line.
pub fn parse_golden(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("explore: ")?;
            let (label, _) = rest.split_once(" runs=")?;
            Some((label.to_string(), line.to_string()))
        })
        .collect()
}

/// Extracts the summary string pinned in test `test_fn` of a Rust test
/// source: the string literal following the first `out.stats.summary(),`
/// after `fn test_fn(`, with its `\`-newline continuations joined as the
/// compiler joins them.
pub fn parse_pinned_summary(source: &str, test_fn: &str) -> Option<String> {
    let body = &source[source.find(&format!("fn {test_fn}("))?..];
    let after = &body[body.find("out.stats.summary(),")?..];
    let open = after.find('"')? + 1;
    let lit = &after[open..];
    let close = lit.find('"')?;
    let mut out = String::new();
    let mut rest = &lit[..close];
    while let Some(i) = rest.find("\\\n") {
        out.push_str(&rest[..i]);
        rest = rest[i + 2..].trim_start();
    }
    out.push_str(rest);
    Some(out)
}

/// The peak resident set size (`VmHWM`) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// The machine's total steal time in clock ticks (the eighth counter of
/// the `cpu` line of `/proc/stat`): time its processors were ready to run
/// but the hypervisor ran something else.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The machine's steal time so far, in clock ticks.
pub fn steal_ticks() -> Option<u64> {
    parse_steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Lowers this process's `VmHWM` to its current resident size, so the
/// next reading is the peak since this call. Returns whether the kernel
/// accepted the reset (Linux 4.0 and later).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending on purpose: the statistics must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&ramp(10)), None, "ten samples cannot have ten beyond any of them");
        let t = tail(&ramp(11)).expect("eleven samples");
        assert_eq!((t.value, t.samples), (1.0, 11));
        let t = tail(&ramp(1000)).expect("a thousand samples");
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
        let s = ramp(250);
        let t = tail(&s).expect("tail");
        assert_eq!(s.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (clamped,
        // extrapolating past the extremes)
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_spread_is_a_share_of_the_median() {
        // (8.25 - 2.75) / 5.5
        assert_eq!(quartile_spread(&ramp(10)), Some(1.0));
        assert_eq!(quartile_spread(&[7.0; 10]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0; 4]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn golden_lines_are_keyed_by_label() {
        let text = "explore: fig1 n=3 unpruned runs=34650 expansions=110250 complete=true \
                    violations=0\nnot a sweep line\n\
                    explore: fig1 n=3 tso pruned runs=1 flushes=5 complete=false violations=1\n";
        let golden = parse_golden(text);
        assert_eq!(golden.len(), 2);
        assert!(golden["fig1 n=3 unpruned"].ends_with("complete=true violations=0"));
        assert!(golden["fig1 n=3 tso pruned"].starts_with("explore: fig1 n=3 tso pruned runs=1 "));
    }

    #[test]
    fn pinned_summary_joins_continued_literals() {
        let src = "fn other() { assert_eq!(out.stats.summary(), \"wrong\"); }\n\
                   fn pinned_test() {\n    assert_eq!(\n        out.stats.summary(),\n        \
                   \"runs=1 expansions=2 \\\n         symm=3 max_depth=4\",\n    );\n}\n";
        assert_eq!(
            parse_pinned_summary(src, "pinned_test").as_deref(),
            Some("runs=1 expansions=2 symm=3 max_depth=4")
        );
        assert_eq!(parse_pinned_summary(src, "missing"), None);
    }

    #[test]
    fn vmhwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(12345));
        assert_eq!(parse_vmhwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vmhwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn steal_is_the_eighth_cpu_counter() {
        let stat = "cpu  4705 356 584 3699 23 23 0 17 0 0\ncpu0 1393 280 32 1000 5 0 0 9 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(17));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert!(steal_ticks().is_some());
    }

    #[test]
    fn peak_rss_reset_forgets_freed_memory() {
        let before = peak_rss_mib().expect("VmHWM");
        let big = vec![1u8; 64 << 20];
        assert!(std::hint::black_box(&big).iter().step_by(4096).all(|&b| b == 1));
        let with_big = peak_rss_mib().expect("VmHWM");
        assert!(with_big >= before + 60.0, "{with_big} after 64 MiB, {before} before");
        drop(big);
        if reset_peak_rss() {
            assert!(peak_rss_mib().expect("VmHWM") < with_big - 60.0);
        }
    }
}
