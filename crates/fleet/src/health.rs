//! Shard health probes: typed probe ids, windowed evaluation over counter
//! deltas, and an any-unhealthy-⇒-unhealthy combination rule.
//!
//! Health is computed **purely** from a [`ProbeWindow`] of counter deltas (plus
//! the instantaneous queue depth), never from callbacks into the service. The
//! reconciler materialises each shard's window from the fleet's history store
//! ([`taxi_obs::HistoryStore`]) reaching [`HealthPolicy::lookback`] behind the
//! newest sample, and feeds it to [`evaluate_window`]; [`evaluate`] keeps the
//! original two-snapshot entry point as a thin delta adapter. Pure inputs keep
//! the probes trivially unit-testable and make the verdict reproducible from a
//! metrics dump.
//!
//! Each probe has a stable typed id ([`ProbeId`]) so operators can triage by
//! name, alert on specific probes, and pin an override without string matching.
//! The combination rule is deliberately paranoid: *any* unhealthy probe marks
//! the shard unhealthy. A shard that sheds half its load but keeps its queue
//! shallow is still a shard the ring should stop favouring.

use std::time::Duration;

use taxi_dispatch::ServiceSnapshot;
use taxi_obs::ServiceWindow;

/// Stable identity of one health probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeId {
    /// Queue depth against capacity: a saturated queue means new work waits
    /// behind a backlog the shard is not clearing.
    QueueSaturation,
    /// Fraction of recent completions that resolved after their deadline.
    DeadlineMissRate,
    /// Solution-cache hit rate collapsing below the floor on a warm shard —
    /// the signal that this shard is no longer seeing its affinity traffic or
    /// its cache is thrashing.
    CacheHitCollapse,
    /// Fraction of recent offered load shed by the admission policy.
    ShedRate,
    /// Worker solve panics observed in the window. Unlike the rate probes this
    /// one is treated as a **crash signal**: the reconciler routes the shard
    /// through `Failed` containment rather than mere degradation.
    WorkerPanic,
    /// An operator override is pinning the verdict (appears in reports only
    /// while an override is active).
    Operator,
}

impl ProbeId {
    /// Every automatic probe, in evaluation order ([`Operator`](ProbeId::Operator)
    /// is excluded: it is injected by the control plane, not evaluated).
    pub const ALL: [ProbeId; 5] = [
        ProbeId::QueueSaturation,
        ProbeId::DeadlineMissRate,
        ProbeId::CacheHitCollapse,
        ProbeId::ShedRate,
        ProbeId::WorkerPanic,
    ];

    /// Short stable label for snapshots and logs.
    pub fn label(self) -> &'static str {
        match self {
            ProbeId::QueueSaturation => "queue-saturation",
            ProbeId::DeadlineMissRate => "deadline-miss-rate",
            ProbeId::CacheHitCollapse => "cache-hit-collapse",
            ProbeId::ShedRate => "shed-rate",
            ProbeId::WorkerPanic => "worker-panic",
            ProbeId::Operator => "operator-override",
        }
    }
}

impl std::fmt::Display for ProbeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The two-valued health verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthVerdict {
    /// All probes within policy.
    Healthy,
    /// At least one probe out of policy.
    Unhealthy,
}

impl HealthVerdict {
    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Unhealthy => "unhealthy",
        }
    }
}

impl std::fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One probe's finding for one evaluation window.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Which probe produced this report.
    pub probe: ProbeId,
    /// The probe's verdict for the window.
    pub verdict: HealthVerdict,
    /// Human-readable evidence (`"depth 31/32 ≥ 90% capacity"`).
    pub detail: String,
}

impl HealthReport {
    fn healthy(probe: ProbeId, detail: String) -> Self {
        Self {
            probe,
            verdict: HealthVerdict::Healthy,
            detail,
        }
    }

    fn unhealthy(probe: ProbeId, detail: String) -> Self {
        Self {
            probe,
            verdict: HealthVerdict::Unhealthy,
            detail,
        }
    }
}

/// Thresholds for the automatic probes.
///
/// The rate probes (`deadline_miss_rate`, `shed_rate`, `cache_hit_floor`) judge
/// a **history window**, not lifetime totals: the counter deltas between the
/// newest sample in the fleet's history store and the oldest sample of the
/// shard's current generation at most [`lookback`](Self::lookback) behind it
/// (a generation with no such older sample is judged on its totals since it
/// started). A shard that recovers therefore recovers: old
/// badness ages out once it falls behind the lookback instead of haunting a
/// lifetime average. Each rate probe stays silent (healthy, "window too
/// small") until its window holds at least `min_window` observations — small
/// windows make noisy verdicts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Queue depth / capacity at or above this is unhealthy (default 0.9).
    pub queue_saturation: f64,
    /// Windowed deadline-miss fraction at or above this is unhealthy
    /// (default 0.5).
    pub deadline_miss_rate: f64,
    /// Windowed shed fraction of offered load at or above this is unhealthy
    /// (default 0.5).
    pub shed_rate: f64,
    /// Windowed cache hit rate strictly below this is unhealthy, judged only
    /// when the shard has a cache and the window is large enough (default 0.05).
    pub cache_hit_floor: f64,
    /// Minimum windowed observation count before a rate probe judges
    /// (default 16).
    pub min_window: u64,
    /// Worker panics in the window at or above this trip the crash probe
    /// (default 1: any panic is a crash).
    pub worker_panic_limit: u64,
    /// How far behind the newest history sample the probe window reaches
    /// (default 250ms). Longer lookbacks smooth noisy verdicts; shorter ones
    /// react faster. Only used by the history-store-backed fleet path — the
    /// raw [`evaluate`] adapter judges whatever two snapshots it is given.
    pub lookback: Duration,
}

impl HealthPolicy {
    /// Default thresholds (see field docs).
    pub fn new() -> Self {
        Self {
            queue_saturation: 0.9,
            deadline_miss_rate: 0.5,
            shed_rate: 0.5,
            cache_hit_floor: 0.05,
            min_window: 16,
            worker_panic_limit: 1,
            lookback: Duration::from_millis(250),
        }
    }

    /// Sets the probe window lookback.
    #[must_use]
    pub fn with_lookback(mut self, lookback: Duration) -> Self {
        self.lookback = lookback;
        self
    }
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// The full result of one health evaluation: every probe's report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthCheck {
    /// One report per evaluated probe (plus [`ProbeId::Operator`] when an
    /// override is active — injected by the control plane).
    pub reports: Vec<HealthReport>,
}

impl HealthCheck {
    /// Combined verdict: unhealthy iff **any** report is unhealthy. An empty
    /// check (no probes ran yet) is healthy.
    pub fn verdict(&self) -> HealthVerdict {
        if self
            .reports
            .iter()
            .any(|r| r.verdict == HealthVerdict::Unhealthy)
        {
            HealthVerdict::Unhealthy
        } else {
            HealthVerdict::Healthy
        }
    }

    /// Whether the crash probe specifically tripped (routes the shard to
    /// `Failed` containment instead of `Degraded`).
    pub fn crashed(&self) -> bool {
        self.reports
            .iter()
            .any(|r| r.probe == ProbeId::WorkerPanic && r.verdict == HealthVerdict::Unhealthy)
    }

    /// The unhealthy reports, for snapshots and triage.
    pub fn failing(&self) -> impl Iterator<Item = &HealthReport> {
        self.reports
            .iter()
            .filter(|r| r.verdict == HealthVerdict::Unhealthy)
    }
}

/// Windowed fraction helper: `part / whole`, `None` when the window is smaller
/// than `min_window`.
fn windowed_rate(part: u64, whole: u64, min_window: u64) -> Option<f64> {
    if whole < min_window.max(1) {
        None
    } else {
        Some(part as f64 / whole as f64)
    }
}

/// The counter deltas one health evaluation judges: a plain-old-data window
/// that can be built from two consecutive [`ServiceSnapshot`]s (the original
/// [`evaluate`] adapter) or from the fleet's history store (a
/// [`taxi_obs::ServiceWindow`], via `From`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeWindow {
    /// Completions in the window.
    pub completed: u64,
    /// Deadline misses in the window.
    pub deadline_misses: u64,
    /// Admissions in the window.
    pub submitted: u64,
    /// Sheds in the window.
    pub shed: u64,
    /// Worker panics in the window.
    pub worker_panics: u64,
    /// Whether the shard has a solution cache attached (gates the
    /// [`CacheHitCollapse`](ProbeId::CacheHitCollapse) probe).
    pub has_cache: bool,
    /// Cache lookups that hit, in the window.
    pub cache_hits: u64,
    /// Total cache lookups in the window.
    pub cache_lookups: u64,
}

impl From<&ServiceWindow> for ProbeWindow {
    fn from(window: &ServiceWindow) -> Self {
        Self {
            completed: window.completed,
            deadline_misses: window.deadline_misses,
            submitted: window.submitted,
            shed: window.shed,
            worker_panics: window.worker_panics,
            has_cache: window.has_cache,
            cache_hits: window.cache_lookup_hits,
            cache_lookups: window.cache_lookup_hits + window.cache_lookup_misses,
        }
    }
}

impl ProbeWindow {
    /// The delta window between two snapshots of the same service generation
    /// (`prev = None` means "since the generation started": lifetime totals).
    /// Counters are monotone within a generation, so `saturating_sub` only
    /// matters across a missed generation swap, where the window is garbage
    /// anyway and the caller re-windows next tick.
    pub fn between(prev: Option<&ServiceSnapshot>, curr: &ServiceSnapshot) -> Self {
        let (base_hits, base_lookups) = match prev.and_then(|p| p.cache) {
            Some(cache) => (cache.hits, cache.hits + cache.misses),
            None => (0, 0),
        };
        let (hits, lookups) = match curr.cache {
            Some(cache) => (
                cache.hits.saturating_sub(base_hits),
                (cache.hits + cache.misses).saturating_sub(base_lookups),
            ),
            None => (0, 0),
        };
        Self {
            completed: curr
                .completed
                .saturating_sub(prev.map_or(0, |p| p.completed)),
            deadline_misses: curr
                .deadline_misses
                .saturating_sub(prev.map_or(0, |p| p.deadline_misses)),
            submitted: curr
                .submitted
                .saturating_sub(prev.map_or(0, |p| p.submitted)),
            shed: curr.shed.saturating_sub(prev.map_or(0, |p| p.shed)),
            worker_panics: curr
                .worker_panics
                .saturating_sub(prev.map_or(0, |p| p.worker_panics)),
            has_cache: curr.cache.is_some(),
            cache_hits: hits,
            cache_lookups: lookups,
        }
    }
}

/// Evaluates every automatic probe against the delta between `prev` and `curr`
/// — the two-snapshot adapter over [`evaluate_window`].
///
/// `prev = None` (first tick of a generation) judges the lifetime totals — the
/// window since the generation started. `queue_capacity = 0` (unbounded queue)
/// disables the saturation probe. All probes report even when healthy, so a
/// snapshot shows the evidence either way.
pub fn evaluate(
    policy: &HealthPolicy,
    prev: Option<&ServiceSnapshot>,
    curr: &ServiceSnapshot,
    queue_depth: usize,
    queue_capacity: usize,
) -> HealthCheck {
    evaluate_window(
        policy,
        &ProbeWindow::between(prev, curr),
        queue_depth,
        queue_capacity,
    )
}

/// Evaluates every automatic probe against one [`ProbeWindow`] of counter
/// deltas plus the instantaneous queue depth.
pub fn evaluate_window(
    policy: &HealthPolicy,
    window: &ProbeWindow,
    queue_depth: usize,
    queue_capacity: usize,
) -> HealthCheck {
    let mut reports = Vec::with_capacity(ProbeId::ALL.len());

    // Queue saturation: instantaneous, needs no window.
    if queue_capacity == 0 {
        reports.push(HealthReport::healthy(
            ProbeId::QueueSaturation,
            format!("depth {queue_depth}, unbounded queue"),
        ));
    } else {
        let ratio = queue_depth as f64 / queue_capacity as f64;
        let detail = format!(
            "depth {queue_depth}/{queue_capacity} = {:.0}% (limit {:.0}%)",
            ratio * 100.0,
            policy.queue_saturation * 100.0
        );
        if ratio >= policy.queue_saturation {
            reports.push(HealthReport::unhealthy(ProbeId::QueueSaturation, detail));
        } else {
            reports.push(HealthReport::healthy(ProbeId::QueueSaturation, detail));
        }
    }

    let d_completed = window.completed;
    let d_misses = window.deadline_misses;
    let d_shed = window.shed;
    let d_submitted = window.submitted;
    let d_panics = window.worker_panics;

    match windowed_rate(d_misses, d_completed, policy.min_window) {
        Some(rate) if rate >= policy.deadline_miss_rate => {
            reports.push(HealthReport::unhealthy(
                ProbeId::DeadlineMissRate,
                format!("{d_misses}/{d_completed} recent completions missed deadline"),
            ));
        }
        Some(rate) => reports.push(HealthReport::healthy(
            ProbeId::DeadlineMissRate,
            format!(
                "miss rate {:.0}% over {d_completed} completions",
                rate * 100.0
            ),
        )),
        None => reports.push(HealthReport::healthy(
            ProbeId::DeadlineMissRate,
            format!("window {d_completed} < {} completions", policy.min_window),
        )),
    }

    // Cache hit collapse: only judged when the shard actually has a cache and
    // the window saw enough lookups to mean something.
    if window.has_cache {
        let d_hits = window.cache_hits;
        let d_lookups = window.cache_lookups;
        match windowed_rate(d_hits, d_lookups, policy.min_window) {
            Some(rate) if rate < policy.cache_hit_floor => {
                reports.push(HealthReport::unhealthy(
                    ProbeId::CacheHitCollapse,
                    format!(
                        "hit rate {:.1}% < {:.1}% floor over {d_lookups} lookups",
                        rate * 100.0,
                        policy.cache_hit_floor * 100.0
                    ),
                ));
            }
            Some(rate) => reports.push(HealthReport::healthy(
                ProbeId::CacheHitCollapse,
                format!("hit rate {:.1}% over {d_lookups} lookups", rate * 100.0),
            )),
            None => reports.push(HealthReport::healthy(
                ProbeId::CacheHitCollapse,
                format!("window {d_lookups} < {} lookups", policy.min_window),
            )),
        }
    } else {
        reports.push(HealthReport::healthy(
            ProbeId::CacheHitCollapse,
            "no cache attached".to_string(),
        ));
    }

    let d_offered = d_submitted + d_shed;
    match windowed_rate(d_shed, d_offered, policy.min_window) {
        Some(rate) if rate >= policy.shed_rate => {
            reports.push(HealthReport::unhealthy(
                ProbeId::ShedRate,
                format!("{d_shed}/{d_offered} recent offers shed"),
            ));
        }
        Some(rate) => reports.push(HealthReport::healthy(
            ProbeId::ShedRate,
            format!("shed rate {:.0}% over {d_offered} offers", rate * 100.0),
        )),
        None => reports.push(HealthReport::healthy(
            ProbeId::ShedRate,
            format!("window {d_offered} < {} offers", policy.min_window),
        )),
    }

    // Worker panics: any window size counts — a panic is a panic.
    if d_panics >= policy.worker_panic_limit.max(1) {
        reports.push(HealthReport::unhealthy(
            ProbeId::WorkerPanic,
            format!("{d_panics} worker panic(s) in window"),
        ));
    } else {
        reports.push(HealthReport::healthy(
            ProbeId::WorkerPanic,
            format!("{d_panics} worker panic(s) in window"),
        ));
    }

    HealthCheck { reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use taxi_dispatch::ServiceMetrics;

    fn snapshot_with(
        completed: u64,
        deadline_misses: u64,
        submitted: u64,
        shed: u64,
        worker_panics: u64,
    ) -> ServiceSnapshot {
        // Build through the real metrics hub so the snapshot shape stays honest.
        let metrics = ServiceMetrics::new();
        let tick = Duration::from_millis(1);
        for _ in 0..submitted {
            metrics.record_submitted();
        }
        for index in 0..completed {
            metrics.record_completed(tick, tick, tick, false, index < deadline_misses);
        }
        for _ in 0..shed {
            metrics.record_shed();
        }
        for _ in 0..worker_panics {
            metrics.record_worker_panic();
        }
        metrics.snapshot()
    }

    #[test]
    fn empty_check_and_all_healthy_combine_to_healthy() {
        assert_eq!(HealthCheck::default().verdict(), HealthVerdict::Healthy);
        let curr = snapshot_with(100, 0, 100, 0, 0);
        let check = evaluate(&HealthPolicy::new(), None, &curr, 0, 32);
        assert_eq!(check.verdict(), HealthVerdict::Healthy);
        assert!(!check.crashed());
        assert_eq!(check.reports.len(), ProbeId::ALL.len());
    }

    #[test]
    fn any_unhealthy_probe_makes_the_shard_unhealthy() {
        let curr = snapshot_with(100, 0, 100, 0, 0);
        // Saturated queue alone flips the combined verdict.
        let check = evaluate(&HealthPolicy::new(), None, &curr, 31, 32);
        assert_eq!(check.verdict(), HealthVerdict::Unhealthy);
        let failing: Vec<_> = check.failing().map(|r| r.probe).collect();
        assert_eq!(failing, vec![ProbeId::QueueSaturation]);
    }

    #[test]
    fn rate_probes_judge_the_delta_window_not_lifetime_totals() {
        let policy = HealthPolicy::new();
        // Lifetime: 60/120 misses (over threshold). Window: 0/80 (clean).
        let prev = snapshot_with(40, 60, 40, 0, 0);
        let curr = snapshot_with(120, 60, 120, 0, 0);
        let check = evaluate(&policy, Some(&prev), &curr, 0, 32);
        assert_eq!(check.verdict(), HealthVerdict::Healthy, "{check:?}");

        // The mirror case: clean lifetime average hiding a bad recent window.
        let prev = snapshot_with(1000, 0, 1000, 0, 0);
        let curr = snapshot_with(1032, 30, 1032, 0, 0);
        let check = evaluate(&policy, Some(&prev), &curr, 0, 32);
        assert_eq!(check.verdict(), HealthVerdict::Unhealthy);
        assert_eq!(
            check.failing().map(|r| r.probe).collect::<Vec<_>>(),
            vec![ProbeId::DeadlineMissRate]
        );
    }

    #[test]
    fn small_windows_stay_silent() {
        let policy = HealthPolicy::new();
        // 4/8 deadline misses and 4/8 shed would both trip, but the windows are
        // below min_window (16) so the probes refuse to judge.
        let curr = snapshot_with(8, 4, 4, 4, 0);
        let check = evaluate(&policy, None, &curr, 0, 32);
        assert_eq!(check.verdict(), HealthVerdict::Healthy, "{check:?}");
    }

    #[test]
    fn worker_panics_trip_the_crash_probe_at_any_window_size() {
        let curr = snapshot_with(1, 0, 1, 0, 1);
        let check = evaluate(&HealthPolicy::new(), None, &curr, 0, 32);
        assert_eq!(check.verdict(), HealthVerdict::Unhealthy);
        assert!(check.crashed());

        // But a panic already accounted for in the previous window does not
        // re-trip: the shard was recycled for it (or judged healthy since).
        let prev = snapshot_with(1, 0, 1, 0, 1);
        let curr = snapshot_with(2, 0, 2, 0, 1);
        let check = evaluate(&HealthPolicy::new(), Some(&prev), &curr, 0, 32);
        assert!(!check.crashed());
    }

    #[test]
    fn shed_rate_judges_offered_load() {
        let policy = HealthPolicy::new();
        // 20 shed out of 40 offered (20 admitted + 20 shed) = 50% ≥ threshold.
        let curr = snapshot_with(20, 0, 20, 20, 0);
        let check = evaluate(&policy, None, &curr, 0, 0);
        assert_eq!(
            check.failing().map(|r| r.probe).collect::<Vec<_>>(),
            vec![ProbeId::ShedRate]
        );
        // Unbounded queue (capacity 0) keeps the saturation probe healthy.
        assert!(check
            .reports
            .iter()
            .any(|r| r.probe == ProbeId::QueueSaturation && r.verdict == HealthVerdict::Healthy));
    }

    #[test]
    fn probe_labels_are_stable_and_distinct() {
        let labels: std::collections::HashSet<_> = ProbeId::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), ProbeId::ALL.len());
        assert_eq!(ProbeId::Operator.to_string(), "operator-override");
        assert_eq!(HealthVerdict::Unhealthy.to_string(), "unhealthy");
    }
}
