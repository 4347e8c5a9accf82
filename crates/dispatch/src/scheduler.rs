//! Dynamic micro-batching over the admission queue.
//!
//! A [`MicroBatcher`] turns the stream of queued requests into **micro-batches** under
//! a max-batch-size + max-linger-deadline rule ([`BatchPolicy`]): a batch closes as
//! soon as [`max_batch`](BatchPolicy::max_batch) requests are queued, or when the
//! oldest queued request has waited [`linger`](BatchPolicy::linger) — whichever comes
//! first. Lingering trades a bounded amount of queue wait for fewer, larger drains:
//! one lock acquisition, one producer wake-up and one clock read per batch instead of
//! per request, which is what lets throughput scale at saturating load (taxibench
//! reports the mean batch size under open-loop load as `dispatch.batch_size_mean`).
//!
//! Batches are **priority-scheduled**: queued interactive requests are always drained
//! before bulk ones, and within the drained batch requests execute in deadline order
//! (earliest absolute deadline first; deadline-less requests last, FIFO). Batch
//! formation also decides **graceful degradation**: when the queue depth at formation
//! time reaches [`overload_threshold`](BatchPolicy::overload_threshold), the batch is
//! flagged overloaded and workers downgrade its bulk requests to the cheaper backend.

use std::cmp::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::queue::DispatchQueue;
use crate::request::Pending;

/// The micro-batching rule.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use taxi_dispatch::BatchPolicy;
///
/// let policy = BatchPolicy::new()
///     .with_max_batch(16)
///     .with_linger(Duration::from_micros(250))
///     .with_overload_threshold(64);
/// assert_eq!(policy.max_batch, 16);
/// assert_eq!(policy.overload_threshold, Some(64));
/// assert_eq!(policy.without_degradation().overload_threshold, None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per batch. `1` disables batching (every drain takes one
    /// request — the baseline the load harness compares against).
    pub max_batch: usize,
    /// Maximum time the oldest queued request may wait for companions before the
    /// batch closes anyway. `ZERO` drains whatever is queued immediately.
    pub linger: Duration,
    /// Queue depth (measured at batch formation, before draining) at which the
    /// service counts as overloaded and bulk requests degrade to the cheaper backend.
    /// `None` disables degradation.
    pub overload_threshold: Option<usize>,
}

impl BatchPolicy {
    /// The default rule: batches of up to 8, 500µs linger, degradation disabled.
    pub fn new() -> Self {
        Self {
            max_batch: 8,
            linger: Duration::from_micros(500),
            overload_threshold: None,
        }
    }

    /// Sets the maximum batch size.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch > 0, "a batch holds at least one request");
        self.max_batch = max_batch;
        self
    }

    /// Sets the linger deadline.
    #[must_use]
    pub fn with_linger(mut self, linger: Duration) -> Self {
        self.linger = linger;
        self
    }

    /// Enables graceful degradation at the given queue depth.
    #[must_use]
    pub fn with_overload_threshold(mut self, depth: usize) -> Self {
        self.overload_threshold = Some(depth);
        self
    }

    /// Disables graceful degradation.
    #[must_use]
    pub fn without_degradation(mut self) -> Self {
        self.overload_threshold = None;
        self
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Formation-time facts about one micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchMeta {
    /// Queue depth when the batch was formed (before draining it).
    pub depth_at_formation: usize,
    /// Whether the depth reached the policy's overload threshold — workers degrade
    /// bulk requests of an overloaded batch.
    pub overloaded: bool,
}

/// Drains a [`DispatchQueue`] into micro-batches under a [`BatchPolicy`].
///
/// Any number of batchers (one per worker) may drain one queue concurrently; batch
/// formation is serialised by the queue lock, and every drained request belongs to
/// exactly one batch.
#[derive(Debug)]
pub struct MicroBatcher {
    queue: Arc<DispatchQueue>,
    policy: BatchPolicy,
}

impl MicroBatcher {
    /// Creates a batcher draining `queue` under `policy`.
    pub fn new(queue: Arc<DispatchQueue>, policy: BatchPolicy) -> Self {
        Self { queue, policy }
    }

    /// The batcher's policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Blocks until a micro-batch forms, drains it into `out` (cleared first, in
    /// execution order) and returns its [`BatchMeta`] — or returns `None` once the
    /// queue is closed **and** empty (end of stream).
    ///
    /// In steady state this performs no heap allocation once `out` has grown to
    /// `max_batch` capacity: draining moves pendings out of the pre-sized class rings
    /// and the execution-order sort is in place.
    pub fn next_batch(&self, out: &mut Vec<Pending>) -> Option<BatchMeta> {
        out.clear();
        let mut state = self.queue.lock();
        loop {
            // Phase 1: wait for the queue to be non-empty (or closed out).
            while state.len() == 0 {
                if state.closed {
                    return None;
                }
                state = self
                    .queue
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }

            // Phase 2: linger. The deadline is anchored at the *oldest* queued
            // request's submission, so a request that already waited its linger out
            // (because every worker was busy) is drained immediately.
            if self.policy.max_batch > 1 && !self.policy.linger.is_zero() {
                let anchor = state
                    .oldest_submitted_at()
                    .expect("phase 1 left the queue non-empty");
                let deadline = anchor + self.policy.linger;
                while state.len() < self.policy.max_batch && !state.closed {
                    let now = Instant::now();
                    let Some(remaining) = deadline.checked_duration_since(now) else {
                        break;
                    };
                    let (guard, timeout) = self
                        .queue
                        .not_empty
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    state = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }

            // Phase 3: drain. Another batcher may have raced us to the requests while
            // we lingered; if so, go back to waiting.
            let depth_at_formation = state.len();
            if depth_at_formation == 0 {
                continue;
            }
            while out.len() < self.policy.max_batch {
                let Some(pending) = state.pop_front() else {
                    break;
                };
                out.push(pending);
            }
            drop(state);
            self.queue.notify_space();

            // Execution order within the batch: priority class first, then earliest
            // absolute deadline (deadline-less requests last), then submission order.
            out.sort_unstable_by(|a, b| {
                a.request()
                    .priority
                    .cmp(&b.request().priority)
                    .then_with(|| match (a.deadline(), b.deadline()) {
                        (Some(x), Some(y)) => x.cmp(&y),
                        (Some(_), None) => Ordering::Less,
                        (None, Some(_)) => Ordering::Greater,
                        (None, None) => Ordering::Equal,
                    })
                    .then_with(|| a.seq().cmp(&b.seq()))
            });

            let overloaded = self
                .policy
                .overload_threshold
                .is_some_and(|threshold| depth_at_formation >= threshold);
            return Some(BatchMeta {
                depth_at_formation,
                overloaded,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServiceMetrics;
    use crate::queue::AdmissionPolicy;
    use crate::request::{DispatchRequest, Priority};
    use taxi_tsplib::generator::random_uniform_instance;

    fn queue(capacity: usize) -> Arc<DispatchQueue> {
        Arc::new(DispatchQueue::new(
            capacity,
            AdmissionPolicy::Reject,
            Arc::new(ServiceMetrics::new()),
        ))
    }

    fn request(priority: Priority) -> DispatchRequest {
        DispatchRequest::new(random_uniform_instance("s", 6, 5)).with_priority(priority)
    }

    fn drain_all(batch: Vec<Pending>) {
        for pending in batch {
            pending.shed();
        }
    }

    #[test]
    fn max_batch_caps_the_drain() {
        let q = queue(16);
        let _tickets: Vec<_> = (0..5)
            .map(|_| q.submit(request(Priority::Bulk)).unwrap())
            .collect();
        let batcher = MicroBatcher::new(
            Arc::clone(&q),
            BatchPolicy::new()
                .with_max_batch(3)
                .with_linger(Duration::ZERO),
        );
        let mut batch = Vec::new();
        let meta = batcher.next_batch(&mut batch).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(meta.depth_at_formation, 5);
        drain_all(batch);
        let mut rest = Vec::new();
        assert!(batcher.next_batch(&mut rest).is_some());
        assert_eq!(rest.len(), 2);
        drain_all(rest);
    }

    #[test]
    fn batches_order_by_priority_then_deadline_then_seq() {
        let q = queue(16);
        let _b_late = q
            .submit(request(Priority::Bulk).with_deadline(Duration::from_secs(60)))
            .unwrap();
        let _b_none = q.submit(request(Priority::Bulk)).unwrap();
        let _i_late = q
            .submit(request(Priority::Interactive).with_deadline(Duration::from_secs(50)))
            .unwrap();
        let _b_soon = q
            .submit(request(Priority::Bulk).with_deadline(Duration::from_secs(1)))
            .unwrap();
        let _i_soon = q
            .submit(request(Priority::Interactive).with_deadline(Duration::from_secs(2)))
            .unwrap();
        let batcher = MicroBatcher::new(
            Arc::clone(&q),
            BatchPolicy::new()
                .with_max_batch(8)
                .with_linger(Duration::ZERO),
        );
        let mut batch = Vec::new();
        batcher.next_batch(&mut batch).unwrap();
        let seqs: Vec<u64> = batch.iter().map(Pending::seq).collect();
        // Interactive (soonest deadline first), then bulk by deadline, deadline-less
        // last.
        assert_eq!(seqs, vec![4, 2, 3, 0, 1]);
        drain_all(batch);
    }

    #[test]
    fn overload_threshold_flags_batches() {
        let q = queue(16);
        for _ in 0..4 {
            let _ = q.submit(request(Priority::Bulk)).unwrap();
        }
        let policy = BatchPolicy::new()
            .with_max_batch(2)
            .with_linger(Duration::ZERO)
            .with_overload_threshold(4);
        let batcher = MicroBatcher::new(Arc::clone(&q), policy);
        let mut batch = Vec::new();
        assert!(batcher.next_batch(&mut batch).unwrap().overloaded);
        drain_all(batch);
        // Depth dropped below the threshold: the next batch is not overloaded.
        let mut batch = Vec::new();
        assert!(!batcher.next_batch(&mut batch).unwrap().overloaded);
        drain_all(batch);
    }

    #[test]
    fn linger_waits_for_companions() {
        let q = queue(16);
        let batcher = MicroBatcher::new(
            Arc::clone(&q),
            BatchPolicy::new()
                .with_max_batch(2)
                .with_linger(Duration::from_secs(5)),
        );
        let _first = q.submit(request(Priority::Bulk)).unwrap();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let batcher = MicroBatcher::new(
                    q,
                    BatchPolicy::new()
                        .with_max_batch(2)
                        .with_linger(Duration::from_secs(5)),
                );
                let mut batch = Vec::new();
                let meta = batcher.next_batch(&mut batch);
                (batch.len(), meta)
            })
        };
        // The consumer lingers waiting for a second request; submitting one closes
        // the batch long before the 5s linger deadline.
        std::thread::sleep(Duration::from_millis(30));
        let _second = q.submit(request(Priority::Bulk)).unwrap();
        let (size, meta) = consumer.join().unwrap();
        assert_eq!(size, 2);
        assert!(meta.is_some());
        let _ = batcher;
    }

    #[test]
    fn closed_empty_queue_ends_the_stream() {
        let q = queue(4);
        let _t = q.submit(request(Priority::Bulk)).unwrap();
        q.close();
        let batcher = MicroBatcher::new(
            Arc::clone(&q),
            BatchPolicy::new().with_linger(Duration::ZERO),
        );
        let mut batch = Vec::new();
        // Drains the remaining request first...
        assert!(batcher.next_batch(&mut batch).is_some());
        assert_eq!(batch.len(), 1);
        drain_all(batch);
        // ...then reports end of stream.
        let mut empty = Vec::new();
        assert!(batcher.next_batch(&mut empty).is_none());
    }
}
