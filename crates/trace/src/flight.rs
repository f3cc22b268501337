//! Always-on flight recorder: a lock-cheap ring buffer of the last N
//! request records plus threshold-triggered slow-request captures that
//! snapshot the full span tree of an offending request.
//!
//! The recorder is designed to run in production with tracing *enabled*:
//! every request costs one `fetch_add` plus one uncontended per-slot mutex
//! (each slot has its own lock, so concurrent workers almost never collide),
//! and span records stream into a bounded ring so memory stays flat no
//! matter how long the process runs. When a request's total latency crosses
//! `slow_threshold_micros`, the recorder extracts that request's span
//! subtree from the ring into a [`SlowCapture`] — the full queue/exec/write
//! breakdown of exactly the request you wish you had profiled.

use crate::{chrome, Collect, Record};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One request as the flight recorder remembers it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecord {
    /// Monotonic sequence number; also the ring ticket returned by `push`.
    pub seq: u64,
    /// Protocol op (`predict`, `advise`, …).
    pub op: String,
    /// Canonical structural hash of the routed program, 0 for keyless ops.
    pub canon_hash: u64,
    /// `ok` or the error kind.
    pub status: String,
    /// Microseconds queued before a worker picked the request up.
    pub queue_micros: u64,
    /// Microseconds executing in the engine.
    pub exec_micros: u64,
    /// Microseconds between completion and the reply flush (reorder + write).
    pub write_micros: u64,
    /// End-to-end microseconds as the server saw them.
    pub total_micros: u64,
    /// Overload retries spent on this request (router side).
    pub retries: u64,
    /// Backend failovers spent on this request (router side).
    pub failovers: u64,
    /// Correlation id echoed on the reply.
    pub request_id: String,
    /// Fleet-wide trace id, empty when the request carried no trace context.
    pub trace_id: String,
    /// Unix microseconds when the record was pushed.
    pub end_unix_micros: u64,
}

/// A slow request's span tree, captured when its total crossed the
/// recorder's threshold.
#[derive(Debug, Clone)]
pub struct SlowCapture {
    pub record: FlightRecord,
    /// The request's span subtree (root first), cloned from the span ring.
    pub spans: Vec<Record>,
}

/// Ring buffer of recent requests + bounded span ring + slow captures.
///
/// Also implements [`Collect`], so it can be installed as the process trace
/// collector: span records stream into the bounded span ring, which is what
/// slow captures and `trace_dump` draw from.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightRecord>>>,
    head: AtomicU64,
    slow_threshold_micros: u64,
    slow: Mutex<VecDeque<SlowCapture>>,
    span_ring: Mutex<VecDeque<Record>>,
    span_capacity: usize,
}

/// Request slots in each binary's flight recorder (`sdlo-service` and
/// `sdlo-router`): the last 256 requests.
pub const CAPACITY: usize = 256;

/// How many slow captures are retained (oldest evicted first).
const MAX_SLOW_CAPTURES: usize = 16;

impl FlightRecorder {
    /// `capacity` request slots; requests slower than
    /// `slow_threshold_micros` total trigger a span-tree capture.
    pub fn new(capacity: usize, slow_threshold_micros: u64) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            slow_threshold_micros,
            slow: Mutex::new(VecDeque::new()),
            // Spans per request vary; 32 records per slot is roomy for the
            // service.request → model.build → tilesearch.* trees we emit.
            span_ring: Mutex::new(VecDeque::new()),
            span_capacity: capacity.saturating_mul(32).max(1024),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn slow_threshold_micros(&self) -> u64 {
        self.slow_threshold_micros
    }

    /// Record a finished request. Returns the record's sequence number — a
    /// ticket that [`FlightRecorder::amend_write`] accepts later, once the
    /// reply has actually been flushed and the write phase is measurable.
    ///
    /// `root_span` is the request's root span id; when the total already
    /// crosses the slow threshold the span subtree under it is captured.
    pub fn push(&self, mut record: FlightRecord, root_span: Option<u64>) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        record.end_unix_micros = crate::epoch_unix_micros() + crate::now_micros();
        self.maybe_capture_slow(&record, root_span);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().unwrap() = Some(record);
        seq
    }

    /// Add the write-phase micros to a previously pushed record, identified
    /// by the ticket `push` returned. A no-op when the slot has since been
    /// overwritten by a newer request — the ring never blocks on stragglers.
    pub fn amend_write(&self, ticket: u64, write_micros: u64) {
        let slot = (ticket % self.slots.len() as u64) as usize;
        let mut guard = self.slots[slot].lock().unwrap();
        if let Some(rec) = guard.as_mut() {
            if rec.seq == ticket {
                rec.write_micros = write_micros;
                rec.total_micros = rec.total_micros.saturating_add(write_micros);
            }
        }
    }

    fn maybe_capture_slow(&self, record: &FlightRecord, root_span: Option<u64>) {
        if self.slow_threshold_micros == 0 || record.total_micros < self.slow_threshold_micros {
            return;
        }
        let spans = match root_span {
            Some(root) => self.subtree(root),
            None => Vec::new(),
        };
        let mut slow = self.slow.lock().unwrap();
        if slow.len() >= MAX_SLOW_CAPTURES {
            slow.pop_front();
        }
        slow.push_back(SlowCapture {
            record: record.clone(),
            spans,
        });
    }

    /// Clone every span record reachable from `root` out of the span ring.
    fn subtree(&self, root: u64) -> Vec<Record> {
        let ring = self.span_ring.lock().unwrap();
        let mut keep: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        keep.insert(root);
        // The ring is in emission order, so a child's Begin always follows
        // its parent's: one forward pass closes the set.
        for r in ring.iter() {
            if let Record::Begin {
                id,
                parent: Some(p),
                ..
            } = r
            {
                if keep.contains(p) {
                    keep.insert(*id);
                }
            }
        }
        ring.iter()
            .filter(|r| {
                let id = match r {
                    Record::Begin { id, .. }
                    | Record::End { id, .. }
                    | Record::Attr { id, .. }
                    | Record::Count { id, .. } => id,
                };
                keep.contains(id)
            })
            .cloned()
            .collect()
    }

    /// Most-recent-last snapshot of the request ring.
    pub fn records(&self) -> Vec<FlightRecord> {
        let mut out: Vec<FlightRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap().clone())
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Retained slow captures, oldest first.
    pub fn slow(&self) -> Vec<SlowCapture> {
        self.slow.lock().unwrap().iter().cloned().collect()
    }

    /// The slowest retained request per op: `(op, record)`, sorted by op.
    /// On equal totals the earliest request (lowest `seq`) wins.
    ///
    /// The first pass reads each slot under its own lock and keeps only
    /// `(total, seq, slot)` per op; the second clones just the winners. A
    /// winner overwritten in between (the ring lapped during the scan) is
    /// left out of that snapshot.
    pub fn slowest_per_op(&self) -> Vec<(String, FlightRecord)> {
        let mut best: std::collections::BTreeMap<String, (u64, u64, usize)> =
            std::collections::BTreeMap::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let guard = slot.lock().expect("flight slot lock poisoned");
            let Some(rec) = guard.as_ref() else { continue };
            let candidate = (rec.total_micros, rec.seq, i);
            match best.get_mut(rec.op.as_str()) {
                None => {
                    best.insert(rec.op.clone(), candidate);
                }
                Some(b) => {
                    if rec.total_micros > b.0 || (rec.total_micros == b.0 && rec.seq < b.1) {
                        *b = candidate;
                    }
                }
            }
        }
        best.into_iter()
            .filter_map(|(op, (_, seq, i))| {
                let guard = self.slots[i].lock().expect("flight slot lock poisoned");
                let rec = guard.as_ref().filter(|r| r.seq == seq)?;
                Some((op, rec.clone()))
            })
            .collect()
    }

    /// Render the span ring as a Chrome trace-event JSON document.
    pub fn chrome_trace(&self) -> String {
        let ring = self.span_ring.lock().unwrap();
        let records: Vec<Record> = ring.iter().cloned().collect();
        drop(ring);
        chrome::render(&records)
    }

    /// Total requests pushed since startup (not bounded by capacity).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }
}

impl Collect for FlightRecorder {
    fn record(&self, record: Record) {
        let mut ring = self.span_ring.lock().unwrap();
        if ring.len() >= self.span_capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn rec(op: &str, total: u64) -> FlightRecord {
        FlightRecord {
            op: op.to_string(),
            status: "ok".to_string(),
            total_micros: total,
            exec_micros: total,
            request_id: format!("req-{op}-{total}"),
            ..FlightRecord::default()
        }
    }

    #[test]
    fn ring_keeps_last_n_and_orders_by_seq() {
        let fr = FlightRecorder::new(4, 0);
        for i in 0..10u64 {
            fr.push(rec("predict", i), None);
        }
        let records = fr.records();
        assert_eq!(records.len(), 4);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(fr.pushed(), 10);
    }

    #[test]
    fn amend_write_updates_live_slot_and_ignores_stale_ticket() {
        let fr = FlightRecorder::new(2, 0);
        let t0 = fr.push(rec("predict", 100), None);
        fr.amend_write(t0, 7);
        let r = &fr.records()[0];
        assert_eq!(r.write_micros, 7);
        assert_eq!(r.total_micros, 107);
        // Overwrite the slot, then amend with the stale ticket: no effect.
        let _t1 = fr.push(rec("advise", 50), None);
        let _t2 = fr.push(rec("lint", 60), None);
        fr.amend_write(t0, 999);
        assert!(fr.records().iter().all(|r| r.write_micros != 999));
    }

    #[test]
    fn slow_threshold_captures_span_subtree() {
        let fr = FlightRecorder::new(8, 50);
        // Feed a two-span tree plus an unrelated span into the span ring.
        fr.record(Record::Begin {
            id: 1,
            parent: None,
            name: Cow::Borrowed("service.request"),
            ts_micros: 0,
            tid: 1,
        });
        fr.record(Record::Begin {
            id: 2,
            parent: Some(1),
            name: Cow::Borrowed("model.build"),
            ts_micros: 1,
            tid: 1,
        });
        fr.record(Record::End {
            id: 2,
            name: Cow::Borrowed("model.build"),
            ts_micros: 5,
            tid: 1,
        });
        fr.record(Record::End {
            id: 1,
            name: Cow::Borrowed("service.request"),
            ts_micros: 9,
            tid: 1,
        });
        fr.record(Record::Begin {
            id: 3,
            parent: None,
            name: Cow::Borrowed("other.request"),
            ts_micros: 10,
            tid: 2,
        });
        fr.push(rec("predict", 10), Some(1)); // below threshold
        assert!(fr.slow().is_empty());
        fr.push(rec("predict", 80), Some(1)); // above threshold
        let slow = fr.slow();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].record.total_micros, 80);
        assert_eq!(slow[0].spans.len(), 4); // spans 1 and 2, not 3
        assert!(slow[0].spans.iter().all(|r| match r {
            Record::Begin { id, .. } | Record::End { id, .. } => *id != 3,
            _ => true,
        }));
    }

    #[test]
    fn slowest_per_op_picks_max_total() {
        let fr = FlightRecorder::new(16, 0);
        fr.push(rec("predict", 10), None);
        fr.push(rec("predict", 90), None);
        fr.push(rec("advise", 40), None);
        let slowest = fr.slowest_per_op();
        assert_eq!(slowest.len(), 2);
        assert_eq!(slowest[0].0, "advise");
        assert_eq!(slowest[0].1.total_micros, 40);
        assert_eq!(slowest[1].0, "predict");
        assert_eq!(slowest[1].1.total_micros, 90);
    }

    #[test]
    fn slowest_per_op_breaks_ties_by_lowest_seq_across_a_wrapped_ring() {
        let fr = FlightRecorder::new(4, 0);
        // Seqs 0..6 over four slots: slot 0 ends up holding seq 4 and
        // slot 2 seq 2, so the scan meets the later tie first.
        for (total, id) in [
            (5, "a"),
            (5, "b"),
            (70, "c"),
            (5, "d"),
            (70, "e"),
            (70, "f"),
        ] {
            let mut r = rec("predict", total);
            r.request_id = id.to_string();
            fr.push(r, None);
        }
        let slowest = fr.slowest_per_op();
        assert_eq!(slowest.len(), 1);
        assert_eq!(slowest[0].1.seq, 2);
        assert_eq!(slowest[0].1.request_id, "c");
        // The answer is what sorting the ring by seq and keeping the first
        // maximum gives.
        let records = fr.records();
        let max = records.iter().map(|r| r.total_micros).max().unwrap();
        let first = records.iter().find(|r| r.total_micros == max).unwrap();
        assert_eq!(&slowest[0].1, first);
    }

    #[test]
    fn span_ring_is_bounded() {
        let fr = FlightRecorder::new(1, 0);
        for i in 0..(fr.span_capacity as u64 + 100) {
            fr.record(Record::Count {
                id: i,
                key: Cow::Borrowed("n"),
                delta: 1,
            });
        }
        assert_eq!(fr.span_ring.lock().unwrap().len(), fr.span_capacity);
    }

    #[test]
    fn chrome_trace_renders_ring() {
        let fr = FlightRecorder::new(4, 0);
        fr.record(Record::Begin {
            id: 1,
            parent: None,
            name: Cow::Borrowed("service.request"),
            ts_micros: 3,
            tid: 1,
        });
        fr.record(Record::End {
            id: 1,
            name: Cow::Borrowed("service.request"),
            ts_micros: 8,
            tid: 1,
        });
        let doc = fr.chrome_trace();
        assert!(doc.contains("\"ph\":\"B\""));
        assert!(doc.contains("\"ph\":\"E\""));
        assert!(doc.contains("service.request"));
    }
}
