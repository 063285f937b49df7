//! An in-memory LRU of sealed analyses over the on-disk artifact cache.
//!
//! The service's hot read path — `GET .../analysis` — serves the
//! pre-rendered JSON of a sealed scenario. The LRU keeps the most
//! recently requested analyses resident (fingerprint-keyed, shared
//! `Arc`s, so N concurrent readers clone a pointer, not bytes); misses
//! fall back to the snapshot on disk, which is replayed through the
//! monitor and re-inserted. Eviction is strictly least-recently-used and
//! the capacity bounds resident analyses, not bytes — entries are small
//! (one report JSON, the alert log and the control actions) next to the
//! views they summarize.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rsc_monitor::export::{actions_rows, alerts_rows, ACTIONS_CSV_HEADER, ALERTS_CSV_HEADER};
use rsc_monitor::report::MonitorReport;
use rsc_telemetry::csv::write_csv;
use rsc_telemetry::store::ControlActionEvent;

/// One sealed scenario's served artifacts: the canonical analysis JSON
/// (the byte-identity unit of the determinism contract), the report it
/// was rendered from, and the view's control actions — everything the
/// JSON and both CSV bodies are rendered from.
#[derive(Debug)]
pub struct SealedAnalysis {
    /// The scenario fingerprint.
    pub fingerprint: u64,
    /// Canonical analysis JSON, served verbatim to every client.
    pub json: Arc<str>,
    /// The monitor report the JSON renders; its alert log is the alerts
    /// CSV.
    pub report: MonitorReport,
    /// The sealed view's control-action log, the actions CSV.
    pub actions: Vec<ControlActionEvent>,
}

impl SealedAnalysis {
    /// Renders the canonical analysis body for a report: the scenario
    /// fingerprint wrapping the monitor report. Everything inside comes
    /// from the sealed view plus the service's monitor config, so live
    /// execution, cache replay, and disk reload all render identical
    /// bytes.
    pub fn new(fingerprint: u64, report: MonitorReport, actions: Vec<ControlActionEvent>) -> Self {
        let json = crate::json::Object::new()
            .field(
                "fingerprint",
                &crate::json::string(&format!("{fingerprint:016x}")),
            )
            .field("report", &report.to_json())
            .finish();
        SealedAnalysis {
            fingerprint,
            json: json.into(),
            report,
            actions,
        }
    }

    /// The alert log as CSV ([`ALERTS_CSV_HEADER`] and one row per alert).
    pub fn alerts_csv(&self) -> Vec<u8> {
        csv_body(&ALERTS_CSV_HEADER, alerts_rows(&self.report.alerts))
    }

    /// The control-action log as CSV ([`ACTIONS_CSV_HEADER`] and one row
    /// per action).
    pub fn actions_csv(&self) -> Vec<u8> {
        csv_body(&ACTIONS_CSV_HEADER, actions_rows(&self.actions))
    }
}

fn csv_body(header: &[&str], rows: Vec<Vec<String>>) -> Vec<u8> {
    let mut body = Vec::new();
    write_csv(&mut body, header, rows).expect("writing to a Vec cannot fail");
    body
}

/// LRU counters, surfaced on `/healthz`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Entries evicted to respect capacity.
    pub evictions: u64,
}

#[derive(Debug, Default)]
struct LruInner {
    map: HashMap<u64, Arc<SealedAnalysis>>,
    /// Keys from least- to most-recently used.
    order: Vec<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe LRU of [`SealedAnalysis`] keyed by fingerprint.
#[derive(Debug)]
pub struct AnalysisCache {
    inner: Mutex<LruInner>,
    capacity: usize,
}

impl AnalysisCache {
    /// A cache holding at most `capacity` analyses.
    pub fn new(capacity: usize) -> Self {
        AnalysisCache {
            inner: Mutex::new(LruInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Looks up a fingerprint, refreshing its recency on hit.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<SealedAnalysis>> {
        let mut inner = self.inner.lock().expect("lru poisoned");
        match inner.map.get(&fingerprint).cloned() {
            Some(hit) => {
                inner.hits += 1;
                inner.order.retain(|&k| k != fingerprint);
                inner.order.push(fingerprint);
                Some(hit)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an analysis, evicting the least recently
    /// used entries beyond capacity.
    pub fn insert(&self, analysis: Arc<SealedAnalysis>) {
        let mut inner = self.inner.lock().expect("lru poisoned");
        let key = analysis.fingerprint;
        inner.order.retain(|&k| k != key);
        inner.order.push(key);
        inner.map.insert(key, analysis);
        while inner.map.len() > self.capacity {
            let victim = inner.order.remove(0);
            inner.map.remove(&victim);
            inner.evictions += 1;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> LruStats {
        let inner = self.inner.lock().expect("lru poisoned");
        LruStats {
            entries: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_monitor::config::MonitorConfig;
    use rsc_monitor::monitor::ReliabilityMonitor;

    fn analysis(fp: u64) -> Arc<SealedAnalysis> {
        let report = ReliabilityMonitor::new(MonitorConfig::rsc_default()).report();
        Arc::new(SealedAnalysis::new(fp, report, Vec::new()))
    }

    #[test]
    fn canonical_json_embeds_fingerprint_and_report() {
        let a = analysis(0xabcd);
        assert!(a.json.starts_with("{\"fingerprint\":\"000000000000abcd\""));
        assert!(a.json.contains("\"report\":{"));
        assert!(a.json.ends_with('}'));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = AnalysisCache::new(2);
        cache.insert(analysis(1));
        cache.insert(analysis(2));
        assert!(cache.get(1).is_some()); // refresh 1: now 2 is LRU
        cache.insert(analysis(3));
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 1);
    }
}
