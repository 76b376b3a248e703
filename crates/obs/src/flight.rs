//! The incident flight recorder: a black box for the diagnosis pipeline.
//!
//! Aggregate metrics tell you *that* something went wrong; by the time an
//! operator looks, the interesting window is gone. The [`FlightRecorder`]
//! keeps a bounded ring of virtual-time [`FlightFrame`]s (full metric
//! snapshots) and a bounded ring of [`IncidentMark`]s, one per reported
//! detection. Frames are a function of virtual time, not of detection
//! count: [`FlightRecorder::tick`] is the one place that takes them, every
//! `FRAME_INTERVAL` (30 s) while the pipeline is quiet and once per
//! flush window while marks are arriving, so a burst of detections costs
//! one frame per window instead of one per detection. Dumping the rings
//! yields the last N frames *around* the latest incidents, like an
//! aircraft black box, without unbounded memory: old frames and old marks
//! are evicted oldest-first and counted.
//!
//! [`render_dashboard`] turns a dump into an ASCII dashboard — one
//! sparkline per metric over the frame window, with incident marks aligned
//! under the frame columns.
//!
//! The recorder is metrics-side telemetry: it runs in every
//! [`TelemetryMode`](crate::TelemetryMode) (including `Off`) so the
//! overhead baseline pays the same frame cost as the full configuration.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use pod_sim::{Clock, SimDuration, SimTime};

use crate::metrics::{Registry, Snapshot};

/// Incident marks retained per recorder (the newest ones).
const INCIDENT_CAP: usize = 256;

/// Minimum virtual time between frames while an incident is pending: one
/// gateway flush window (`GatewayConfig::flush_interval`'s default), so a
/// burst of detections is framed as often as the gateway flushes and no
/// oftener.
const INCIDENT_FRAME_WINDOW: SimDuration = SimDuration::from_millis(20);

/// Frames retained per recorder (the newest ones).
pub const FRAME_CAP: usize = 64;

/// Minimum virtual time between periodic frames ([`FlightRecorder::tick`]
/// is rate-limited to this; a pending incident shortens the wait to one
/// flush window).
const FRAME_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// One snapshot frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightFrame {
    /// Virtual time the frame was taken.
    pub at: SimTime,
    /// Full metric snapshot at that instant.
    pub snapshot: Snapshot,
}

/// One incident stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentMark {
    /// Virtual time of the incident.
    pub at: SimTime,
    /// Label, e.g. the operation instance that detected.
    pub label: String,
}

/// Everything the recorder holds at dump time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlightDump {
    /// Retained frames, oldest first.
    pub frames: Vec<FlightFrame>,
    /// Retained incident marks, oldest first.
    pub incidents: Vec<IncidentMark>,
    /// Frames evicted from the ring before the dump.
    pub evicted_frames: u64,
    /// Incident marks evicted (oldest first) from the ring of the newest
    /// 256 before the dump.
    pub dropped_incidents: u64,
}

#[derive(Debug, Default)]
struct FlightInner {
    frames: VecDeque<FlightFrame>,
    incidents: VecDeque<IncidentMark>,
    evicted_frames: u64,
    dropped_incidents: u64,
    last_frame: Option<SimTime>,
    /// A mark was made since the last frame.
    incident_pending: bool,
}

/// Bounded ring of metric snapshots, periodic and per incident window,
/// beside a bounded ring of incident marks. Cloning shares the rings.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    clock: Clock,
    registry: Registry,
    inner: Arc<Mutex<FlightInner>>,
}

impl FlightRecorder {
    /// Creates a recorder snapshotting `registry` on `clock` time.
    pub fn new(clock: Clock, registry: Registry) -> FlightRecorder {
        FlightRecorder {
            clock,
            registry,
            inner: Arc::new(Mutex::new(FlightInner::default())),
        }
    }

    /// Records a frame when one is due: `FRAME_INTERVAL` has
    /// passed since the last one, or an incident is pending and one flush
    /// window has. Returns whether a frame was recorded. The only frame
    /// site besides [`FlightRecorder::dump`]; cheap to call once per
    /// drained batch.
    pub fn tick(&self) -> bool {
        let now = self.clock.now();
        let due = {
            let inner = self.inner.lock();
            match inner.last_frame {
                None => true,
                Some(last) => {
                    let since = now.duration_since(last);
                    since >= FRAME_INTERVAL
                        || (inner.incident_pending && since >= INCIDENT_FRAME_WINDOW)
                }
            }
        };
        if due {
            self.force_frame();
        }
        due
    }

    /// Records a frame right now and closes any pending incident window.
    fn force_frame(&self) {
        let frame = FlightFrame {
            at: self.clock.now(),
            snapshot: self.registry.snapshot(),
        };
        let mut inner = self.inner.lock();
        inner.last_frame = Some(frame.at);
        inner.incident_pending = false;
        if inner.frames.len() >= FRAME_CAP {
            inner.frames.pop_front();
            inner.evicted_frames += 1;
        }
        inner.frames.push_back(frame);
    }

    /// Stamps an incident: O(1), no snapshot. The next due
    /// [`FlightRecorder::tick`] (or the dump) frames the state at or just
    /// after it, one frame for every mark of the window.
    pub fn mark_incident(&self, label: impl Into<String>) {
        let mut inner = self.inner.lock();
        if inner.incidents.len() >= INCIDENT_CAP {
            inner.incidents.pop_front();
            inner.dropped_incidents += 1;
        }
        inner.incidents.push_back(IncidentMark {
            at: self.clock.now(),
            label: label.into(),
        });
        inner.incident_pending = true;
    }

    /// Copies the black box out, first closing a pending incident window
    /// with one frame so every retained mark is followed by a frame
    /// holding the state at or after it.
    pub fn dump(&self) -> FlightDump {
        if self.inner.lock().incident_pending {
            self.force_frame();
        }
        let inner = self.inner.lock();
        FlightDump {
            frames: inner.frames.iter().cloned().collect(),
            incidents: inner.incidents.iter().cloned().collect(),
            evicted_frames: inner.evicted_frames,
            dropped_incidents: inner.dropped_incidents,
        }
    }
}

/// Sparkline alphabet, lowest to highest.
const SPARK: &[u8] = b" .:-=+*#%@";

fn sparkline(series: &[u64]) -> String {
    let peak = series.iter().copied().max().unwrap_or(0);
    series
        .iter()
        .map(|&v| {
            if peak == 0 {
                ' '
            } else {
                let level = ((v as f64 / peak as f64) * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[level.min(SPARK.len() - 1)] as char
            }
        })
        .collect()
}

/// The per-frame series of one metric and the text after its sparkline:
/// a histogram plots its cumulative p99, a gauge its level, and anything
/// else is a counter, plotted as the per-frame delta so the sparkline
/// shows the rate shape, not a monotone ramp.
fn series(frames: &[FlightFrame], name: &str) -> (Vec<u64>, String) {
    let snapshots = || frames.iter().map(|f| &f.snapshot);
    if snapshots().any(|s| s.histograms.contains_key(name)) {
        let p99 = |s: &Snapshot| s.histogram(name).and_then(|h| h.quantile(0.99));
        let series: Vec<u64> = snapshots().map(|s| p99(s).unwrap_or(0)).collect();
        let last = *series.last().unwrap();
        let text = if name.ends_with("_us") {
            format!("p99 {}", SimDuration::from_micros(last))
        } else {
            format!("p99 {last}")
        };
        (series, text)
    } else if snapshots().any(|s| s.gauges.contains_key(name)) {
        let level = |s: &Snapshot| s.gauges.get(name).copied().unwrap_or(0).max(0) as u64;
        let series: Vec<u64> = snapshots().map(level).collect();
        let text = series.last().unwrap().to_string();
        (series, text)
    } else {
        let totals: Vec<u64> = snapshots().map(|s| s.counter(name)).collect();
        let deltas = totals.iter().enumerate();
        let series = deltas.map(|(i, &v)| if i == 0 { v } else { v - totals[i - 1].min(v) });
        let text = format!("total {}", totals.last().unwrap());
        (series.collect(), text)
    }
}

/// Renders a dump as an ASCII dashboard: one sparkline per requested
/// metric across the frame window, scaled to its own peak.
///
/// Counters plot the **per-frame delta** (rate shape); gauges plot the
/// instantaneous value; histograms plot the cumulative p99. A final
/// `incidents` row marks the frame column each incident landed in with
/// `!`, followed by one line per mark; marks older than the first retained
/// frame are counted on one line instead.
pub fn render_dashboard(dump: &FlightDump, metrics: &[&str]) -> String {
    let mut out = String::new();
    let frames = &dump.frames;
    if frames.is_empty() {
        return "flight recorder: no frames recorded\n".to_string();
    }
    let _ = writeln!(
        out,
        "flight recorder: {} frames [{} .. {}], {} incident mark{}{}",
        frames.len(),
        frames.first().unwrap().at,
        frames.last().unwrap().at,
        dump.incidents.len(),
        if dump.incidents.len() == 1 { "" } else { "s" },
        if dump.evicted_frames > 0 {
            format!(", {} frames evicted", dump.evicted_frames)
        } else {
            String::new()
        },
    );
    let mut row = |name: &str| {
        let (series, text) = series(frames, name);
        let _ = writeln!(out, "{:<38} |{}| {}", name, sparkline(&series), text);
    };
    metrics.iter().for_each(|name| row(name));
    // Overload during bursts (recovery storms, replay floods) must be
    // visible alongside the incident marks even when the caller did not ask
    // for it: append every gateway shed/admission counter the frames saw
    // and the storm's admission ledger (requests/admitted/throttled/
    // deferred/swept), so shed-to-sweep pressure shows up without opt-in.
    const OVERLOAD: [&str; 4] = [
        "gateway.shed.",
        "gateway.admission.",
        "gateway.backpressure.",
        "recovery.storm.",
    ];
    // The storm's in-flight and backlog pressure are gauges, not
    // counters: levels, not deltas.
    const QUEUES: [&str; 1] = ["recovery.storm."];
    let last = &frames.last().unwrap().snapshot;
    let unasked = |name: &&String, prefixes: &[&str]| {
        prefixes.iter().any(|p| name.starts_with(p)) && !metrics.contains(&name.as_str())
    };
    let counters = last.counters.keys().filter(|name| unasked(name, &OVERLOAD));
    let gauges = last.gauges.keys().filter(|name| unasked(name, &QUEUES));
    counters.chain(gauges).for_each(|name| row(name));
    if !dump.incidents.is_empty() {
        // Marks older than the first retained frame belong to evicted
        // frames, not to column 0: they are counted, not plotted. (Marks
        // are in time order: the clock never goes back.)
        let window_start = frames[0].at;
        let (preceding, retained) = dump
            .incidents
            .split_at(dump.incidents.partition_point(|inc| inc.at < window_start));
        let marks: String = frames
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let after = if i == 0 { None } else { Some(frames[i - 1].at) };
                let hit = retained
                    .iter()
                    .any(|inc| inc.at <= f.at && after.map(|s| inc.at > s).unwrap_or(true));
                if hit {
                    '!'
                } else {
                    '.'
                }
            })
            .collect();
        let _ = writeln!(out, "{:<38} |{}|", "incidents", marks);
        if !preceding.is_empty() {
            let _ = writeln!(
                out,
                "  {} mark{} the retained window",
                preceding.len(),
                if preceding.len() == 1 {
                    " precedes"
                } else {
                    "s precede"
                },
            );
        }
        for inc in retained {
            let _ = writeln!(out, "  ! {} {}", inc.at, inc.label);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> (Clock, Registry, FlightRecorder) {
        let clock = Clock::new();
        let registry = Registry::new();
        let rec = FlightRecorder::new(clock.clone(), registry.clone());
        (clock, registry, rec)
    }

    #[test]
    fn tick_is_interval_gated_and_the_ring_is_bounded() {
        let (clock, _reg, rec) = recorder();
        assert!(rec.tick(), "first tick always records");
        clock.advance(FRAME_INTERVAL / 2);
        assert!(!rec.tick(), "less than one interval passed");
        clock.advance(FRAME_INTERVAL / 2);
        assert!(rec.tick());
        for _ in 0..FRAME_CAP + 5 {
            clock.advance(FRAME_INTERVAL);
            assert!(rec.tick());
        }
        let dump = rec.dump();
        assert_eq!(dump.frames.len(), FRAME_CAP);
        assert_eq!(dump.evicted_frames, 7);
        assert!(
            dump.frames.windows(2).all(|w| w[0].at < w[1].at),
            "frames stay ordered oldest-first"
        );
    }

    /// `n` marks one virtual millisecond apart.
    fn burst(clock: &Clock, rec: &FlightRecorder, n: usize) {
        for i in 0..n {
            clock.advance(SimDuration::from_millis(1));
            rec.mark_incident(format!("i-{i:04} detection"));
        }
    }

    #[test]
    fn a_burst_of_marks_costs_one_frame_per_window() {
        let (clock, reg, rec) = recorder();
        assert!(rec.tick());
        clock.advance(INCIDENT_FRAME_WINDOW);
        reg.counter("engine.detections").add(5);
        burst(&clock, &rec, 5);
        assert!(rec.tick(), "a pending incident is framed after one window");
        assert!(!rec.tick(), "the window is closed: nothing is pending");

        // A second burst right behind the frame waits out its window...
        burst(&clock, &rec, 3);
        assert!(!rec.tick(), "less than one window since the last frame");
        clock.advance(INCIDENT_FRAME_WINDOW);
        assert!(rec.tick(), "two bursts a window apart are two frames");

        let dump = rec.dump();
        assert_eq!(dump.incidents.len(), 8, "marks stay per detection");
        assert_eq!(dump.frames.len(), 3, "first tick + one frame per burst");
        assert_eq!(dump.frames[1].snapshot.counter("engine.detections"), 5);
        assert_eq!(dump.evicted_frames + dump.dropped_incidents, 0);
    }

    #[test]
    fn dump_closes_a_pending_window_once() {
        let (clock, reg, rec) = recorder();
        rec.tick();
        clock.advance(SimDuration::from_millis(3));
        reg.counter("engine.detections").incr();
        rec.mark_incident("i-0042 detection");
        assert!(!rec.tick(), "3 ms is inside the window");
        let dump = rec.dump();
        assert_eq!(dump.incidents[0].at, SimTime::from_millis(3));
        assert_eq!(dump.frames.len(), 2);
        let last = dump.frames.last().unwrap();
        assert!(last.at >= dump.incidents[0].at);
        assert_eq!(
            last.snapshot.counter("engine.detections"),
            1,
            "the closing frame holds the state at or after the mark"
        );
        assert_eq!(rec.dump(), dump, "a second dump adds no frame");
    }

    #[test]
    fn the_mark_ring_keeps_the_newest_and_counts_the_rest() {
        let (clock, _reg, rec) = recorder();
        burst(&clock, &rec, INCIDENT_CAP + 7);
        let dump = rec.dump();
        assert_eq!(dump.incidents.len(), INCIDENT_CAP);
        assert_eq!(dump.dropped_incidents, 7);
        assert_eq!(dump.incidents[0].label, "i-0007 detection");
        assert_eq!(
            dump.incidents.last().unwrap().at,
            dump.frames.last().unwrap().at,
            "the newest mark lies inside the retained frame window"
        );
    }

    #[test]
    fn dashboard_counts_marks_older_than_the_first_retained_frame() {
        let (clock, _reg, rec) = recorder();
        for _ in 0..=FRAME_CAP {
            clock.advance(INCIDENT_FRAME_WINDOW);
            rec.mark_incident("i-0001 detection");
            assert!(rec.tick());
        }
        let dump = rec.dump();
        assert_eq!((dump.frames.len(), dump.evicted_frames), (FRAME_CAP, 1));
        let text = render_dashboard(&dump, &[]);
        assert!(
            text.contains("1 mark precedes the retained window"),
            "got:\n{text}"
        );
        assert_eq!(text.matches("  ! ").count(), FRAME_CAP, "got:\n{text}");
        let every_column = format!("|{}|", "!".repeat(FRAME_CAP));
        assert!(text.contains(&every_column), "got:\n{text}");
    }

    #[test]
    fn dashboard_renders_sparklines_and_incident_marks() {
        let (clock, reg, rec) = recorder();
        let c = reg.counter("gateway.lines.processed");
        let h = reg.histogram("gateway.queue_wait_us");
        for i in 0..6u64 {
            c.add(i * 100);
            h.record(1_000 * (i + 1));
            if i == 3 {
                rec.mark_incident("i-0003 detection");
            }
            rec.tick();
            clock.advance(FRAME_INTERVAL);
        }
        let dump = rec.dump();
        let text = render_dashboard(
            &dump,
            &[
                "gateway.lines.processed",
                "gateway.queue_wait_us",
                "missing",
            ],
        );
        assert!(text.contains("flight recorder:"), "got:\n{text}");
        assert!(text.contains("gateway.lines.processed"), "got:\n{text}");
        assert!(text.contains("p99"), "got:\n{text}");
        assert!(text.contains("incidents"), "got:\n{text}");
        assert!(text.contains('!'), "got:\n{text}");
        assert!(text.contains("i-0003 detection"), "got:\n{text}");
        assert!(
            render_dashboard(&FlightDump::default(), &[]).contains("no frames"),
            "empty dump renders a placeholder"
        );
    }

    #[test]
    fn dashboard_surfaces_gateway_overload_counters_unasked() {
        let (clock, reg, rec) = recorder();
        let shed = reg.counter("gateway.shed.oldest");
        let denied = reg.counter("gateway.admission.denied");
        let healthy = reg.counter("gateway.lines.processed");
        for i in 0..4u64 {
            healthy.add(100);
            if i >= 2 {
                shed.add(7);
                denied.incr();
            }
            rec.tick();
            clock.advance(FRAME_INTERVAL);
        }
        let text = render_dashboard(&rec.dump(), &[]);
        assert!(text.contains("gateway.shed.oldest"), "got:\n{text}");
        assert!(text.contains("gateway.admission.denied"), "got:\n{text}");
        assert!(text.contains("total 14"), "got:\n{text}");
        assert!(
            !text.contains("gateway.lines.processed"),
            "healthy-path counters stay opt-in, got:\n{text}"
        );

        let asked = render_dashboard(&rec.dump(), &["gateway.shed.oldest"]);
        assert_eq!(
            asked.matches("gateway.shed.oldest").count(),
            1,
            "explicitly requested overload counters are not repeated, got:\n{asked}"
        );
    }

    #[test]
    fn dashboard_surfaces_recovery_fastpath_metrics_unasked() {
        let (clock, reg, rec) = recorder();
        let deferred = reg.counter("recovery.storm.deferred");
        let queue = reg.gauge("recovery.storm.queue_depth");
        for i in 0..4u64 {
            if i >= 1 {
                deferred.incr();
            }
            queue.set(3 - i as i64);
            rec.tick();
            clock.advance(FRAME_INTERVAL);
        }
        let text = render_dashboard(&rec.dump(), &[]);
        assert!(text.contains("recovery.storm.deferred"), "got:\n{text}");
        assert!(
            text.contains("recovery.storm.queue_depth"),
            "queue depth (a gauge) is plotted as levels, got:\n{text}"
        );

        let asked = render_dashboard(&rec.dump(), &["recovery.storm.queue_depth"]);
        assert_eq!(
            asked.matches("recovery.storm.queue_depth").count(),
            1,
            "explicitly requested gauges are not repeated, got:\n{asked}"
        );
    }
}
