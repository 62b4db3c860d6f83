//! Tests of the span tracer, the stage timers and the slow-query log.
//!
//! The tracer's enabled flag and event ring are process-global, so every
//! test that touches them serializes on [`TRACER_LOCK`] and restores the
//! default state (disabled, ring cleared) before releasing it. That
//! includes stage-timer tests that call `StageRecorder::mark`: every mark
//! also records a complete event into the global ring, so an unlocked
//! recorder can land events in a concurrent tracer test's ring.

use proptest::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stuc_obs::timer::{next_trace_id, StageRecorder, StageTimings, Stopwatch};
use stuc_obs::trace::{self, SpanEvent, EVENT_CAPACITY};
use stuc_obs::SlowLog;

static TRACER_LOCK: Mutex<()> = Mutex::new(());

fn tracer_guard() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test must not wedge the rest of the suite.
    TRACER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Busy-wait long enough for the microsecond-granularity event clock to
/// advance (sleeping can oversleep by scheduler quanta; spinning is exact).
fn spin(at_least: Duration) {
    let start = Instant::now();
    while start.elapsed() < at_least {
        std::hint::spin_loop();
    }
}

#[test]
fn nested_spans_record_depth_and_containment() {
    let _lock = tracer_guard();
    trace::set_enabled(true);
    trace::clear_events();

    {
        let _outer = trace::span("test-outer");
        spin(Duration::from_micros(50));
        {
            let _inner = trace::span("test-inner");
            spin(Duration::from_micros(50));
        }
        spin(Duration::from_micros(50));
    }

    trace::set_enabled(false);
    let events = trace::drain_events();
    let inner = events.iter().find(|e| e.name == "test-inner").unwrap();
    let outer = events.iter().find(|e| e.name == "test-outer").unwrap();
    assert_eq!(outer.depth, 0);
    assert_eq!(inner.depth, 1);
    assert_eq!(inner.thread_id, outer.thread_id);
    // The child closes first, so it precedes its parent in the ring.
    let inner_at = events.iter().position(|e| e.name == "test-inner").unwrap();
    let outer_at = events.iter().position(|e| e.name == "test-outer").unwrap();
    assert!(inner_at < outer_at);
    // Containment on the shared epoch clock (±1µs of rounding per edge).
    assert!(inner.start_us + 1 >= outer.start_us);
    assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 2);
    assert!(inner.dur_us <= outer.dur_us);
}

#[test]
fn disabled_spans_are_inert_and_toggles_stay_balanced() {
    let _lock = tracer_guard();
    trace::set_enabled(false);
    trace::clear_events();

    // Disabled: no depth, no events.
    {
        let _span = trace::span("test-never");
        assert_eq!(trace::current_depth(), 0);
    }
    assert!(trace::snapshot_events().is_empty());

    // A span opened while enabled records even if the tracer is switched
    // off before it closes; a span opened while disabled stays inert even
    // if the tracer is switched on before it closes. Depth ends balanced.
    let outer = trace::span("test-never");
    trace::set_enabled(true);
    let survivor = trace::span("test-toggle-survivor");
    trace::set_enabled(false);
    let inert = trace::span("test-toggle-inert");
    trace::set_enabled(true);
    drop(inert);
    drop(survivor);
    drop(outer);
    trace::set_enabled(false);
    assert_eq!(trace::current_depth(), 0);

    let names: Vec<&str> = trace::drain_events().iter().map(|e| e.name).collect();
    assert_eq!(names, vec!["test-toggle-survivor"]);
}

#[test]
fn the_event_ring_drops_oldest_beyond_capacity() {
    let _lock = tracer_guard();
    trace::set_enabled(true);
    trace::clear_events();

    let epoch = Instant::now();
    for _ in 0..100 {
        trace::record_complete("test-evicted", epoch, Duration::from_micros(1));
    }
    for _ in 0..EVENT_CAPACITY {
        trace::record_complete("test-kept", epoch, Duration::from_micros(1));
    }
    let events = trace::drain_events();
    trace::set_enabled(false);
    assert_eq!(events.len(), EVENT_CAPACITY);
    assert!(events.iter().all(|e| e.name == "test-kept"));
}

#[test]
fn chrome_trace_json_is_well_formed() {
    assert_eq!(trace::chrome_trace_json(&[]), "{\"traceEvents\":[]}");
    let events = [
        SpanEvent {
            name: "evaluate",
            thread_id: 1,
            start_us: 10,
            dur_us: 40,
            depth: 0,
        },
        SpanEvent {
            name: "sweep",
            thread_id: 1,
            start_us: 30,
            dur_us: 15,
            depth: 1,
        },
    ];
    let json = trace::chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\":[{"));
    assert!(json.ends_with("}]}"));
    assert!(json.contains(
        "{\"name\":\"evaluate\",\"cat\":\"stuc\",\"ph\":\"X\",\"ts\":10,\"dur\":40,\"pid\":1,\"tid\":1}"
    ));
    assert!(json.contains("\"name\":\"sweep\""));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Opening k nested spans raises the thread-local depth to k, and
    /// closing them in LIFO order walks it back down to zero, whatever the
    /// nesting shape.
    #[test]
    fn span_depth_tracks_nesting(depth in 1usize..9) {
        const NAMES: [&str; 9] = [
            "test-d0", "test-d1", "test-d2", "test-d3", "test-d4",
            "test-d5", "test-d6", "test-d7", "test-d8",
        ];
        let _lock = tracer_guard();
        trace::set_enabled(true);
        let mut guards = Vec::new();
        for (level, name) in NAMES.iter().enumerate().take(depth) {
            prop_assert_eq!(trace::current_depth(), level as u32);
            guards.push(trace::span(name));
        }
        prop_assert_eq!(trace::current_depth(), depth as u32);
        while let Some(guard) = guards.pop() {
            drop(guard);
            prop_assert_eq!(trace::current_depth(), guards.len() as u32);
        }
        trace::set_enabled(false);
        trace::clear_events();
    }
}

#[test]
fn stage_recorder_laps_share_one_clock() {
    // `mark` feeds the process-global tracer (see the module comment).
    let _lock = tracer_guard();
    let mut recorder = StageRecorder::new();
    spin(Duration::from_micros(200));
    recorder.mark("first");
    spin(Duration::from_micros(200));
    recorder.skip(); // a gap the breakdown must not attribute to anything
    spin(Duration::from_micros(200));
    recorder.mark("second");

    let wall = recorder.elapsed();
    let timings = recorder.finish();
    assert_eq!(timings.stages().len(), 2);
    assert_eq!(timings.stages()[0].name, "first");
    assert_eq!(timings.stages()[1].name, "second");
    assert!(timings.get("first").unwrap() >= Duration::from_micros(200));
    assert!(timings.get("second").unwrap() >= Duration::from_micros(200));
    assert!(timings.get("skipped-gap").is_none());
    // One shared clock: the breakdown can never exceed the wall time, and
    // the skipped gap keeps it strictly below.
    assert!(timings.total() <= wall);
    assert!(wall - timings.total() >= Duration::from_micros(200));
}

#[test]
fn stage_timings_sum_repeats_and_merge() {
    let mut timings = StageTimings::default();
    timings.record("sweep", Duration::from_micros(10));
    timings.record("sweep", Duration::from_micros(5));
    timings.record("parse", Duration::from_micros(1));
    assert_eq!(timings.get("sweep"), Some(Duration::from_micros(15)));
    assert_eq!(timings.stages().len(), 2, "repeats sum, not duplicate");

    let mut other = StageTimings::default();
    other.record("parse", Duration::from_micros(2));
    other.record("lower", Duration::from_micros(3));
    timings.merge(&other);
    assert_eq!(timings.get("parse"), Some(Duration::from_micros(3)));
    assert_eq!(timings.get("lower"), Some(Duration::from_micros(3)));
    assert_eq!(timings.total(), Duration::from_micros(21));

    // A recorder absorbing a nested breakdown folds it in without a lap.
    let mut recorder = StageRecorder::new();
    recorder.absorb(&timings);
    assert_eq!(recorder.timings().total(), Duration::from_micros(21));
}

#[test]
fn stopwatch_wall_time_is_monotone() {
    let watch = Stopwatch::start();
    let first = watch.elapsed();
    spin(Duration::from_micros(50));
    let second = watch.elapsed();
    assert!(second > first);
    assert!(watch.started_at().elapsed() >= second);
}

#[test]
fn trace_ids_are_unique_and_increasing() {
    let a = next_trace_id();
    let b = next_trace_id();
    let c = next_trace_id();
    assert!(a < b && b < c);
}

#[test]
fn slow_log_gates_on_threshold_and_builds_detail_lazily() {
    let log = SlowLog::new(Duration::from_millis(10), 3);
    let mut detail_calls = 0;
    let fast = log.note("op", Duration::from_millis(9), 1, || {
        detail_calls += 1;
        "never".into()
    });
    assert!(!fast, "below threshold: not retained");
    assert_eq!(detail_calls, 0, "detail must not be built for fast ops");

    assert!(log.note("op", Duration::from_millis(10), 2, || "at".into()));
    assert!(log.note("op", Duration::from_millis(11), 3, || "above".into()));
    let entries = log.entries();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].detail, "at");
    assert_eq!(entries[0].trace_id, 2);
    assert!(entries[0].seq < entries[1].seq);

    // Capacity 3: the oldest entry falls out.
    assert!(log.note("op", Duration::from_millis(12), 4, || "third".into()));
    assert!(log.note("op", Duration::from_millis(13), 5, || "fourth".into()));
    let entries = log.entries();
    assert_eq!(entries.len(), 3);
    assert_eq!(entries[0].detail, "above");
    assert_eq!(entries[2].detail, "fourth");

    // Thresholds apply to subsequent notes; zero admits everything.
    log.set_threshold(Duration::ZERO);
    assert_eq!(log.threshold(), Duration::ZERO);
    assert!(log.note("op", Duration::ZERO, 6, || "free".into()));

    log.clear();
    assert!(log.entries().is_empty());
}

#[test]
fn failures_bypass_the_slow_threshold_and_carry_their_outcome() {
    let log = SlowLog::new(Duration::from_secs(10), 4);
    // A sub-threshold success is dropped…
    assert!(!log.note("evaluate", Duration::from_micros(5), 1, || "ok".into()));
    // …but a sub-threshold failure is always an outlier.
    log.note_failure(
        "evaluate",
        "deadline-exceeded",
        Duration::from_micros(5),
        2,
        || "stage=compile-circuit".into(),
    );
    log.note_failure("evaluate", "panic", Duration::ZERO, 3, || {
        "stage=count".into()
    });
    let entries = log.entries();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].outcome, "deadline-exceeded");
    assert_eq!(entries[0].detail, "stage=compile-circuit");
    assert_eq!(entries[1].outcome, "panic");
    // Threshold-retained successes are tagged "slow".
    log.set_threshold(Duration::ZERO);
    assert!(log.note("evaluate", Duration::ZERO, 4, || "ok".into()));
    assert_eq!(log.entries().last().unwrap().outcome, "slow");
}
