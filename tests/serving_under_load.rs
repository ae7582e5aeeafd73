//! End-to-end serving-under-load integration: the phox-serve engine
//! driving the real TRON/GHOST cost models through the facade crate.

use phox::prelude::*;
use phox::tensor::parallel::with_threads;
use phox::trace;

fn mix() -> Vec<ServiceClass> {
    let tron = TronAccelerator::new(TronConfig::default()).expect("TRON config");
    let ghost = GhostAccelerator::new(GhostConfig::default()).expect("GHOST config");
    standard_mix(&tron, &ghost).expect("standard mix")
}

fn run_at(rate_hz: f64) -> ServeReport {
    let config = ServeConfig {
        arrival_rate_hz: rate_hz,
        duration_s: 0.05,
        ..ServeConfig::default()
    };
    ServeEngine::new(config, mix())
        .expect("engine")
        .run()
        .expect("run")
}

#[test]
fn batching_amortises_residency_across_the_load_sweep() {
    let mut last_occupancy = 0.0;
    let mut last_jpr = f64::INFINITY;
    for rate in [500.0, 2_000.0, 8_000.0, 32_000.0] {
        let report = run_at(rate);
        assert_eq!(report.admitted + report.rejected, report.arrivals);
        assert_eq!(report.completed, report.admitted);
        assert!(
            report.mean_occupancy >= last_occupancy,
            "occupancy fell from {last_occupancy} to {} at {rate} req/s",
            report.mean_occupancy
        );
        assert!(
            report.joules_per_request <= last_jpr,
            "joules/request rose from {last_jpr} to {} at {rate} req/s",
            report.joules_per_request
        );
        assert!(report.p99_latency_s >= report.p50_latency_s);
        last_occupancy = report.mean_occupancy;
        last_jpr = report.joules_per_request;
    }
}

#[test]
fn saturated_engine_rejects_but_conserves() {
    let report = run_at(32_000.0);
    assert!(report.rejected > 0, "32 kreq/s must overload the engine");
    assert_eq!(report.admitted + report.rejected, report.arrivals);
    assert_eq!(report.completed, report.admitted);
    // Near saturation the windows run essentially full.
    assert!(report.mean_occupancy > 12.0, "{}", report.mean_occupancy);
}

#[test]
fn serving_report_is_thread_invariant() {
    let baseline = with_threads(1, || run_at(4_000.0).to_json());
    for threads in [2usize, 4, 8] {
        let json = with_threads(threads, || run_at(4_000.0).to_json());
        assert_eq!(baseline, json, "report diverged at {threads} threads");
    }
}

#[test]
fn serving_run_is_fully_observable() {
    let handle = trace::Trace::new();
    let report = trace::with_installed(handle.clone(), || run_at(4_000.0));
    let jsonl = handle.export_jsonl();
    assert!(jsonl.contains("\"type\":\"sample\""));
    assert!(jsonl.contains("queue_depth"));
    assert!(jsonl.contains("batch_occupancy"));
    let occupancy_samples = handle
        .events()
        .iter()
        .filter(|e| e.track == "serve" && e.name == "batch_occupancy")
        .count() as u64;
    assert_eq!(occupancy_samples, report.windows);
    // The Chrome export renders the series as counter events.
    assert!(handle.export_chrome().contains("\"ph\":\"C\""));
}

#[test]
fn concurrent_runs_keep_their_traces_apart() {
    // Two traced runs and one untraced run on separate threads at once:
    // each trace holds exactly its own run's occupancy samples, and the
    // untraced run writes into neither.
    let occupancy_samples = |t: &trace::Trace| {
        t.events()
            .iter()
            .filter(|e| e.track == "serve" && e.name == "batch_occupancy")
            .count() as u64
    };
    let (a, b) = (trace::Trace::new(), trace::Trace::new());
    let start = std::sync::Barrier::new(3);
    let run = |rate_hz| {
        start.wait();
        run_at(rate_hz)
    };
    let (report_a, report_b) = std::thread::scope(|s| {
        let ta = s.spawn(|| trace::with_installed(a.clone(), || run(4_000.0)));
        let tb = s.spawn(|| trace::with_installed(b.clone(), || run(16_000.0)));
        let plain = s.spawn(|| run(32_000.0));
        assert!(plain.join().expect("untraced run").windows > 0);
        (
            ta.join().expect("traced run a"),
            tb.join().expect("traced run b"),
        )
    });
    assert_ne!(report_a.windows, report_b.windows);
    assert_eq!(occupancy_samples(&a), report_a.windows);
    assert_eq!(occupancy_samples(&b), report_b.windows);
    assert!(!trace::enabled(), "no trace leaks onto the test thread");
}
