//! The exporter non-interference gate: a fixed-seed tuning run scraped
//! continuously over HTTP mid-run must produce the *same bytes* — the same
//! canonical trace events and the same summary — as the identical run with
//! no exporter attached. The live endpoints are read-only observers; this
//! test fails if any of them ever perturbs the search.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ansor::core::{auto_schedule_with_model, LearnedCostModel, TuningOptions};
use ansor::golden::golden_task;
use ansor::hw::Measurer;
use telemetry::export::{serve, ExportOptions};
use telemetry::{canonical_events, read_trace, SharedBuf, Telemetry};

fn http_get(addr: &str, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    Some(response)
}

/// One fixed-seed tuning session; with `scrape` the exporter serves the
/// run's registry and a background client hammers every endpoint for the
/// whole duration. Returns (canonical trace lines, trials, best seconds).
fn run_once(scrape: bool) -> (Vec<String>, u64, f64) {
    let buf = SharedBuf::new();
    let tel = Telemetry::to_writer(Box::new(buf.clone()));
    let task = golden_task();
    let options = TuningOptions {
        num_measure_trials: 32,
        measures_per_round: 16,
        init_population: 24,
        seed: 0x11FE,
        telemetry: tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(task.target.clone());
    measurer.set_fault_plan(None);
    measurer.set_telemetry(tel.clone());
    let mut model = LearnedCostModel::new();
    model.set_telemetry(tel.clone());

    let mut exporter = None;
    let stop = Arc::new(AtomicBool::new(false));
    let mut scraper = None;
    if scrape {
        let server =
            serve(&tel, "127.0.0.1:0", ExportOptions::default()).expect("exporter binds port 0");
        let addr = server.local_addr().to_string();
        let stop2 = Arc::clone(&stop);
        scraper = Some(std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop2.load(Ordering::SeqCst) {
                for path in ["/metrics", "/status", "/healthz"] {
                    if http_get(&addr, path).is_some() {
                        scrapes += 1;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            scrapes
        }));
        exporter = Some(server);
    }

    let result = auto_schedule_with_model(&task, options, &mut measurer, &mut model);

    if let Some(handle) = scraper {
        stop.store(true, Ordering::SeqCst);
        let scrapes = handle.join().expect("scraper thread");
        assert!(
            scrapes > 0,
            "the scraper must actually have hit the endpoints"
        );
    }
    if let Some(server) = exporter {
        server.shutdown();
    }

    tel.flush();
    let (lines, skipped) = read_trace(buf.contents().as_slice()).expect("readable trace");
    assert_eq!(skipped, 0);
    (
        canonical_events(&lines),
        result.history.len() as u64,
        result.best_seconds,
    )
}

#[test]
fn scraping_mid_run_does_not_change_a_single_byte() {
    let (plain_events, plain_trials, plain_best) = run_once(false);
    let (scraped_events, scraped_trials, scraped_best) = run_once(true);
    assert!(!plain_events.is_empty());
    assert_eq!(
        plain_events, scraped_events,
        "live scraping must not alter the canonical trace"
    );
    assert_eq!(plain_trials, scraped_trials);
    assert_eq!(
        plain_best.to_bits(),
        scraped_best.to_bits(),
        "best latency must be bit-identical with and without the exporter"
    );
}
