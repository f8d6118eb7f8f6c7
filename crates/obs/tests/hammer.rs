//! Concurrent export hammer: N reader threads snapshotting and
//! serializing a registry while writer threads pound every metric kind —
//! the live `/metrics` endpoint's access pattern. The point-in-time
//! snapshot must neither deadlock, panic, nor observe torn name maps,
//! and writers must lose nothing to concurrent exports.
//!
//! The live server is hammered too: idle connections held open up to its
//! in-flight cap make the next request a typed 503, and freeing them
//! restores service.

use nevermind_obs::http::MAX_CONNECTIONS;
use nevermind_obs::{MetricsRegistry, ObsServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const WRITERS: usize = 4;
const READERS: usize = 4;
const ROUNDS: u64 = 2_000;

#[test]
fn concurrent_exports_never_block_or_corrupt_writers() {
    let reg = Arc::new(MetricsRegistry::new());
    reg.set_enabled(true);
    let writing = Arc::new(AtomicBool::new(true));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                for i in 0..ROUNDS {
                    // Rotate names so exports race both the map inserts
                    // (new names) and the value updates (hot names).
                    let name = format!("hammer/counter_{w}_{}", i % 7);
                    reg.counter(&name).inc();
                    reg.counter("hammer/total").inc();
                    reg.gauge("hammer/gauge").set(i as f64);
                    reg.histogram("hammer/hist").record(i);
                    reg.series(&format!("hammer/series_{w}")).push(i as f64, i as f64);
                    reg.record_span("hammer/span", i);
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let writing = Arc::clone(&writing);
            thread::spawn(move || {
                let mut exports = 0u64;
                while writing.load(Ordering::Relaxed) {
                    let json = reg.to_json();
                    assert!(json.starts_with('{') && json.ends_with("}\n"));
                    assert!(json.contains("nevermind-metrics/v1"));
                    let snap = reg.snapshot();
                    // Histogram fields are loaded independently, so count
                    // and bucket sums may skew mid-write — but never past
                    // what the writers could possibly have recorded.
                    if let Some(h) = snap.histograms.get("hammer/hist") {
                        let cap = (WRITERS as u64) * ROUNDS;
                        let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
                        assert!(h.count <= cap && bucket_total <= cap);
                    }
                    exports += 1;
                    thread::sleep(Duration::from_micros(100));
                }
                exports
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer thread");
    }
    writing.store(false, Ordering::Relaxed);
    let mut total_exports = 0u64;
    for r in readers {
        total_exports += r.join().expect("reader thread");
    }
    assert!(total_exports > 0, "readers exported at least once");

    // Nothing written was lost to a concurrent export.
    let snap = reg.snapshot();
    assert_eq!(snap.counters["hammer/total"], (WRITERS as u64) * ROUNDS);
    let h = &snap.histograms["hammer/hist"];
    assert_eq!(h.count, (WRITERS as u64) * ROUNDS);
    for w in 0..WRITERS {
        assert_eq!(snap.series[&format!("hammer/series_{w}")].len(), ROUNDS as usize);
    }
    assert_eq!(snap.spans["hammer/span"].count, (WRITERS as u64) * ROUNDS);
}

/// One `GET` on a fresh connection; returns (status code, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let code = raw.split_whitespace().nth(1).and_then(|c| c.parse().ok()).expect("status code");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (code, body)
}

#[test]
fn idle_connections_past_the_cap_are_shed_with_503() {
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    assert_eq!(get(addr, "/metrics").0, 200, "serves before the hammer");

    // Idle clients that never send a request each pin one handler.
    let idle: Vec<TcpStream> =
        (0..MAX_CONNECTIONS).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    let (code, body) = get(addr, "/metrics");
    assert_eq!(code, 503, "past the cap: {body}");
    assert!(body.contains("connections in flight"), "typed busy body: {body}");

    // Closing them frees their handlers (EOF ends each read at once).
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (code, _) = get(addr, "/metrics");
        if code == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "still {code} after the idle clients closed");
        thread::sleep(Duration::from_millis(10));
    }
    server.stop();
}
