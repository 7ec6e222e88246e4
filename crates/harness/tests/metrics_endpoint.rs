//! Smoke test for the live metrics endpoint: binds a real socket on the
//! shared `ccraft_harness::http::Server` with the `--metrics-addr`
//! handler, speaks HTTP over a raw `TcpStream`, and validates the
//! response is a well-formed Prometheus text exposition.

use ccraft_harness::http::Server;
use ccraft_harness::metrics::{handler, MetricsRegistry};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Sends one HTTP request and returns (status line, headers, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body separator");
    let mut lines = head.lines();
    let status = lines.next().expect("status line").to_string();
    (
        status,
        lines.map(str::to_string).collect(),
        body.to_string(),
    )
}

#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let registry = Arc::new(MetricsRegistry::new());
    registry.add_planned(8);
    registry.set_workers(4);
    registry.observe_cell(0.02, true, false);
    registry.observe_cell(2.5, true, false);
    registry.observe_cell(10.0, false, false);
    let server =
        Server::bind("127.0.0.1:0", handler(Arc::clone(&registry))).expect("bind ephemeral port");
    let addr = server.addr();

    let (status, headers, body) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        headers
            .iter()
            .any(|h| h.eq_ignore_ascii_case("content-type: text/plain; version=0.0.4")),
        "Prometheus content type required, got {headers:?}"
    );
    assert!(
        headers.iter().any(|h| {
            h.to_ascii_lowercase()
                .strip_prefix("content-length: ")
                .is_some_and(|n| n.parse::<usize>() == Ok(body.len()))
        }),
        "content-length must match the body, got {headers:?}"
    );

    // Exposition format: every non-comment line is `name{labels} value`,
    // every metric is preceded by HELP/TYPE comments.
    let mut seen_metrics = Vec::new();
    for line in body.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value must be numeric: {line:?}"
        );
        let name = name_and_labels
            .split_once('{')
            .map_or(name_and_labels, |(n, _)| n);
        assert!(
            name.starts_with("ccraft_"),
            "metrics share the ccraft_ namespace: {line:?}"
        );
        // Histogram samples (_bucket/_sum/_count) are typed under the
        // base metric name.
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| body.contains(&format!("# TYPE {b} histogram")))
            .unwrap_or(name);
        assert!(
            body.contains(&format!("# TYPE {base} ")),
            "{name} is missing its TYPE comment"
        );
        seen_metrics.push(name.to_string());
    }
    for expected in [
        "ccraft_cells_planned",
        "ccraft_cells_completed_total",
        "ccraft_cells_failed_total",
        "ccraft_workers",
        "ccraft_workers_active",
        "ccraft_run_eta_seconds",
        "ccraft_cell_seconds_bucket",
        "ccraft_cell_seconds_sum",
        "ccraft_cell_seconds_count",
    ] {
        assert!(
            seen_metrics.iter().any(|m| m == expected),
            "missing metric {expected} in:\n{body}"
        );
    }

    // Histogram contract: cumulative buckets ending in le="+Inf" whose
    // count equals _count.
    let bucket_counts: Vec<u64> = body
        .lines()
        .filter(|l| l.starts_with("ccraft_cell_seconds_bucket"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
        .collect();
    assert!(!bucket_counts.is_empty());
    assert!(
        bucket_counts.windows(2).all(|w| w[0] <= w[1]),
        "histogram buckets must be cumulative: {bucket_counts:?}"
    );
    let inf_line = body
        .lines()
        .find(|l| l.contains("le=\"+Inf\""))
        .expect("+Inf bucket present");
    assert_eq!(inf_line.rsplit_once(' ').unwrap().1, "3");
    assert!(body.contains("ccraft_cell_seconds_count 3"));
    assert!(body.contains("ccraft_cells_completed_total 3"));
    assert!(body.contains("ccraft_cells_failed_total 1"));

    // The bare root also answers (for curl convenience); anything else 404s.
    let (status, _, _) = http_get(addr, "/");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (status, _, _) = http_get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    server.shutdown();
}

#[test]
fn endpoint_survives_garbage_requests() {
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::bind("127.0.0.1:0", handler(registry)).expect("bind ephemeral port");
    let addr = server.addr();

    // A connection that sends nothing and hangs up.
    drop(TcpStream::connect(addr).expect("connect"));
    // A connection that sends a malformed request line.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"not-http at all\r\n\r\n").expect("send");
    let mut junk_response = String::new();
    let _ = stream.read_to_string(&mut junk_response);
    drop(stream);

    // The server still answers real requests afterwards.
    let (status, _, body) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("ccraft_cells_planned 0"));
    server.shutdown();
}
