//! A tiny scrape endpoint over `std::net::TcpListener`.
//!
//! One background thread accepts connections and answers these routes:
//! `GET /metrics` (Prometheus text, version 0.0.4), `GET /metrics.json`
//! (the registry's JSON rendering), `GET /healthz` (liveness: uptime
//! and a scrape counter), and up to three runtime-published documents —
//! `GET /slo.json` (SLO engine state), `GET /learning.json` (live
//! learner state: arms, bounds, regret), and `GET /flight.json` (the
//! flight recorder's current rings). Document routes answer 404 with a
//! route-specific body when the embedding runtime publishes nothing
//! there. Everything else is 404. The server exists for *live*
//! observation — nothing about a run's determinism depends on whether
//! anyone scrapes it.

use crate::registry::Registry;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A shared, swappable document (e.g. the `/slo.json` body): the
/// runtime overwrites it each slot, the server serves the latest copy.
pub type SharedDoc = Arc<Mutex<String>>;

/// A running scrape server; dropping it stops the thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// The document routes a runtime can publish, with the body served
/// when nothing is attached at that path.
const DOC_ROUTES: [(&str, &str); 3] = [
    ("/slo.json", "no slo engine attached\n"),
    ("/learning.json", "no learning plane attached\n"),
    ("/flight.json", "no flight recorder attached\n"),
];

/// Everything the accept loop needs to answer a request.
struct ServerState {
    registry: Arc<Registry>,
    docs: Vec<(&'static str, SharedDoc)>,
    started: Instant,
    scrapes: AtomicU64,
}

fn handle(mut stream: TcpStream, state: &ServerState) {
    // Only the request line matters; read and discard headers so the
    // client is not hit with a reset before it finishes writing.
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    let mut header = String::new();
    while reader.read_line(&mut header).is_ok() {
        if header == "\r\n" || header == "\n" || header.is_empty() {
            break;
        }
        header.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    // Every answered request counts, including 404s — the counter is a
    // liveness signal, not a success meter.
    let scrapes = state.scrapes.fetch_add(1, Ordering::Relaxed) + 1;
    match path {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &state.registry.render_prometheus(),
        ),
        "/metrics.json" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &state.registry.render_json(),
        ),
        "/healthz" => {
            let body = format!(
                "{{\"status\":\"ok\",\"uptime_ms\":{},\"scrapes\":{scrapes}}}",
                state.started.elapsed().as_millis()
            );
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        path if DOC_ROUTES.iter().any(|(p, _)| *p == path) => {
            match state.docs.iter().find(|(p, _)| *p == path) {
                Some((_, doc)) => {
                    let body = doc.lock().unwrap_or_else(PoisonError::into_inner).clone();
                    respond(&mut stream, "200 OK", "application/json", &body);
                }
                None => {
                    let missing = DOC_ROUTES
                        .iter()
                        .find(|(p, _)| *p == path)
                        .map(|(_, msg)| *msg)
                        .unwrap_or("not found\n");
                    respond(&mut stream, "404 Not Found", "text/plain", missing);
                }
            }
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, port 0 for ephemeral) and
    /// starts serving `registry` in a background thread.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn bind(addr: &str, registry: Arc<Registry>) -> std::io::Result<Self> {
        Self::bind_with_docs(addr, registry, Vec::new())
    }

    /// [`MetricsServer::bind`], additionally publishing each `(path,
    /// doc)` pair. Paths must come from the known document routes
    /// (`/slo.json`, `/learning.json`, `/flight.json`); unknown paths
    /// are ignored rather than served (the route table is fixed so a
    /// typo cannot silently open a new endpoint).
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn bind_with_docs(
        addr: &str,
        registry: Arc<Registry>,
        docs: Vec<(&'static str, SharedDoc)>,
    ) -> std::io::Result<Self> {
        let docs = docs
            .into_iter()
            .filter(|(p, _)| DOC_ROUTES.iter().any(|(known, _)| known == p))
            .collect();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let state = ServerState {
            registry,
            docs,
            started: Instant::now(),
            scrapes: AtomicU64::new(0),
        };
        let join = std::thread::Builder::new()
            .name("mec-obs-metrics".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        handle(stream, &state);
                    }
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            join: Some(join),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_prometheus_and_json() {
        let registry = Arc::new(Registry::new());
        registry
            .counter("mec_up_total", "test", &[("shard", "0")])
            .add(5);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();

        let text = get(addr, "/metrics");
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("mec_up_total{shard=\"0\"} 5"), "{text}");

        let json = get(addr, "/metrics.json");
        assert!(json.contains("application/json"), "{json}");
        assert!(
            json.contains("\"mec_up_total{shard=\\\"0\\\"}\":5"),
            "{json}"
        );

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        drop(server);
    }

    #[test]
    fn healthz_reports_uptime_and_counts_scrapes() {
        let registry = Arc::new(Registry::new());
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();
        let first = get(addr, "/healthz");
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        assert!(first.contains("\"status\":\"ok\""), "{first}");
        assert!(first.contains("\"uptime_ms\":"), "{first}");
        assert!(first.contains("\"scrapes\":1"), "{first}");
        let _ = get(addr, "/metrics");
        let third = get(addr, "/healthz");
        assert!(third.contains("\"scrapes\":3"), "{third}");
        drop(server);
    }

    #[test]
    fn slo_json_serves_latest_document_or_404() {
        let registry = Arc::new(Registry::new());
        // No document attached: the route is a 404, not an empty body.
        let bare = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let out = get(bare.local_addr(), "/slo.json");
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");
        drop(bare);

        let doc: SharedDoc = Arc::new(Mutex::new("{\"slot\":0,\"slos\":[]}".to_string()));
        let server = MetricsServer::bind_with_docs(
            "127.0.0.1:0",
            Arc::clone(&registry),
            vec![("/slo.json", doc.clone())],
        )
        .unwrap();
        let addr = server.local_addr();
        let out = get(addr, "/slo.json");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.ends_with("{\"slot\":0,\"slos\":[]}"), "{out}");
        // The runtime swaps the document; the server serves the copy.
        *doc.lock().unwrap() = "{\"slot\":7,\"slos\":[]}".to_string();
        let out = get(addr, "/slo.json");
        assert!(out.contains("\"slot\":7"), "{out}");
        drop(server);
    }

    #[test]
    fn learning_and_flight_docs_serve_like_slo() {
        let registry = Arc::new(Registry::new());
        let learning: SharedDoc = Arc::new(Mutex::new("{\"slot\":1,\"shards\":[]}".to_string()));
        let flight: SharedDoc = Arc::new(Mutex::new("{\"slot\":1,\"snapshots\":[]}".to_string()));
        let server = MetricsServer::bind_with_docs(
            "127.0.0.1:0",
            Arc::clone(&registry),
            vec![
                ("/learning.json", learning.clone()),
                ("/flight.json", flight.clone()),
                ("/evil.json", flight.clone()), // unknown: must be ignored
            ],
        )
        .unwrap();
        let addr = server.local_addr();
        let out = get(addr, "/learning.json");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.ends_with("{\"slot\":1,\"shards\":[]}"), "{out}");
        let out = get(addr, "/flight.json");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        // The unattached slo route keeps its specific 404 body.
        let out = get(addr, "/slo.json");
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");
        assert!(out.ends_with("no slo engine attached\n"), "{out}");
        // Unknown doc paths never open an endpoint.
        let out = get(addr, "/evil.json");
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");
        // Swapping a doc serves the new copy.
        *learning.lock().unwrap() = "{\"slot\":9,\"shards\":[]}".to_string();
        let out = get(addr, "/learning.json");
        assert!(out.contains("\"slot\":9"), "{out}");
        drop(server);
    }

    #[test]
    fn unattached_learning_and_flight_routes_404_with_hints() {
        let registry = Arc::new(Registry::new());
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();
        let out = get(addr, "/learning.json");
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");
        assert!(out.ends_with("no learning plane attached\n"), "{out}");
        let out = get(addr, "/flight.json");
        assert!(out.ends_with("no flight recorder attached\n"), "{out}");
        drop(server);
    }

    #[test]
    fn concurrent_scrapes_all_answer() {
        let registry = Arc::new(Registry::new());
        registry.counter("mec_busy_total", "test", &[]).add(1);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let path = if i % 2 == 0 {
                        "/metrics"
                    } else {
                        "/metrics.json"
                    };
                    get(addr, path)
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let body = h.join().expect("scraper thread");
            assert!(body.starts_with("HTTP/1.1 200"), "scrape {i}: {body}");
            assert!(body.contains("mec_busy_total"), "scrape {i}: {body}");
        }
        drop(server);
    }

    #[test]
    fn malformed_request_line_gets_a_clean_404() {
        let registry = Arc::new(Registry::new());
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();

        // No path at all: the server must answer (as a 404), not hang
        // or reset the connection.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GARBAGE\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");

        // Binary junk on the wire must not take the accept loop down:
        // a well-formed scrape afterwards still succeeds.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0xff, 0xfe, 0x00, b'\r', b'\n']).unwrap();
        drop(stream);
        let ok = get(addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        drop(server);
    }

    #[test]
    fn unknown_paths_are_404_with_bodies() {
        let registry = Arc::new(Registry::new());
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();
        for path in ["/", "/metrics/extra", "/METRICS", "/favicon.ico"] {
            let out = get(addr, path);
            assert!(out.starts_with("HTTP/1.1 404"), "{path}: {out}");
            assert!(out.ends_with("not found\n"), "{path}: {out}");
        }
        drop(server);
    }
}
