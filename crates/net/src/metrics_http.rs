//! The daemon's embedded `/metrics` endpoint: a deliberately tiny,
//! hand-rolled HTTP/1.1 responder (no external dependencies, one
//! blocking thread) serving the Prometheus text exposition format.
//! Scrapes are rare and small — one request per poll interval — so a
//! sequential accept loop with short socket timeouts is the whole
//! server; the daemon's event loop never sees this traffic.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running `/metrics` endpoint. Dropping it stops the thread.
pub(crate) struct MetricsExporter {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Bind `addr` (port 0 for ephemeral) and serve `render()`'s output
    /// at `GET /metrics` until dropped.
    pub(crate) fn bind(
        addr: &str,
        render: impl Fn() -> String + Send + 'static,
    ) -> std::io::Result<MetricsExporter> {
        let listener = std::net::TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let thread = std::thread::Builder::new()
            .name("gf-metrics-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = serve_one(stream, &render);
                }
            })?;
        Ok(MetricsExporter {
            addr: local,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; an
        // unspecified bind address isn't connectable, so aim loopback.
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Answer one request: read the head, route on the request line, write
/// a complete `Connection: close` response.
fn serve_one(mut stream: TcpStream, render: &impl Fn() -> String) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut chunk)? {
            0 => break,
            n => head.extend_from_slice(&chunk[..n]),
        }
        if head.len() > 16 * 1024 {
            break; // hostile head; route on what we have
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "GET only\n".to_owned())
    } else if path == "/metrics" || path == "/" {
        ("200 OK", render())
    } else {
        ("404 Not Found", "try /metrics\n".to_owned())
    };
    let header = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())
}
