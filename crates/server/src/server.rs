//! The long-lived TCP front end: listener, bounded admission queue, worker
//! pool, and HTTP/1.1 framing.
//!
//! Hand-rolled over `std::net::TcpListener` — the same offline discipline
//! as `vendor/`: no async runtime, no HTTP dependency, just blocking
//! sockets and scoped-lifetime threads.
//!
//! **Admission control.** The unit of admission is the *connection*. One
//! acceptor thread pulls from the listener; an accepted connection either
//! enters the bounded queue (and is later picked up by a worker, which
//! serves its requests keep-alive until the peer hangs up) or — when the
//! queue is at capacity — is answered immediately with the typed
//! `429 overloaded` rejection and closed. Overload is therefore a fast,
//! bounded failure: the server never buffers unserved work beyond
//! [`ServerConfig::queue_capacity`], and clients learn to back off in one
//! round trip. `tests/service_robustness.rs` pins this deterministically by
//! parking every worker on a barrier (via [`ServerHooks::before_handle`]),
//! filling the queue (observed via [`ServerHooks::on_admitted`]), and
//! asserting the next connection is rejected — no sleeps anywhere.

use crate::service::{now, QueryService, Response, ServiceStats};
use crate::wire::{ErrorKind, ServiceError};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Sizing knobs for [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads serving admitted connections.
    pub workers: usize,
    /// Admission queue bound: connections accepted but not yet picked up by
    /// a worker. Beyond it, new connections get the typed `429`.
    pub queue_capacity: usize,
    /// Maximum request body size; larger bodies get a typed `400` and the
    /// connection is closed (the framing can no longer be trusted).
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            max_body_bytes: 1 << 20,
        }
    }
}

/// Test/observability instrumentation points. All hooks default to `None`
/// and cost nothing when unset.
#[derive(Clone, Default)]
pub struct ServerHooks {
    /// Called by the acceptor after a connection is enqueued, with the
    /// queue depth it observed (including the new entry). The deterministic
    /// overload test uses this to know exactly when the queue is full.
    pub on_admitted: Option<Arc<dyn Fn(usize) + Send + Sync>>,
    /// Called by a worker after it claims a connection, before any request
    /// is read. The overload test parks workers here on a barrier.
    pub before_handle: Option<Arc<dyn Fn() + Send + Sync>>,
}

struct Inner {
    service: QueryService,
    config: ServerConfig,
    hooks: ServerHooks,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A running query server: one acceptor thread plus
/// [`ServerConfig::workers`] worker threads. Lives until
/// [`Server::shutdown`].
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `service`.
    pub fn bind(
        addr: &str,
        service: QueryService,
        config: ServerConfig,
        hooks: ServerHooks,
    ) -> std::io::Result<Server> {
        Server::start(TcpListener::bind(addr)?, service, config, hooks)
    }

    /// Starts serving on an already-bound listener.
    pub fn start(
        listener: TcpListener,
        service: QueryService,
        config: ServerConfig,
        hooks: ServerHooks,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            service,
            config,
            hooks,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || acceptor_loop(&inner, &listener))
        };
        Ok(Server {
            inner,
            addr,
            acceptor,
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the admission queue, and joins every thread.
    ///
    /// Keep-alive connections block their worker until the peer closes, so
    /// callers must drop their clients before shutting down (the in-repo
    /// tests do; `repro serve` is killed by signal instead).
    pub fn shutdown(self) {
        // Relaxed: the flag is a plain stop signal; the condvar notify and
        // the wake-up connection below provide the actual synchronization.
        self.inner.shutdown.store(true, Ordering::Relaxed);
        // Unblock the acceptor's `accept()` with a throwaway connection.
        drop(TcpStream::connect(self.addr));
        self.inner.available.notify_all();
        drop(self.acceptor.join());
        for worker in self.workers {
            drop(worker.join());
        }
    }
}

fn shutting_down(inner: &Inner) -> bool {
    // Relaxed: see `Server::shutdown` — a stop signal, not a data publish.
    inner.shutdown.load(Ordering::Relaxed)
}

fn acceptor_loop(inner: &Inner, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutting_down(inner) {
                    return;
                }
                continue;
            }
        };
        if shutting_down(inner) {
            return;
        }
        let admitted: Result<usize, TcpStream> = {
            // A poisoned queue lock is unreachable under the crate's
            // no-panic contract; recover rather than propagate.
            let mut queue = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            if queue.len() >= inner.config.queue_capacity {
                Err(stream)
            } else {
                queue.push_back(stream);
                Ok(queue.len())
            }
        };
        match admitted {
            Ok(depth) => {
                if let Some(hook) = &inner.hooks.on_admitted {
                    hook(depth);
                }
                inner.available.notify_one();
            }
            Err(stream) => reject_overloaded(inner, stream),
        }
    }
}

/// Writes the typed `429` to a connection the bounded queue could not take
/// and hangs up. One round trip, no request read: the client learns to back
/// off before spending anything on the body.
fn reject_overloaded(inner: &Inner, mut stream: TcpStream) {
    ServiceStats::bump(&inner.service.stats().rejected_overload);
    let mut response = Response::error(&ServiceError::new(
        ErrorKind::Overloaded,
        "admission queue full; retry with backoff",
    ));
    response.close = true;
    if stream.write_all(&response.http_bytes()).is_err() {
        ServiceStats::bump(&inner.service.stats().io_errors);
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let stream = {
            let mut queue = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shutting_down(inner) {
                    break None;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(stream) = stream else { return };
        if let Some(hook) = &inner.hooks.before_handle {
            hook();
        }
        if handle_connection(inner, stream).is_err() {
            ServiceStats::bump(&inner.service.stats().io_errors);
        }
    }
}

/// One parsed request frame.
struct RequestFrame {
    method: String,
    path: String,
    body: Vec<u8>,
    close: bool,
}

enum FrameError {
    /// Clean end of stream between requests.
    Eof,
    /// Transport failure.
    Io(std::io::Error),
    /// The peer sent something that is not an HTTP/1.x request we serve.
    Malformed(&'static str),
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

fn handle_connection(inner: &Inner, mut stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    loop {
        let frame = match read_frame(&mut reader, inner.config.max_body_bytes) {
            Ok(frame) => frame,
            Err(FrameError::Eof) => return Ok(()),
            Err(FrameError::Io(e)) => return Err(e),
            Err(FrameError::Malformed(detail)) => {
                let mut response =
                    Response::error(&ServiceError::new(ErrorKind::BadRequest, detail));
                response.close = true;
                stream.write_all(&response.http_bytes())?;
                return Ok(());
            }
        };
        let started = now();
        let mut response = inner
            .service
            .handle(&frame.method, &frame.path, &frame.body, started);
        if frame.close {
            response.close = true;
        }
        stream.write_all(&response.http_bytes())?;
        if response.close {
            return Ok(());
        }
    }
}

/// Longest accepted head line (request line or header), in bytes.
const MAX_HEAD_LINE: u64 = 8 * 1024;
/// Most accepted headers per request.
const MAX_HEADERS: usize = 64;

fn read_head_line(reader: &mut BufReader<TcpStream>) -> Result<Option<String>, FrameError> {
    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(MAX_HEAD_LINE)
        .read_line(&mut line)
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                FrameError::Malformed("head line is not UTF-8")
            } else {
                FrameError::Io(e)
            }
        })?;
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        return Err(FrameError::Malformed("head line too long or truncated"));
    }
    while line.ends_with(['\n', '\r']) {
        line.pop();
    }
    Ok(Some(line))
}

fn read_frame(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> Result<RequestFrame, FrameError> {
    let Some(request_line) = read_head_line(reader)? else {
        return Err(FrameError::Eof);
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(FrameError::Malformed(
            "request line is not `METHOD PATH VERSION`",
        ));
    };
    let close_by_default = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => return Err(FrameError::Malformed("unsupported HTTP version")),
    };
    let mut content_length: usize = 0;
    let mut close = close_by_default;
    for _ in 0..=MAX_HEADERS {
        let Some(line) = read_head_line(reader)? else {
            return Err(FrameError::Malformed("connection closed inside headers"));
        };
        if line.is_empty() {
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            return Ok(RequestFrame {
                method: method.to_string(),
                path: path.to_string(),
                body,
                close,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(FrameError::Malformed("header line has no colon"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let parsed: usize = value
                    .parse()
                    .map_err(|_| FrameError::Malformed("unparseable content-length"))?;
                if parsed > max_body {
                    return Err(FrameError::Malformed("request body too large"));
                }
                content_length = parsed;
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
            _ => {}
        }
    }
    Err(FrameError::Malformed("too many headers"))
}
