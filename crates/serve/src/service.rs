//! The one connection loop both `annd` modes run.
//!
//! A [`Listener`] owns everything between the socket and a decoded
//! request: the nonblocking accept poll, the fixed worker pool fed over
//! a channel, the per-connection frame loop, trace minting for untraced
//! frames, the request and slow-request logs, the connection counter,
//! and SHUTDOWN (flag plus loopback poke). What a request *means* is the
//! [`Service`]'s business: [`crate::server::Server`] answers from its
//! catalog, [`crate::router::Router`] scatter-gathers over shards. The
//! trait is also the seam an in-process embedding or a future event
//! loop needs — `call` never sees a socket.

use crate::protocol::{read_frame, write_frame, Request, Response};
use obs::{SpanRecord, TraceContext};
use std::cell::RefCell;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Hygiene timeout on connection reads: a peer that goes silent for this
/// long mid-session is dropped so it cannot pin a worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Accept-loop poll interval; also the upper bound SHUTDOWN adds to the
/// drain latency when the loopback wake-up poke cannot connect.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Process-wide connection counter: every accepted connection gets a
/// stable id for correlating its log lines.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// What the loop knows about one request beyond its decoded body.
pub(crate) struct Ctx {
    /// The frame's trace context, or one minted at this edge for frames
    /// that arrived without (legacy clients, ad-hoc tools), so every log
    /// line downstream is still correlatable.
    pub(crate) trace: TraceContext,
    /// Child spans the service attached for the slow-request log.
    spans: RefCell<Vec<SpanRecord>>,
}

impl Ctx {
    fn new(trace: TraceContext) -> Ctx {
        Ctx { trace, spans: RefCell::new(Vec::new()) }
    }

    /// Attaches child spans (offsets relative to the request start) to
    /// the breakdown a slow request logs.
    pub(crate) fn add_spans(&self, spans: impl IntoIterator<Item = SpanRecord>) {
        self.spans.borrow_mut().extend(spans);
    }
}

/// Answers decoded requests. One value is shared by every worker thread;
/// each worker also owns one `Worker` for state that must not be shared
/// (the server's per-index scratch map).
pub(crate) trait Service: Sync {
    /// Per-worker-thread state, created once per worker.
    type Worker;

    /// A fresh worker state.
    fn worker(&self) -> Self::Worker;

    /// Answers one request. SHUTDOWN arrives here only to be
    /// acknowledged — the loop has already raised the flag.
    fn call(&self, req: Request, ctx: &Ctx, worker: &mut Self::Worker) -> Response;
}

/// A bound, not-yet-serving socket plus its pool size and shutdown flag.
pub(crate) struct Listener {
    listener: TcpListener,
    local: SocketAddr,
    workers: usize,
    shutdown: AtomicBool,
}

impl Listener {
    /// Binds `addr` (port `0` for an ephemeral port) for a pool of
    /// `workers` connection handlers.
    pub(crate) fn bind(addr: impl ToSocketAddrs, workers: usize) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        // Nonblocking accept + short poll: the loop re-checks the shutdown
        // flag every tick, so it can never hang on a lost wake-up, and a
        // transient accept error (ECONNABORTED under load, a brief EMFILE
        // burst) is retried instead of silently terminating the daemon.
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(Listener { listener, local, workers: workers.max(1), shutdown: AtomicBool::new(false) })
    }

    /// The bound address (the real port when bound with port `0`).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Whether a SHUTDOWN request has arrived.
    pub(crate) fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Serves `service` until a SHUTDOWN request arrives, then drains
    /// the queued connections, joins every worker and returns.
    pub(crate) fn serve<S: Service>(&self, service: &S) {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| {
                    let mut worker = service.worker();
                    loop {
                        let stream = rx.lock().expect("receiver poisoned").recv();
                        match stream {
                            Ok(s) => self.handle_connection(s, service, &mut worker),
                            Err(_) => break, // channel closed: draining
                        }
                    }
                });
            }
            while !self.is_shut_down() {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        // Some platforms hand the listener's nonblocking
                        // mode down to accepted sockets; handlers expect
                        // blocking reads with a timeout.
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        obs::warn!("accept failed, retrying", error = e);
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }
            drop(tx); // workers drain the queue, then exit
        });
    }

    /// Raises the shutdown flag and pokes the accept loop awake; if the
    /// connect fails the nonblocking poll observes the flag within
    /// [`ACCEPT_POLL`] anyway. A wildcard bind is not connectable, so
    /// the poke targets loopback on the same port.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let target: SocketAddr = if self.local.ip().is_unspecified() {
            (std::net::Ipv4Addr::LOCALHOST, self.local.port()).into()
        } else {
            self.local
        };
        TcpStream::connect_timeout(&target, Duration::from_millis(100)).ok();
    }

    fn handle_connection<S: Service>(
        &self,
        mut stream: TcpStream,
        service: &S,
        worker: &mut S::Worker,
    ) {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
        let conn = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
        let peer = stream.peer_addr().map_or_else(|_| "?".to_string(), |a| a.to_string());
        obs::global()
            .counter("ann_connections_total", &[], "Connections accepted by the serving loop")
            .inc();
        obs::debug!("connection open", conn = conn, peer = peer);
        loop {
            let body = match read_frame(&mut stream) {
                Ok(Some(body)) => body,
                Ok(None) => {
                    obs::debug!("connection closed", conn = conn, peer = peer);
                    return; // clean close
                }
                Err(e) => {
                    // Timeout, mid-frame EOF, oversized frame.
                    obs::debug!("connection dropped", conn = conn, peer = peer, error = e);
                    return;
                }
            };
            let (resp, stop) = match Request::decode_traced(&body) {
                Ok((req, trace)) => {
                    let ctx = Ctx::new(trace.unwrap_or_else(TraceContext::mint));
                    let op = req.op_name();
                    let index = req.index().map(str::to_string);
                    let stop = matches!(req, Request::Shutdown);
                    if stop {
                        self.shut_down();
                    }
                    let t0 = Instant::now();
                    let resp = service.call(req, &ctx, worker);
                    let micros = t0.elapsed().as_micros() as u64;
                    obs::debug!(
                        "request",
                        conn = conn,
                        trace = ctx.trace,
                        op = op,
                        index = index.as_deref().unwrap_or("-"),
                        us = micros
                    );
                    if obs::is_slow(micros) {
                        let mut span = SpanRecord::new(op, 0, micros);
                        if let Some(ix) = &index {
                            span = span.field("index", ix);
                        }
                        span.children = ctx.spans.into_inner();
                        obs::warn!(
                            "slow request",
                            conn = conn,
                            trace = ctx.trace,
                            us = micros,
                            span = span.render()
                        );
                    }
                    (resp, stop)
                }
                Err(e) => {
                    obs::warn!("bad request", conn = conn, peer = peer, error = e);
                    (Response::Error(format!("bad request: {e}")), true)
                }
            };
            if write_frame(&mut stream, &resp.encode()).is_err() || stop {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtoError;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Answers every request with the op name and the trace context it
    /// was called with, and counts the worker states made and still alive.
    #[derive(Default)]
    struct Echo {
        created: AtomicUsize,
        alive: Arc<AtomicUsize>,
    }

    struct EchoWorker(Arc<AtomicUsize>);

    impl Drop for EchoWorker {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl Service for Echo {
        type Worker = EchoWorker;

        fn worker(&self) -> EchoWorker {
            self.created.fetch_add(1, Ordering::SeqCst);
            self.alive.fetch_add(1, Ordering::SeqCst);
            EchoWorker(self.alive.clone())
        }

        fn call(&self, req: Request, ctx: &Ctx, _: &mut EchoWorker) -> Response {
            match req {
                Request::Shutdown => Response::ShuttingDown,
                req => Response::Metrics(format!("{} {}", req.op_name(), ctx.trace)),
            }
        }
    }

    fn exchange(stream: &mut TcpStream, body: &[u8]) -> Response {
        write_frame(stream, body).unwrap();
        Response::decode(&read_frame(stream).unwrap().expect("a reply frame")).unwrap()
    }

    #[test]
    fn the_loop_frames_traces_and_shuts_down_for_any_service() {
        let echo = Echo::default();
        let listener = Listener::bind("127.0.0.1:0", 3).unwrap();
        let addr = listener.local_addr();
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| listener.serve(&echo));

            // A malformed frame: the codec's error text, then a close.
            let mut bad = TcpStream::connect(addr).unwrap();
            match exchange(&mut bad, &[0xEE]) {
                Response::Error(msg) => {
                    assert_eq!(msg, format!("bad request: {}", ProtoError::BadTag(0xEE)))
                }
                other => panic!("malformed frame must get an error, got {other:?}"),
            }
            assert!(read_frame(&mut bad).unwrap().is_none(), "the loop closes after a bad frame");

            // No TRACE section: `call` sees a context minted at the edge.
            let mut conn = TcpStream::connect(addr).unwrap();
            let Response::Metrics(untraced) = exchange(&mut conn, &Request::Ping.encode()) else {
                panic!("echo answers METRICS-shaped")
            };
            let (op, minted) = untraced.split_once(' ').unwrap();
            assert_eq!(op, "PING");
            assert!(!minted.starts_with("0000000000000000/"), "minted ids are non-zero: {minted}");

            // A TRACE section keeps its ids, on the same connection.
            let sent = TraceContext { trace_id: 0xABCD, span_id: 0x1234 };
            let traced = exchange(&mut conn, &Request::List.encode_traced(Some(sent)));
            assert_eq!(traced, Response::Metrics(format!("LIST {sent}")));

            // SHUTDOWN: acknowledged, connection closed, `serve` returns.
            assert_eq!(exchange(&mut conn, &Request::Shutdown.encode()), Response::ShuttingDown);
            assert!(read_frame(&mut conn).unwrap().is_none());
            serving.join().expect("serve returns with its workers joined");
        });
        assert!(listener.is_shut_down());
        assert_eq!(echo.created.load(Ordering::SeqCst), 3, "one worker state per pool thread");
        assert_eq!(echo.alive.load(Ordering::SeqCst), 0, "every worker was joined and dropped");
    }
}
