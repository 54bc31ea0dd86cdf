//! The one accept loop both listeners (the QUEL port and the HTTP
//! observability port) run: accept until told to stop, hand each
//! admitted connection to a thread of its own, join those threads at
//! shutdown.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::{NetError, Result};

/// How often the (nonblocking) accept loop re-checks the stop flag when
/// no connection is pending. Polling bounds shutdown latency without
/// relying on a self-connect, which fails outright on binds the process
/// cannot dial back (wildcard or firewalled interfaces).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// A bound listener with its accept thread and the registry of
/// per-connection threads it spawned.
pub(crate) struct Acceptor {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Acceptor {
    /// Binds `addr` and starts accepting on a thread called `name`.
    /// `admit` runs on that thread for every connection and returns the
    /// work to run on the connection's own thread, or `None` when it
    /// turned the connection away itself. A job that cannot be spawned
    /// is dropped unrun, so whatever `admit` registered must be undone
    /// by the job's captured state on drop.
    pub(crate) fn start<A, F, J>(addr: A, name: &str, mut admit: F) -> Result<Acceptor>
    where
        A: ToSocketAddrs,
        F: FnMut(TcpStream) -> Option<J> + Send + 'static,
        J: FnOnce() + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let conn_name = format!("{name}-conn");
        let accept = {
            let stop = Arc::clone(&stop);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let stream = match listener.accept() {
                            Ok((s, _)) => s,
                            // Nothing pending (or a transient accept
                            // failure): sleep a beat, re-check the flag.
                            Err(_) => {
                                std::thread::sleep(ACCEPT_POLL);
                                continue;
                            }
                        };
                        // The listener is nonblocking only so this loop
                        // can poll the flag; connections do blocking I/O
                        // under their own timeouts.
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        let Some(job) = admit(stream) else { continue };
                        let spawned = std::thread::Builder::new()
                            .name(conn_name.clone())
                            .spawn(job);
                        if let Ok(t) = spawned {
                            let mut threads = handlers.lock().expect("handlers lock");
                            // Prune finished handlers so a long-lived
                            // listener does not accumulate one JoinHandle
                            // per connection ever taken.
                            threads.retain(|h| !h.is_finished());
                            threads.push(t);
                        }
                    }
                })
                .map_err(NetError::Io)?
        };
        Ok(Acceptor {
            local_addr,
            stop,
            accept: Some(accept),
            handlers,
        })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the accept thread (which drops `admit`
    /// and whatever it captured). Connection threads keep running.
    pub(crate) fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Stops accepting, then joins every connection thread.
    pub(crate) fn shutdown(mut self) {
        self.stop_accepting();
        let threads = std::mem::take(&mut *self.handlers.lock().expect("handlers lock"));
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Dropping without [`Acceptor::shutdown`] still closes the listener and
/// ends the accept thread; connection threads are left to finish alone.
impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}
